package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/refute"
)

func stateTestConfig() Config {
	cfg := DefaultConfig()
	cfg.PH.Lambda = 0.5
	cfg.EmitSamples = true
	return cfg
}

func traceSamples(t *testing.T, total, phaseLen, shiftAt int, shift float64, seed int64) []Sample {
	t.Helper()
	var buf bytes.Buffer
	if err := twoPhaseTrace(&buf, total, phaseLen, shiftAt, shift, seed); err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(&buf)
	var out []Sample
	for dec.More() {
		var s Sample
		if err := dec.Decode(&s); err != nil {
			t.Fatal(err)
		}
		out = append(out, s)
	}
	if len(out) != total {
		t.Fatalf("decoded %d samples, want %d", len(out), total)
	}
	return out
}

// ingestAll feeds samples one at a time, checking after every ingest
// that the sample was scored on arrival.
func ingestAll(t *testing.T, p *Processor, samples []Sample) []Event {
	t.Helper()
	var events []Event
	for _, s := range samples {
		evs, err := ingest(p, s)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, evs...)
		if st := p.Stats(); st.Accepted != st.Scored {
			t.Fatalf("accepted %d != scored %d", st.Accepted, st.Scored)
		}
	}
	return events
}

// restoreVia restores st into a processor after a JSON round trip.
func restoreVia(t *testing.T, m model.Model, cfg Config, st ProcessorState) *Processor {
	t.Helper()
	wire, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded ProcessorState
	if err := json.Unmarshal(wire, &decoded); err != nil {
		t.Fatal(err)
	}
	p, err := RestoreProcessor(m, cfg, decoded)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestProcessorStateRoundTrip is the replica-handoff guarantee: a
// processor drained mid-stream (with the refutation window half full
// and the detectors mid-phase) and restored through a JSON round trip
// must be indistinguishable from one that never stopped — byte-identical
// Stats at the handoff point and identical events ever after. The cut
// runs over every offset of one refutation window, plus one cut in a
// later window, past the drift shift.
func TestProcessorStateRoundTrip(t *testing.T) {
	tree := trainTree(t, perfData(1200, 5))
	cfg := stateTestConfig()
	samples := traceSamples(t, 400, 200, 300, 0.4, 7)

	const windowStart = 208 // mid first phase
	var cuts []int
	for off := 0; off < refute.WindowSections; off++ {
		cuts = append(cuts, windowStart+off)
	}
	cuts = append(cuts, 311)

	control, err := NewProcessor(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantEvents := ingestAll(t, control, samples)
	wantStats, err := json.Marshal(control.Stats())
	if err != nil {
		t.Fatal(err)
	}

	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			a, err := NewProcessor(tree, cfg)
			if err != nil {
				t.Fatal(err)
			}
			firstEvents := ingestAll(t, a, samples[:cut])

			st := a.State()
			if st.Refutation == nil || st.Refutation.WindowSamples != uint64(cut%refute.WindowSections) {
				t.Fatalf("snapshot's refutation state %+v, want an open window of %d samples",
					st.Refutation, cut%refute.WindowSections)
			}
			b := restoreVia(t, tree, cfg, st)

			// Stats byte-identical at the handoff point.
			sa, errA := json.Marshal(a.Stats())
			sb, errB := json.Marshal(b.Stats())
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			if !bytes.Equal(sa, sb) {
				t.Fatalf("Stats diverged across restore:\n  drained:  %s\n  restored: %s", sa, sb)
			}

			gotEvents := append(firstEvents, ingestAll(t, b, samples[cut:])...)
			if len(gotEvents) != len(wantEvents) {
				t.Fatalf("restored run emitted %d events, uninterrupted run %d", len(gotEvents), len(wantEvents))
			}
			for i := range gotEvents {
				if !reflect.DeepEqual(gotEvents[i], wantEvents[i]) {
					t.Fatalf("event %d diverged after restore:\n  got  %+v\n  want %+v", i, gotEvents[i], wantEvents[i])
				}
			}

			// Final Stats must match the uninterrupted run too.
			sb2, _ := json.Marshal(b.Stats())
			if !bytes.Equal(wantStats, sb2) {
				t.Fatalf("final Stats diverged:\n  control:  %s\n  restored: %s", wantStats, sb2)
			}
		})
	}
}

// TestRestoreProcessorRejectsBadState pins the detectable-mismatch
// errors: a wire version other than the current one, a missing
// refutation block while checking is on, a negative drift-detector
// count and a debounce ring of the wrong width.
func TestRestoreProcessorRejectsBadState(t *testing.T) {
	tree := trainTree(t, perfData(1200, 5))
	cfg := stateTestConfig()

	p, err := NewProcessor(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	samples := traceSamples(t, 10, 5, 999, 0, 11)
	ingestAll(t, p, samples)
	good := p.State()

	for _, v := range []int{1, 2, 99} {
		bad := good
		bad.SchemaVersion = v
		if _, err := RestoreProcessor(tree, cfg, bad); err == nil {
			t.Errorf("schema version %d accepted", v)
		}
	}

	bad := good
	bad.Refutation = nil
	if _, err := RestoreProcessor(tree, cfg, bad); err == nil {
		t.Error("a dump without refutation state accepted by a checking processor")
	}
	noRefute := cfg
	noRefute.Refute.Disabled = true
	if _, err := RestoreProcessor(tree, noRefute, bad); err != nil {
		t.Errorf("a dump without refutation state rejected with checking off: %v", err)
	}

	bad = good
	bad.PH.N = -1
	if _, err := RestoreProcessor(tree, cfg, bad); err == nil {
		t.Error("negative drift-detector count accepted")
	}

	if good.Phases.Stream != nil {
		bad = good
		trimmed := *good.Phases.Stream
		trimmed.Recent = trimmed.Recent[:len(trimmed.Recent)-1]
		bad.Phases.Stream = &trimmed
		if _, err := RestoreProcessor(tree, cfg, bad); err == nil {
			t.Error("debounce ring width mismatch accepted")
		}
	}
}

// TestProcessorStateSizeBounded: a session's serialized state does not
// grow with the phase boundaries it crosses. After 10k samples of a
// trace that changes phase every 50 sections it is within a small
// constant (a few more digits in its counters) of its size after 1k.
func TestProcessorStateSizeBounded(t *testing.T) {
	tree := trainTree(t, perfData(1200, 5))
	p, err := NewProcessor(tree, stateTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int
	for _, n := range []int{1000, 10000} {
		for i := int(p.Stats().Scored); i < n; i++ {
			a := float64((i / 50) % 2)
			cpi := 0.7 + 0.5*a
			s := Sample{Bench: "multi", Section: i, CPI: &cpi, Events: map[string]float64{
				"L1IM":    0.012 - 0.009*a + 0.0005*float64(i%7)/7,
				"L2M":     0.0008 + 0.0034*a + 0.0001*float64(i%5)/5,
				"DtlbLdM": 0.0001 + 0.0005*a + 0.00002*float64(i%3)/3,
			}}
			if _, err := ingest(p, s); err != nil {
				t.Fatal(err)
			}
		}
		wire, err := json.Marshal(p.State())
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(wire))
	}
	t.Logf("state is %d bytes after 1k samples, %d after 10k", sizes[0], sizes[1])
	if b := p.Stats().PhaseBoundaries; b < 100 {
		t.Fatalf("fixture: %d phase boundaries over 10k samples, want a multi-phase trace", b)
	}
	if grow := sizes[1] - sizes[0]; grow > 64 {
		t.Errorf("state grew %d bytes from 1k to 10k samples (%d -> %d), want at most 64", grow, sizes[0], sizes[1])
	}
}
