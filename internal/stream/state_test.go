package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

func stateTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Jobs = 1
	cfg.Window = 16
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

// ingestAll feeds samples one at a time, checking the pending-window
// invariants after every ingest: fewer than Window samples wait, and
// every accepted sample is either scored or pending.
func ingestAll(t *testing.T, p *Processor, samples []Sample) []Event {
	t.Helper()
	var events []Event
	for _, s := range samples {
		evs, err := p.Ingest(s)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, evs...)
		st := p.Stats()
		if st.Depth >= p.cfg.Window {
			t.Fatalf("depth %d after ingest, want < window %d", st.Depth, p.cfg.Window)
		}
		if st.Accepted != st.Scored+uint64(st.Depth) {
			t.Fatalf("accepted %d != scored %d + depth %d", st.Accepted, st.Scored, st.Depth)
		}
	}
	return events
}

// TestProcessorStateRoundTrip is the replica-handoff guarantee: a
// processor drained mid-stream (with samples still pending and the
// detectors mid-phase) and restored through a JSON round trip must be
// indistinguishable from one that never stopped — byte-identical Stats
// at the handoff point and identical events ever after. The cut runs
// over every offset of one window, so every pending length from 0 to
// Window-1 is drained and restored in order, plus one cut in a later
// window, past the drift shift.
func TestProcessorStateRoundTrip(t *testing.T) {
	tree := trainTree(t, perfData(1200, 5))
	cfg := stateTestConfig()
	samples := traceSamples(t, 400, 200, 300, 0.4, 7)

	control, err := NewProcessor(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantEvents := ingestAll(t, control, samples)
	wantStats, err := json.Marshal(control.Stats())
	if err != nil {
		t.Fatal(err)
	}

	const windowStart = 208 // 13 windows in, mid first phase
	var cuts []int
	for off := 0; off < cfg.Window; off++ {
		cuts = append(cuts, windowStart+off)
	}
	cuts = append(cuts, 311)

	for _, cut := range cuts {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			a, err := NewProcessor(tree, cfg)
			if err != nil {
				t.Fatal(err)
			}
			firstEvents := ingestAll(t, a, samples[:cut])

			st := a.State()
			if len(st.Pending) != cut%cfg.Window {
				t.Fatalf("snapshot has %d pending samples, want %d", len(st.Pending), cut%cfg.Window)
			}
			for i, s := range st.Pending {
				if want := samples[cut-len(st.Pending)+i].Section; s.Section != want {
					t.Fatalf("pending[%d] is section %d, want %d", i, s.Section, want)
				}
			}
			wire, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			var decoded ProcessorState
			if err := json.Unmarshal(wire, &decoded); err != nil {
				t.Fatal(err)
			}

			b, err := RestoreProcessor(tree, cfg, decoded)
			if err != nil {
				t.Fatal(err)
			}

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
// errors: wrong wire version, a full window of pending samples, a
// non-zero drop count, schema mismatch, and a debounce ring of the
// wrong width. Window-1 pending samples are the most a processor can
// hold, so they restore and the next ingest scores the window.
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

	bad := good
	bad.SchemaVersion = 99
	if _, err := RestoreProcessor(tree, cfg, bad); err == nil {
		t.Error("wrong schema version accepted")
	}

	full := good
	full.Pending = make([]Sample, cfg.Window)
	for i := range full.Pending {
		full.Pending[i] = samples[0]
	}
	if _, err := RestoreProcessor(tree, cfg, full); err == nil {
		t.Error("a full window of pending samples accepted")
	}

	almost := full
	almost.Pending = full.Pending[:cfg.Window-1]
	q, err := RestoreProcessor(tree, cfg, almost)
	if err != nil {
		t.Fatalf("window-1 pending samples rejected: %v", err)
	}
	evs, err := q.Ingest(samples[0])
	if err != nil {
		t.Fatal(err)
	}
	if st := q.Stats(); st.Depth != 0 || st.Scored != good.Scored+uint64(cfg.Window) || len(evs) == 0 {
		t.Errorf("ingest after a window-1 restore: depth %d, scored %d, %d events; want the window scored",
			st.Depth, st.Scored, len(evs))
	}

	bad = good
	bad.Dropped = 1
	if _, err := RestoreProcessor(tree, cfg, bad); err == nil {
		t.Error("non-zero dropped count accepted")
	}

	bad = good
	bad.Pending = []Sample{{Bench: "x", Section: 0, Events: map[string]float64{"NoSuchEvent": 1}}}
	if _, err := RestoreProcessor(tree, cfg, bad); err == nil {
		t.Error("schema-mismatched pending sample accepted")
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
