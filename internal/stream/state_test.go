package stream

import (
	"bytes"
	"encoding/json"
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

func ingestAll(t *testing.T, p *Processor, samples []Sample) []Event {
	t.Helper()
	var events []Event
	for _, s := range samples {
		evs, err := p.Ingest(s)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, evs...)
	}
	return events
}

// TestProcessorStateRoundTrip is the replica-handoff guarantee: a
// processor drained mid-stream (with samples still buffered and the
// detectors mid-phase) and restored through a JSON round trip must be
// indistinguishable from one that never stopped — byte-identical Stats
// at the handoff point and identical events ever after.
func TestProcessorStateRoundTrip(t *testing.T) {
	tree := trainTree(t, perfData(1200, 5))
	cfg := stateTestConfig()
	samples := traceSamples(t, 400, 200, 300, 0.4, 7)

	// cut mid-window so the snapshot carries pending unscored samples.
	const cut = 217

	control, err := NewProcessor(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantEvents := ingestAll(t, control, samples)

	a, err := NewProcessor(tree, cfg)
	if err != nil {
		t.Fatal(err)
	}
	firstEvents := ingestAll(t, a, samples[:cut])

	st := a.State()
	if len(st.Pending) != cut%cfg.Window {
		t.Fatalf("snapshot has %d pending samples, want %d", len(st.Pending), cut%cfg.Window)
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
	sc, _ := json.Marshal(control.Stats())
	sb2, _ := json.Marshal(b.Stats())
	if !bytes.Equal(sc, sb2) {
		t.Fatalf("final Stats diverged:\n  control:  %s\n  restored: %s", sc, sb2)
	}
}

// TestRestoreProcessorRejectsBadState pins the detectable-mismatch
// errors: wrong wire version, pending overflow, schema mismatch, and a
// debounce ring of the wrong width.
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

	bad = good
	bad.Pending = make([]Sample, cfg.Buffer+1)
	for i := range bad.Pending {
		bad.Pending[i] = samples[0]
	}
	if _, err := RestoreProcessor(tree, cfg, bad); err == nil {
		t.Error("oversized pending buffer accepted")
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

// TestRingSnapshotRestore pins the ring's wrap-around ordering: a ring
// that has wrapped must snapshot oldest-first and restore to the same
// logical contents.
func TestRingSnapshotRestore(t *testing.T) {
	r := NewRing(4, DropOldest)
	for i := 0; i < 7; i++ { // wraps: 3,4,5,6 remain, 3 dropped
		if err := r.Push(Record{Section: i}); err != nil {
			t.Fatal(err)
		}
	}
	pending, dropped := r.Snapshot()
	if dropped != 3 {
		t.Fatalf("dropped %d, want 3", dropped)
	}
	want := []int{3, 4, 5, 6}
	if len(pending) != len(want) {
		t.Fatalf("snapshot has %d samples, want %d", len(pending), len(want))
	}
	for i, s := range pending {
		if s.Section != want[i] {
			t.Fatalf("snapshot[%d].Section = %d, want %d", i, s.Section, want[i])
		}
	}

	r2 := NewRing(4, DropOldest)
	if err := r2.restore(pending, dropped); err != nil {
		t.Fatal(err)
	}
	p2, d2 := r2.Snapshot()
	if d2 != dropped || !reflect.DeepEqual(p2, pending) {
		t.Fatalf("restored ring diverged: %+v dropped %d", p2, d2)
	}
	if r2.Depth() != 4 {
		t.Fatalf("restored depth %d, want 4", r2.Depth())
	}

	if err := r2.restore(make([]Record, 5), 0); err == nil {
		t.Fatal("restore over capacity accepted")
	}
}
