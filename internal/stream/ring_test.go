package stream

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func recordN(i int) Record {
	return Record{Section: i, Row: []float64{float64(i)}}
}

func TestRingFIFO(t *testing.T) {
	r := NewRing(4, Block)
	for i := 0; i < 3; i++ {
		if err := r.Push(recordN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if r.Depth() != 3 {
		t.Fatalf("depth %d", r.Depth())
	}
	for i := 0; i < 3; i++ {
		s, ok := r.TryPop()
		if !ok || s.Section != i {
			t.Fatalf("pop %d: %v %v", i, s, ok)
		}
	}
	if _, ok := r.TryPop(); ok {
		t.Fatal("pop from empty ring succeeded")
	}
}

func TestRingDropOldest(t *testing.T) {
	r := NewRing(3, DropOldest)
	for i := 0; i < 5; i++ {
		if err := r.Push(recordN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Dropped(); got != 2 {
		t.Errorf("dropped %d, want 2", got)
	}
	got := r.PopN(10)
	if len(got) != 3 || got[0].Section != 2 || got[2].Section != 4 {
		t.Errorf("kept %v, want sections 2..4", got)
	}
}

func TestRingReject(t *testing.T) {
	r := NewRing(2, Reject)
	for i := 0; i < 2; i++ {
		if err := r.Push(recordN(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Push(recordN(2)); !errors.Is(err, ErrFull) {
		t.Fatalf("push to full reject ring: %v", err)
	}
	if r.Dropped() != 0 {
		t.Error("reject counted a drop")
	}
	r.TryPop()
	if err := r.Push(recordN(3)); err != nil {
		t.Errorf("push after drain: %v", err)
	}
}

// TestRingBlockBackpressure runs a slow consumer against a fast
// producer: Block must stall the producer, lose nothing and preserve
// order.
func TestRingBlockBackpressure(t *testing.T) {
	r := NewRing(2, Block)
	const n = 50
	var got []int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			s, ok := r.Pop()
			if !ok {
				return
			}
			got = append(got, s.Section)
			time.Sleep(100 * time.Microsecond)
		}
	}()
	for i := 0; i < n; i++ {
		if err := r.Push(recordN(i)); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	wg.Wait()
	if len(got) != n {
		t.Fatalf("consumer saw %d samples, want %d", len(got), n)
	}
	for i, s := range got {
		if s != i {
			t.Fatalf("order violated at %d: %v", i, s)
		}
	}
	if r.Dropped() != 0 {
		t.Error("block policy dropped samples")
	}
}

func TestRingCloseUnblocksAndRejects(t *testing.T) {
	r := NewRing(1, Block)
	if err := r.Push(recordN(0)); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- r.Push(recordN(1)) // blocks: ring is full
	}()
	time.Sleep(5 * time.Millisecond)
	r.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("blocked push after close: %v", err)
	}
	// Buffered sample still drains; then Pop reports closed.
	if s, ok := r.Pop(); !ok || s.Section != 0 {
		t.Fatalf("drain after close: %v %v", s, ok)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("pop on closed empty ring succeeded")
	}
	if err := r.Push(recordN(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("push on closed ring: %v", err)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{
		{"block", Block}, {"drop-oldest", DropOldest}, {"reject", Reject},
	} {
		p, err := ParsePolicy(tc.in)
		if err != nil || p != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v", tc.in, p, err)
		}
		if p.String() != tc.in {
			t.Errorf("round trip %q -> %q", tc.in, p.String())
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("unknown policy accepted")
	}
}
