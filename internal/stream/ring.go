package stream

import (
	"errors"
	"fmt"
	"sync"
)

// Policy selects what Push does when the ring is full. The choice is the
// classic streaming triage: make the producer wait (Block), keep the
// freshest data (DropOldest), or keep the oldest and refuse new work
// (Reject).
type Policy int

const (
	// Block makes Push wait until a consumer frees a slot — lossless
	// backpressure, the right mode when the producer can stall (a pipe,
	// a file tail).
	Block Policy = iota
	// DropOldest evicts the oldest buffered sample to admit the new one,
	// counting the eviction — the right mode for live monitoring, where
	// a stale sample is worth less than a fresh one.
	DropOldest
	// Reject refuses the new sample with ErrFull, leaving the buffer
	// untouched — the right mode when the producer can retry or shed
	// load itself (an HTTP client seeing 429-like pushback).
	Reject
)

// String returns the flag-friendly policy name.
func (p Policy) String() string {
	switch p {
	case Block:
		return "block"
	case DropOldest:
		return "drop-oldest"
	case Reject:
		return "reject"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// ParsePolicy parses a flag-friendly policy name.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return Block, nil
	case "drop-oldest":
		return DropOldest, nil
	case "reject":
		return Reject, nil
	}
	return 0, fmt.Errorf("stream: unknown backpressure policy %q (want block, drop-oldest or reject)", s)
}

// ErrFull is returned by Push under the Reject policy when the ring has
// no free slot.
var ErrFull = errors.New("stream: ring full")

// ErrClosed is returned by Push after Close.
var ErrClosed = errors.New("stream: ring closed")

// Ring is a bounded FIFO of sample records with an explicit overflow policy.
// It is safe for concurrent producers and consumers; the synchronous
// drivers in this package use it single-threaded, where it still
// provides the depth bound and drop accounting.
type Ring struct {
	mu       sync.Mutex
	notFull  sync.Cond
	notEmpty sync.Cond
	policy   Policy
	buf      []Record
	head     int // index of the oldest element
	n        int // elements buffered
	dropped  uint64
	closed   bool
}

// NewRing creates a ring with the given capacity (minimum 1) and policy.
func NewRing(capacity int, policy Policy) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	r := &Ring{policy: policy, buf: make([]Record, capacity)}
	r.notFull.L = &r.mu
	r.notEmpty.L = &r.mu
	return r
}

// Cap returns the ring capacity.
func (r *Ring) Cap() int { return len(r.buf) }

// Depth returns the number of buffered samples.
func (r *Ring) Depth() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Dropped returns the number of samples evicted under DropOldest.
func (r *Ring) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Push appends a sample, applying the overflow policy when full. It
// returns ErrFull under Reject, ErrClosed after Close, and nil
// otherwise.
func (r *Ring) Push(s Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.n == len(r.buf) {
		switch r.policy {
		case DropOldest:
			r.head = (r.head + 1) % len(r.buf)
			r.n--
			r.dropped++
		case Reject:
			return ErrFull
		default: // Block
			if r.closed {
				return ErrClosed
			}
			r.notFull.Wait()
		}
	}
	if r.closed {
		return ErrClosed
	}
	r.buf[(r.head+r.n)%len(r.buf)] = s
	r.n++
	r.notEmpty.Signal()
	return nil
}

// TryPop removes and returns the oldest sample without blocking.
func (r *Ring) TryPop() (Record, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.popLocked()
}

// Pop removes and returns the oldest sample, waiting for one if the
// ring is empty; ok is false once the ring is closed and drained.
func (r *Ring) Pop() (Record, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.n == 0 && !r.closed {
		r.notEmpty.Wait()
	}
	return r.popLocked()
}

func (r *Ring) popLocked() (Record, bool) {
	if r.n == 0 {
		return Record{}, false
	}
	s := r.buf[r.head]
	r.buf[r.head] = Record{} // release references
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	r.notFull.Signal()
	return s, true
}

// PopN removes and returns up to max samples (oldest first) without
// blocking.
func (r *Ring) PopN(max int) []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	if max > r.n {
		max = r.n
	}
	if max <= 0 {
		return nil
	}
	out := make([]Record, 0, max)
	for len(out) < max {
		s, _ := r.popLocked()
		out = append(out, s)
	}
	return out
}

// Close marks the ring closed: pending and future Push calls fail with
// ErrClosed, blocked Pop calls drain what is buffered and then return
// ok=false.
func (r *Ring) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	r.notFull.Broadcast()
	r.notEmpty.Broadcast()
}
