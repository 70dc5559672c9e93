package trace_test

import (
	"testing"

	"repro/internal/proptest"
	"repro/internal/sim/trace"
)

// funcStream adapts a generator function to Stream; it has no
// NextBlock, so Blocked must wrap it.
type funcStream func(*trace.Inst) bool

func (f funcStream) Next(in *trace.Inst) bool { return f(in) }

// drain pulls every record from a Stream.
func drain(s trace.Stream) []trace.Inst {
	var out []trace.Inst
	var in trace.Inst
	for s.Next(&in) {
		out = append(out, in)
	}
	return out
}

// drainBlocks pulls every record through the BlockStream interface with
// the given buffer size.
func drainBlocks(bs trace.BlockStream, bufLen int) []trace.Inst {
	var out []trace.Inst
	buf := make([]trace.Inst, bufLen)
	for {
		n := bs.NextBlock(buf)
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

func sameInsts(t *testing.T, label string, a, b []trace.Inst) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d records", label, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: record %d differs: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

// TestStreamAdapterLaws: every adapter (SliceStream block mode, Blocked)
// reproduces the exact record sequence of the plain
// one-at-a-time stream, at any block size.
func TestStreamAdapterLaws(t *testing.T) {
	proptest.Run(t, "stream-adapter-laws", 25, func(t *testing.T, r *proptest.Rand) {
		insts := proptest.Insts(r, r.IntBetween(0, 600))
		bufLen := r.IntBetween(1, 300)

		want := drain(&trace.SliceStream{Insts: insts})
		if len(want) != len(insts) {
			t.Fatalf("SliceStream dropped records: %d vs %d", len(want), len(insts))
		}

		sameInsts(t, "SliceStream.NextBlock",
			want, drainBlocks(&trace.SliceStream{Insts: insts}, bufLen))

		// Blocked over a non-BlockStream producer (funcStream) must wrap
		// with the per-record loop and preserve order.
		i := 0
		fs := funcStream(func(in *trace.Inst) bool {
			if i >= len(insts) {
				return false
			}
			*in = insts[i]
			i++
			return true
		})
		sameInsts(t, "Blocked(funcStream)", want, drainBlocks(trace.Blocked(fs), bufLen))

		// Blocked over a BlockStream must return it unchanged.
		ss := &trace.SliceStream{Insts: insts}
		if trace.Blocked(ss) != trace.BlockStream(ss) {
			t.Fatal("Blocked re-wrapped a BlockStream")
		}
	})
}
