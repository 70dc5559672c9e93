// Package trace defines the dynamic instruction representation consumed by
// the CPU timing model and produced by the workload generators. An
// instruction stream is pulled one record at a time, so multi-billion
// instruction executions never materialize in memory.
package trace

// Kind classifies a dynamic instruction.
type Kind uint8

const (
	// Other covers ALU/FP/move instructions with no memory or control
	// side effects relevant to the model.
	Other Kind = iota
	// Load is a memory read.
	Load
	// Store is a memory write.
	Store
	// Branch is a conditional or unconditional control transfer.
	Branch
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case Branch:
		return "branch"
	default:
		return "other"
	}
}

// Inst is one dynamic instruction record.
type Inst struct {
	// Kind classifies the instruction.
	Kind Kind
	// PC is the instruction address (drives L1I/ITLB behaviour).
	PC uint64
	// Addr is the effective address for loads and stores.
	Addr uint64
	// Size is the access size in bytes for loads and stores.
	Size uint8
	// Taken and Target describe branch outcomes.
	Taken  bool
	Target uint64
	// DepDist is the distance (in instructions) from this instruction to
	// its first consumer: 0 means no nearby consumer (independent work
	// follows, so the out-of-order core can hide latency), small values
	// mean a tight dependency chain (latency is exposed). Workload
	// generators set this from their dependency profile.
	DepDist uint8
	// LCP marks an instruction whose encoding carries a length-changing
	// prefix, causing a pre-decode stall (the paper's LCP event).
	LCP bool
	// Misaligned marks a memory access whose address is not naturally
	// aligned for its size.
	Misaligned bool
	// BlockSTA, BlockSTD and BlockOverlap mark loads that are blocked by,
	// respectively, an unresolved store address, unavailable store data,
	// and a partially overlapping earlier store (failed forwarding).
	BlockSTA, BlockSTD, BlockOverlap bool
}

// Stream produces instruction records. Next fills *Inst and reports false
// when the stream is exhausted.
type Stream interface {
	Next(*Inst) bool
}

// DefaultBlockLen is the batch size used by block-driven consumers (the
// CPU run loop and dataset collection): large enough to amortize one
// dynamic dispatch over hundreds of records, small enough that a block of
// Inst stays resident in the host's L1 data cache.
const DefaultBlockLen = 256

// BlockStream produces instruction records in batches. NextBlock fills a
// prefix of buf and returns how many records were written; 0 reports
// exhaustion. A producer may return short (non-zero) counts mid-stream;
// consumers keep calling until 0. Filling a caller-owned buffer keeps the
// consumer loop allocation-free and costs one dispatch per block instead
// of one per instruction.
type BlockStream interface {
	NextBlock(buf []Inst) int
}

// Blocked adapts a Stream to BlockStream. Streams that already implement
// BlockStream (e.g. workload generators) are returned as-is, so wrapping
// is free for the fast producers and a thin per-record loop otherwise.
func Blocked(s Stream) BlockStream {
	if bs, ok := s.(BlockStream); ok {
		return bs
	}
	return &blockedStream{s: s}
}

type blockedStream struct{ s Stream }

// NextBlock implements BlockStream by pulling records one at a time from
// the wrapped stream, preserving its exact record sequence.
func (b *blockedStream) NextBlock(buf []Inst) int {
	n := 0
	for n < len(buf) && b.s.Next(&buf[n]) {
		n++
	}
	return n
}

// SliceStream adapts a fixed instruction slice to Stream; used by tests.
type SliceStream struct {
	Insts []Inst
	pos   int
}

// Next implements Stream.
func (s *SliceStream) Next(in *Inst) bool {
	if s.pos >= len(s.Insts) {
		return false
	}
	*in = s.Insts[s.pos]
	s.pos++
	return true
}

// NextBlock implements BlockStream with one bulk copy per block.
func (s *SliceStream) NextBlock(buf []Inst) int {
	n := copy(buf, s.Insts[s.pos:])
	s.pos += n
	return n
}

// Reset rewinds the stream.
func (s *SliceStream) Reset() { s.pos = 0 }
