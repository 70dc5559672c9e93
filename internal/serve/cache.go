package serve

import (
	"math"
	"math/bits"
	"sync"

	"repro/internal/dataset"
)

// PredictionCache is a bounded cache from (model ref, feature vector) to a
// predicted value with clock (second-chance) eviction. Tree prediction is
// already cheap — a handful of comparisons plus a dot product — so a probe
// has to cost about as much as that to be worth having. Each row is keyed
// exactly once: rowHash folds the model ref and every value's bit pattern
// into one fixed-seed 64-bit hash, computed outside any lock, and the
// stripe choice, the probe and the insert all reuse it. A probe then takes
// one stripe's mutex for one map lookup and one row compare, and
// allocates nothing.
//
// The cache is lock-striped: the hash's top bits pick one of up to 16
// independently locked stripes, so concurrent requests contend only when
// their rows land on the same stripe, and only for one row's probe or
// insert. Each stripe indexes a flat ring of slots by hash; its clock
// hand sweeps the ring and reclaims the first slot not referenced since
// its last pass, reusing the slot's row buffer, so steady-state inserts
// allocate nothing. Small caches stay on one stripe, which keeps the
// clock sweep global and eviction order exactly what a capacity-N clock
// would do; capacity splits across stripes as evenly as possible
// (remainders go to the low stripes), so the configured bound is exact.
//
// A hit requires the same ref and the same bits for every value, so a
// hash collision is a miss (the newer row takes the slot), never a wrong
// value, and caching can never change a response.
type PredictionCache struct {
	stripes []cacheStripe
	shift   uint // hash >> shift is the stripe index
	cap     int
}

// cacheStripe is one independently locked clock cache over a slice of the
// capacity.
type cacheStripe struct {
	mu           sync.Mutex
	index        map[uint64]int32 // row hash -> slot
	slots        []cacheSlot      // the ring the clock hand sweeps
	hand         int
	hits, misses uint64
}

// cacheSlot is one cached row.
type cacheSlot struct {
	hash uint64
	ref  string    // the registry's ref string, shared, not copied
	row  []float64 // owned copy of the row; the next entry reuses it
	val  float64
	used bool // referenced since the hand last passed
}

// cacheStripeFloor is the smallest per-stripe capacity worth striping
// for: tiny caches keep exact global clock eviction on fewer (or one)
// stripes, and stripes never round down to zero slots.
const cacheStripeFloor = 64

// NewPredictionCache creates a cache bounded to capacity entries.
// Capacity must be positive; callers disable caching by not constructing
// one (a nil *PredictionCache reports empty Stats).
func NewPredictionCache(capacity int) *PredictionCache {
	if capacity < 1 {
		capacity = 1
	}
	n := 16
	for n > 1 && capacity/n < cacheStripeFloor {
		n >>= 1
	}
	c := &PredictionCache{
		stripes: make([]cacheStripe, n),
		shift:   uint(64 - bits.TrailingZeros(uint(n))),
		cap:     capacity,
	}
	base, extra := capacity/n, capacity%n
	for i := range c.stripes {
		sc := base
		if i < extra {
			sc++
		}
		c.stripes[i].index = make(map[uint64]int32, sc)
		c.stripes[i].slots = make([]cacheSlot, 0, sc)
	}
	return c
}

// Multipliers of xxHash64, whose round and final avalanche rowHash uses.
const (
	hashPrime1 = 0x9e3779b185ebca87
	hashPrime2 = 0xc2b2ae3d27d4eb4f
	hashPrime3 = 0x165667b19e3779f9
)

// refHash is the hash state after the model ref: a request hashes its ref
// once and hands the result to rowHash for each row.
func refHash(ref string) uint64 {
	h := uint64(hashPrime3)
	for i := 0; i < len(ref); i++ {
		h = (h ^ uint64(ref[i])) * hashPrime1
	}
	return h
}

// rowHash is the row's cache hash: one xxHash64 round per value's
// Float64bits on top of seed (see refHash), then xxHash64's avalanche so
// the top bits that pick the stripe depend on every value. Unlike the
// runtime's map seed it is fixed, so a row lands on one stripe in every run.
func rowHash(seed uint64, row dataset.Instance) uint64 {
	h := seed
	for _, v := range row {
		h = bits.RotateLeft64(h+math.Float64bits(v)*hashPrime2, 31) * hashPrime1
	}
	h = (h ^ h>>33) * hashPrime2
	h = (h ^ h>>29) * hashPrime3
	return h ^ h>>32
}

// get looks up the row hashed to h under ref, marking its slot recently
// used on a hit and counting one hit or miss.
func (c *PredictionCache) get(h uint64, ref string, row dataset.Instance) (float64, bool) {
	st := &c.stripes[h>>c.shift]
	st.mu.Lock()
	defer st.mu.Unlock()
	if i, ok := st.index[h]; ok {
		if s := &st.slots[i]; s.ref == ref && sameBits(s.row, row) {
			s.used = true
			st.hits++
			return s.val, true
		}
	}
	st.misses++
	return 0, false
}

// put inserts or refreshes the row hashed to h under ref. A row whose
// hash collides with a different cached row takes over that row's slot.
func (c *PredictionCache) put(h uint64, ref string, row dataset.Instance, val float64) {
	st := &c.stripes[h>>c.shift]
	st.mu.Lock()
	defer st.mu.Unlock()
	i, refresh := st.index[h]
	if !refresh {
		i = st.victim()
		st.index[h] = i
	}
	s := &st.slots[i]
	s.hash, s.ref, s.row, s.val, s.used = h, ref, append(s.row[:0], row...), val, refresh
}

// victim returns the slot for a new entry: the next unused one while the
// ring fills, then — second chance — the first slot the clock hand finds
// unreferenced since its last pass, stripping the reference bit of every
// slot it skips, and dropping the victim's index entry. Bounded: after
// one full sweep every bit is clear. The caller holds st.mu.
func (st *cacheStripe) victim() int32 {
	if n := len(st.slots); n < cap(st.slots) {
		st.slots = st.slots[:n+1]
		return int32(n)
	}
	for {
		i := st.hand
		st.hand = (st.hand + 1) % len(st.slots)
		if s := &st.slots[i]; s.used {
			s.used = false
		} else {
			delete(st.index, s.hash)
			return int32(i)
		}
	}
}

// sameBits compares value bits, so -0 and +0 differ.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Stats returns the hit/miss counters and the current size, summed over
// the stripes.
func (c *PredictionCache) Stats() (hits, misses uint64, size int) {
	if c == nil {
		return 0, 0, 0
	}
	for i := range c.stripes {
		st := &c.stripes[i]
		st.mu.Lock()
		hits, misses, size = hits+st.hits, misses+st.misses, size+len(st.index)
		st.mu.Unlock()
	}
	return hits, misses, size
}

// Cap returns the configured total capacity.
func (c *PredictionCache) Cap() int {
	if c == nil {
		return 0
	}
	return c.cap
}
