package serve

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
)

// PredictionCache is a bounded cache from (model ref, feature vector) to a
// predicted value with clock (second-chance) eviction. Tree prediction is
// already cheap — a handful of comparisons plus a dot product — so the hit
// path has to be cheaper still to be worth having: it takes one shard's
// read lock, one map probe and two atomic operations, with no per-hit list
// surgery or allocation. Evictions approximate LRU: each shard's clock
// hand sweeps its entry ring and reclaims the first entry not referenced
// since its last pass.
//
// The cache is lock-striped: keys route to a power-of-two number of
// independently locked shards by an FNV-1a hash of the key, so
// concurrent inserts and refreshes contend only when they collide on a
// shard. Small caches stay single-shard, which keeps the clock sweep
// global and eviction order exactly what a capacity-N clock would do;
// capacity splits across shards as evenly as possible (remainders go to
// the low shards), so the configured bound is exact.
//
// Keys are built by AppendKey from the exact bit patterns of the feature
// values, so a hit is only possible for a bit-identical input and
// caching can never change a response.
type PredictionCache struct {
	shards []*cacheShard
	mask   uint32
	cap    int
}

// cacheShard is one independently locked clock cache over a slice of the
// capacity.
type cacheShard struct {
	mu           sync.RWMutex
	cap          int
	ring         []*cacheEntry // insertion ring the clock hand sweeps
	hand         int
	items        map[string]*cacheEntry
	hits, misses atomic.Uint64
}

type cacheEntry struct {
	key  string
	bits atomic.Uint64 // Float64bits of the cached prediction
	ref  atomic.Bool   // referenced since the hand last passed
}

// cacheShardFloor is the smallest per-shard capacity worth striping for:
// below it the cache stays on fewer (or one) shards, so tiny caches keep
// exact global clock eviction and shards never round down to zero slots.
const cacheShardFloor = 64

// NewPredictionCache creates a cache bounded to capacity entries.
// Capacity must be positive; callers disable caching by not constructing
// one (a nil *PredictionCache is inert).
func NewPredictionCache(capacity int) *PredictionCache {
	if capacity < 1 {
		capacity = 1
	}
	n := 16
	for n > 1 && capacity/n < cacheShardFloor {
		n >>= 1
	}
	c := &PredictionCache{
		shards: make([]*cacheShard, n),
		mask:   uint32(n - 1),
		cap:    capacity,
	}
	base, extra := capacity/n, capacity%n
	for i := range c.shards {
		sc := base
		if i < extra {
			sc++
		}
		c.shards[i] = &cacheShard{
			cap:   sc,
			ring:  make([]*cacheEntry, 0, sc),
			items: make(map[string]*cacheEntry, sc),
		}
	}
	return c
}

func (c *PredictionCache) shardFor(key []byte) *cacheShard {
	return c.shards[fnv1a(key)&c.mask]
}

// fnv1a is the 32-bit FNV-1a hash of key: fixed, unlike the runtime's
// per-process map seed, so a key lands on the same shard in every run.
func fnv1a(key []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	return h
}

// GetBytes looks up a key built by AppendKey, marking it recently used
// on a hit. The string conversion happens inside the map index
// expression, which the compiler performs without copying, so a lookup
// allocates nothing. A nil cache always misses without counting.
func (c *PredictionCache) GetBytes(key []byte) (float64, bool) {
	if c == nil {
		return 0, false
	}
	sh := c.shardFor(key)
	sh.mu.RLock()
	e, ok := sh.items[string(key)]
	sh.mu.RUnlock()
	if !ok {
		sh.misses.Add(1)
		return 0, false
	}
	e.ref.Store(true)
	sh.hits.Add(1)
	return math.Float64frombits(e.bits.Load()), true
}

// PutBytes inserts or refreshes a key built by AppendKey, evicting an
// entry second-chance style when the shard is full. The refresh path
// allocates nothing; only a genuine insert copies the key into an owned
// string. A nil cache ignores the call.
func (c *PredictionCache) PutBytes(key []byte, val float64) {
	if c == nil {
		return
	}
	sh := c.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.items[string(key)]; ok {
		e.bits.Store(math.Float64bits(val))
		e.ref.Store(true)
		return
	}
	sh.insert(string(key), val)
}

// insert adds a new entry (caller holds the shard's write lock and has
// ruled out a refresh), reclaiming a ring slot from the clock hand when
// the shard is full.
func (sh *cacheShard) insert(key string, val float64) {
	e := &cacheEntry{key: key}
	e.bits.Store(math.Float64bits(val))
	if len(sh.ring) < sh.cap {
		sh.ring = append(sh.ring, e)
		sh.items[key] = e
		return
	}
	// Second chance: skip (and strip the reference bit of) every entry
	// used since the hand last came by; evict the first one that was not.
	// Bounded: after one full sweep every bit is clear.
	for {
		v := sh.ring[sh.hand]
		if v.ref.Load() {
			v.ref.Store(false)
			sh.hand = (sh.hand + 1) % sh.cap
			continue
		}
		delete(sh.items, v.key)
		sh.ring[sh.hand] = e
		sh.items[key] = e
		sh.hand = (sh.hand + 1) % sh.cap
		return
	}
}

// Stats returns the hit/miss counters and the current size, summed over
// the shards.
func (c *PredictionCache) Stats() (hits, misses uint64, size int) {
	if c == nil {
		return 0, 0, 0
	}
	for _, sh := range c.shards {
		sh.mu.RLock()
		size += len(sh.items)
		sh.mu.RUnlock()
		hits += sh.hits.Load()
		misses += sh.misses.Load()
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

// AppendKey appends the cache key for one instance under one model to dst
// and returns the extended slice: the model reference, a NUL separator,
// then the 8-byte bit pattern of each value. Bit patterns — not formatted
// decimals — keep the key exact, compact, and collision-free. Callers on
// the hot path hand in a stack scratch buffer and pass the result
// straight to GetBytes/PutBytes, so keying a request allocates nothing.
func AppendKey(dst []byte, modelRef string, row dataset.Instance) []byte {
	dst = append(dst, modelRef...)
	dst = append(dst, 0)
	var scratch [8]byte
	for _, v := range row {
		binary.LittleEndian.PutUint64(scratch[:], math.Float64bits(v))
		dst = append(dst, scratch[:]...)
	}
	return dst
}
