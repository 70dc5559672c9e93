// Package shard provides a generic lock-striped hash table with TTL
// eviction: the session-state backbone of the serving layer. One
// process-wide map behind one mutex serializes every access — at
// monitoring scale (millions of concurrent counter streams) the lock,
// not the work, becomes the bottleneck. A Table splits the key space
// across a power-of-two number of shards, each with its own mutex, map
// and hit/miss/evict counters, so operations on different keys contend
// only when they hash to the same shard (1/shards of the time) and a
// stalled holder of one shard cannot stop the other shards' traffic.
//
// Expiry is driven by an injectable clock: entries unused for TTL are
// evicted lazily on access and in periodic whole-table sweeps. Nothing
// in the table reads the real time directly, so tests (and the
// deterministic load-generation validation) can advance a fake clock
// and observe exact eviction counts.
//
// The shard assignment is a fixed FNV-1a hash, not the runtime's
// per-process map seed, so a key lands on the same shard in every run
// — tests can target a shard, and per-shard counters are comparable
// across runs.
package shard

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Hash is the table's shard-assignment hash: 32-bit FNV-1a over the
// key bytes. It is exported so sibling striped structures (the serve
// layer's prediction cache) stripe the same way.
func Hash(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// HashBytes is Hash for a key still in its scratch buffer.
func HashBytes(key []byte) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// NumShards rounds n up to a power of two (minimum 1), the shard-count
// normalization every striped structure in this repo shares.
func NumShards(n int) int {
	if n < 1 {
		return 1
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Options configures a Table.
type Options struct {
	// Shards is the stripe count, rounded up to a power of two.
	// 0 defaults to 16.
	Shards int
	// TTL evicts entries unused for this long; 0 disables expiry.
	TTL time.Duration
	// Now is the clock; nil defaults to time.Now. Tests inject a fake
	// clock to make eviction exact.
	Now func() time.Time
}

// Table is a lock-striped string-keyed map with TTL eviction.
type Table[V any] struct {
	shards    []tableShard[V]
	mask      uint32
	ttl       time.Duration
	now       func() time.Time
	lastSweep atomic.Int64 // unix nanos of the last sweep
}

type tableShard[V any] struct {
	mu    sync.Mutex
	items map[string]*entry[V]
	// Counters are guarded by mu: they are only touched by operations
	// that already hold the shard lock, so atomics would buy nothing.
	hits, misses, evictions uint64
}

type entry[V any] struct {
	val      V
	lastUsed int64 // unix nanos
}

// New creates a table.
func New[V any](opts Options) *Table[V] {
	n := opts.Shards
	if n == 0 {
		n = 16
	}
	n = NumShards(n)
	t := &Table[V]{
		shards: make([]tableShard[V], n),
		mask:   uint32(n - 1),
		ttl:    opts.TTL,
		now:    opts.Now,
	}
	if t.now == nil {
		t.now = time.Now
	}
	for i := range t.shards {
		t.shards[i].items = map[string]*entry[V]{}
	}
	return t
}

func (t *Table[V]) shardFor(key string) *tableShard[V] {
	return &t.shards[Hash(key)&t.mask]
}

func (t *Table[V]) expired(e *entry[V], nowNs int64) bool {
	return t.ttl > 0 && nowNs-e.lastUsed >= int64(t.ttl)
}

// GetOrCreate returns the live value under key, creating one with mk on
// a miss (or on an entry that expired unused). hit reports whether an
// existing live entry answered. mk runs under the shard lock, so
// concurrent callers of the same key construct exactly one value;
// other shards are unaffected. A failed mk leaves no entry behind.
func (t *Table[V]) GetOrCreate(key string, mk func() (V, error)) (v V, hit bool, err error) {
	now := t.now()
	t.maybeSweep(now)
	nowNs := now.UnixNano()
	sh := t.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.items[key]; ok {
		if !t.expired(e, nowNs) {
			e.lastUsed = nowNs
			sh.hits++
			return e.val, true, nil
		}
		delete(sh.items, key)
		sh.evictions++
	}
	sh.misses++
	v, err = mk()
	if err != nil {
		var zero V
		return zero, false, err
	}
	sh.items[key] = &entry[V]{val: v, lastUsed: nowNs}
	return v, false, nil
}

// Get returns the live value under key without creating one. It counts
// as a hit or miss and refreshes the entry's TTL on a hit.
func (t *Table[V]) Get(key string) (V, bool) {
	now := t.now()
	t.maybeSweep(now)
	nowNs := now.UnixNano()
	sh := t.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.items[key]; ok {
		if !t.expired(e, nowNs) {
			e.lastUsed = nowNs
			sh.hits++
			return e.val, true
		}
		delete(sh.items, key)
		sh.evictions++
	}
	sh.misses++
	var zero V
	return zero, false
}

// Put inserts or replaces the value under key, refreshing its TTL.
func (t *Table[V]) Put(key string, v V) {
	nowNs := t.now().UnixNano()
	sh := t.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.items[key] = &entry[V]{val: v, lastUsed: nowNs}
}

// Len returns the number of stored entries (including not-yet-swept
// expired ones; Sweep first for an exact live count).
func (t *Table[V]) Len() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// Range calls f for every stored entry in sorted key order — a
// deterministic iteration for listings and snapshots. Entries are
// collected per shard under the shard lock, then visited without any
// lock held, so f may call back into the table.
func (t *Table[V]) Range(f func(key string, v V)) {
	type kv struct {
		k string
		v V
	}
	var all []kv
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for k, e := range sh.items {
			all = append(all, kv{k, e.val})
		}
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].k < all[j].k })
	for _, e := range all {
		f(e.k, e.v)
	}
}

// Drain removes and returns every stored entry — the replica-handoff
// primitive: the returned map is the exclusive owner of the values and
// the table is empty afterwards. Entries already past their TTL are
// counted as evictions and not returned.
func (t *Table[V]) Drain() map[string]V {
	nowNs := t.now().UnixNano()
	out := map[string]V{}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for k, e := range sh.items {
			if t.expired(e, nowNs) {
				sh.evictions++
			} else {
				out[k] = e.val
			}
			delete(sh.items, k)
		}
		sh.mu.Unlock()
	}
	return out
}

// Sweep evicts every expired entry now, returning the eviction count.
func (t *Table[V]) Sweep() int {
	now := t.now()
	t.lastSweep.Store(now.UnixNano())
	return t.sweep(now.UnixNano())
}

func (t *Table[V]) sweep(nowNs int64) int {
	if t.ttl <= 0 {
		return 0
	}
	evicted := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for k, e := range sh.items {
			if t.expired(e, nowNs) {
				delete(sh.items, k)
				sh.evictions++
				evicted++
			}
		}
		sh.mu.Unlock()
	}
	return evicted
}

// maybeSweep runs a whole-table sweep at most once per TTL/4,
// piggybacked on accessor calls so idle shards cannot pin expired
// state forever. The CAS makes concurrent accessors elect one sweeper.
func (t *Table[V]) maybeSweep(now time.Time) {
	if t.ttl <= 0 {
		return
	}
	nowNs := now.UnixNano()
	last := t.lastSweep.Load()
	if nowNs-last < int64(t.ttl/4) {
		return
	}
	if t.lastSweep.CompareAndSwap(last, nowNs) {
		t.sweep(nowNs)
	}
}

// ShardStats is one shard's counters.
type ShardStats struct {
	Size      int    `json:"size"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// Stats is a point-in-time view of every shard's counters, indexed by
// shard number.
type Stats struct {
	Shards []ShardStats `json:"shards"`
}

// Total sums the per-shard counters.
func (s Stats) Total() ShardStats {
	var t ShardStats
	for _, sh := range s.Shards {
		t.Size += sh.Size
		t.Hits += sh.Hits
		t.Misses += sh.Misses
		t.Evictions += sh.Evictions
	}
	return t
}

// Stats snapshots the per-shard counters.
func (t *Table[V]) Stats() Stats {
	s := Stats{Shards: make([]ShardStats, len(t.shards))}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		s.Shards[i] = ShardStats{
			Size:      len(sh.items),
			Hits:      sh.hits,
			Misses:    sh.misses,
			Evictions: sh.evictions,
		}
		sh.mu.Unlock()
	}
	return s
}
