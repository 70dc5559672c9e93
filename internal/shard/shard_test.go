package shard

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for exact TTL tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_700_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestNumShards(t *testing.T) {
	cases := [][2]int{{-3, 1}, {0, 1}, {1, 1}, {2, 2}, {3, 4}, {16, 16}, {17, 32}}
	for _, c := range cases {
		if got := NumShards(c[0]); got != c[1] {
			t.Errorf("NumShards(%d) = %d, want %d", c[0], got, c[1])
		}
	}
}

func TestHashDeterministic(t *testing.T) {
	// FNV-1a reference values: the shard assignment must be stable
	// across runs and machines, unlike the runtime map hash.
	if got := Hash(""); got != 2166136261 {
		t.Errorf("Hash(\"\") = %d, want 2166136261", got)
	}
	if Hash("a@v1\x00s1") != HashBytes([]byte("a@v1\x00s1")) {
		t.Error("Hash and HashBytes disagree")
	}
}

func TestGetOrCreate(t *testing.T) {
	tab := New[int](Options{Shards: 4})
	made := 0
	mk := func() (int, error) { made++; return made, nil }

	v, hit, err := tab.GetOrCreate("k", mk)
	if err != nil || hit || v != 1 {
		t.Fatalf("first access: v=%d hit=%v err=%v", v, hit, err)
	}
	v, hit, err = tab.GetOrCreate("k", mk)
	if err != nil || !hit || v != 1 {
		t.Fatalf("second access: v=%d hit=%v err=%v", v, hit, err)
	}
	if made != 1 {
		t.Fatalf("mk ran %d times, want 1", made)
	}
	if _, _, err := tab.GetOrCreate("bad", func() (int, error) {
		return 0, fmt.Errorf("boom")
	}); err == nil {
		t.Fatal("mk error not propagated")
	}
	// A failed mk must leave no entry behind.
	if _, ok := tab.Get("bad"); ok {
		t.Fatal("failed mk left an entry")
	}
	if tab.Len() != 1 {
		t.Fatalf("len %d, want 1", tab.Len())
	}
}

func TestTTLEviction(t *testing.T) {
	clk := newFakeClock()
	tab := New[string](Options{Shards: 4, TTL: time.Minute, Now: clk.Now})
	mk := func(v string) func() (string, error) {
		return func() (string, error) { return v, nil }
	}

	if _, _, err := tab.GetOrCreate("a", mk("A")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := tab.GetOrCreate("b", mk("B")); err != nil {
		t.Fatal(err)
	}

	// Keep "a" warm past b's expiry.
	clk.Advance(40 * time.Second)
	if _, hit := tab.Get("a"); !hit {
		t.Fatal("a missing before TTL")
	}
	clk.Advance(40 * time.Second) // b now idle 80s > TTL, a idle 40s

	if _, hit := tab.Get("b"); hit {
		t.Fatal("b survived past its TTL")
	}
	if _, hit := tab.Get("a"); !hit {
		t.Fatal("refreshed entry a evicted early")
	}
	total := tab.Stats().Total()
	if total.Evictions < 1 {
		t.Fatalf("evictions %d, want >= 1", total.Evictions)
	}

	// A full sweep clears everything once idle long enough.
	clk.Advance(2 * time.Minute)
	if n := tab.Sweep(); n != 1 {
		t.Fatalf("sweep evicted %d, want 1 (only a remained)", n)
	}
	if tab.Len() != 0 {
		t.Fatalf("len %d after sweep, want 0", tab.Len())
	}
}

// TestMaybeSweepRunsOnAccess: accessors sweep the whole table, not just
// the touched shard, and at most once per TTL/4.
func TestMaybeSweepRunsOnAccess(t *testing.T) {
	clk := newFakeClock()
	tab := New[int](Options{Shards: 2, TTL: time.Minute, Now: clk.Now})
	get := func(k string) {
		t.Helper()
		if _, _, err := tab.GetOrCreate(k, func() (int, error) { return 0, nil }); err != nil {
			t.Fatal(err)
		}
	}
	check := func(wantLen int, wantEvictions uint64) {
		t.Helper()
		if tab.Len() != wantLen {
			t.Fatalf("len %d, want %d", tab.Len(), wantLen)
		}
		if total := tab.Stats().Total(); total.Evictions != wantEvictions {
			t.Fatalf("evictions %d, want %d", total.Evictions, wantEvictions)
		}
	}
	for i := 0; i < 8; i++ {
		get(fmt.Sprintf("k%d", i))
	}
	clk.Advance(2 * time.Minute)
	// Accessing one fresh key must sweep the whole table.
	get("fresh")
	check(1, 8)

	// 50s on, a sweep runs but "fresh" (idle 50s) is still live.
	clk.Advance(50 * time.Second)
	get("mid")
	check(2, 8)
	// 14s later "fresh" has expired, but the next sweep is not due
	// until TTL/4 = 15s after the last one, so it stays stored.
	clk.Advance(14 * time.Second)
	tab.Get("mid")
	check(2, 8)
	clk.Advance(time.Second)
	tab.Get("mid")
	check(1, 9)
}

func TestDrainAndRange(t *testing.T) {
	tab := New[int](Options{Shards: 8})
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("key-%02d", i)
		tab.Put(k, i)
	}

	// Range visits in sorted key order.
	var keys []string
	tab.Range(func(k string, v int) { keys = append(keys, k) })
	if len(keys) != 20 {
		t.Fatalf("range visited %d entries, want 20", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("range order not sorted: %q before %q", keys[i-1], keys[i])
		}
	}

	got := tab.Drain()
	if len(got) != 20 || tab.Len() != 0 {
		t.Fatalf("drain returned %d entries, table has %d left", len(got), tab.Len())
	}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("key-%02d", i)
		if got[k] != i {
			t.Fatalf("drained %s = %d, want %d", k, got[k], i)
		}
	}
}

func TestStatsPerShard(t *testing.T) {
	tab := New[int](Options{Shards: 4})
	tab.Put("x", 1)
	tab.Get("x")
	tab.Get("y")
	s := tab.Stats()
	if len(s.Shards) != 4 {
		t.Fatalf("%d shard stats, want 4", len(s.Shards))
	}
	total := s.Total()
	if total.Size != 1 || total.Hits != 1 || total.Misses != 1 {
		t.Fatalf("totals %+v, want size 1, hits 1, misses 1", total)
	}
	// The hit must be attributed to x's shard specifically.
	xs := s.Shards[Hash("x")&3]
	if xs.Hits != 1 {
		t.Errorf("x's shard hits %d, want 1", xs.Hits)
	}
}

// TestConcurrentAccess hammers the table from many goroutines with
// the operations the serving layer uses — session lookup and creation,
// listing, stats, and drain/restore — while the clock advances past the
// sweep interval and the TTL; run under -race this is the striping's
// safety proof.
func TestConcurrentAccess(t *testing.T) {
	clk := newFakeClock()
	tab := New[int](Options{Shards: 8, TTL: time.Minute, Now: clk.Now})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", i%37)
				switch i % 6 {
				case 0:
					tab.Put(k, i)
				case 1:
					tab.Get(k)
				case 2:
					if _, _, err := tab.GetOrCreate(k, func() (int, error) { return i, nil }); err != nil {
						t.Error(err)
						return
					}
				case 3:
					tab.Stats()
				case 4:
					// Range's callback runs with no lock held, so it may
					// call back into the table.
					tab.Range(func(k string, _ int) { tab.Get(k) })
				default:
					if g == 0 {
						clk.Advance(5 * time.Second)
					}
					// Restore what was drained, as a drain/restore pair
					// between replicas would.
					for k, v := range tab.Drain() {
						tab.Put(k, v)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if tab.Len() > 37 {
		t.Fatalf("len %d, want <= 37 distinct keys", tab.Len())
	}
}
