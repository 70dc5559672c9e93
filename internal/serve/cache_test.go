package serve

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// cacheGet and cachePut key a row the way predictBatch does: one hash
// over the ref and the row's value bits.
func cacheGet(c *PredictionCache, ref string, row dataset.Instance) (float64, bool) {
	return c.get(rowHash(refHash(ref), row), ref, row)
}

func cachePut(c *PredictionCache, ref string, row dataset.Instance, v float64) {
	c.put(rowHash(refHash(ref), row), ref, row, v)
}

// wideData is a 21-column schema — the target plus 20 events, the width
// of the served counter schema — holding n random rows that never repeat.
func wideData(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	attrs := make([]dataset.Attribute, 21)
	attrs[0].Name = "CPI"
	for j := 1; j < len(attrs); j++ {
		attrs[j].Name = fmt.Sprintf("E%d", j)
	}
	d := dataset.MustNew(attrs, 0)
	for i := 0; i < n; i++ {
		row := make(dataset.Instance, len(attrs))
		for j := 1; j < len(row); j++ {
			row[j] = rng.Float64() * 0.01
		}
		row[0] = 0.6 + 50*row[1] + 0.02*rng.NormFloat64()
		if row[2] > 0.005 {
			row[0] += 90*row[2] + 40*row[3]
		}
		d.MustAppend(row)
	}
	return d
}

func TestCacheEviction(t *testing.T) {
	c := NewPredictionCache(2)
	row := dataset.Instance{1, 2}
	cachePut(c, "a", row, 1)
	cachePut(c, "b", row, 2)
	if _, ok := cacheGet(c, "a", row); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	cachePut(c, "c", row, 3)
	if _, ok := cacheGet(c, "b", row); ok {
		t.Error("b should have been evicted")
	}
	if v, ok := cacheGet(c, "a", row); !ok || v != 1 {
		t.Error("a lost")
	}
	if v, ok := cacheGet(c, "c", row); !ok || v != 3 {
		t.Error("c lost")
	}
}

// TestCacheKeyExactBits: entries are keyed by the exact value bits under
// the model reference, so near-identical inputs, signed zeros and
// different models never share an entry.
func TestCacheKeyExactBits(t *testing.T) {
	r1 := dataset.Instance{0, 1, 2}
	c := NewPredictionCache(64)
	cachePut(c, "m", r1, 7)
	for _, miss := range []struct {
		name string
		ref  string
		row  dataset.Instance
	}{
		{"one ulp apart", "m", dataset.Instance{0, math.Nextafter(1, 2), 2}},
		{"another model", "m2", r1},
		{"-0 for +0", "m", dataset.Instance{math.Copysign(0, -1), 1, 2}},
		{"a prefix", "m", r1[:2]},
	} {
		if v, ok := cacheGet(c, miss.ref, miss.row); ok {
			t.Errorf("%s: hit with %v", miss.name, v)
		}
	}
	if v, ok := cacheGet(c, "m", dataset.Instance{0, 1, 2}); !ok || v != 7 {
		t.Errorf("identical row: got %v, %v; want a hit with 7", v, ok)
	}
	if hits, misses, size := c.Stats(); hits != 1 || misses != 4 || size != 1 {
		t.Errorf("stats hits %d misses %d size %d, want 1, 4, 1", hits, misses, size)
	}
}

// TestCacheHashCollision forces two different rows (and the same row
// under two refs) onto one 64-bit hash: a probe never returns the other
// key's value, and the newer key takes the slot.
func TestCacheHashCollision(t *testing.T) {
	const h = 0x0123456789abcdef
	r1, r2 := dataset.Instance{1, 2, 3}, dataset.Instance{1, 2, 4}
	c := NewPredictionCache(4096) // 16 stripes: h's top bits pick one
	c.put(h, "m", r1, 1)
	if v, ok := c.get(h, "m", r2); ok {
		t.Fatalf("r2 hit r1's entry: %v", v)
	}
	if v, ok := c.get(h, "other", r1); ok {
		t.Fatalf("another ref hit r1's entry: %v", v)
	}
	c.put(h, "m", r2, 2)
	if v, ok := c.get(h, "m", r1); ok {
		t.Fatalf("r1 hit r2's entry: %v", v)
	}
	if v, ok := c.get(h, "m", r2); !ok || v != 2 {
		t.Fatalf("r2: got %v, %v; want a hit with 2", v, ok)
	}
	if _, _, size := c.Stats(); size != 1 {
		t.Errorf("size %d, want 1: colliding keys share one slot", size)
	}
}

// TestCacheHashReference pins rowHash to reference values: fixed across
// runs and machines, unlike the runtime map hash, so a row lands on the
// same stripe everywhere.
func TestCacheHashReference(t *testing.T) {
	for _, c := range []struct {
		ref  string
		row  dataset.Instance
		want uint64
	}{
		{"", nil, 0xd8a310150df90781},
		{"cpi@v1", nil, 0x152ec3e5c30c549d},
		{"cpi@v1", dataset.Instance{1.41, 0.004, 0.002}, 0x1023a0f523a1c820},
		{"cpi@v1", dataset.Instance{math.Copysign(0, -1)}, 0x26c192633c8266e3},
	} {
		if got := rowHash(refHash(c.ref), c.row); got != c.want {
			t.Errorf("rowHash(%q, %v) = %#x, want %#x", c.ref, c.row, got, c.want)
		}
	}
}

// TestCacheConcurrent hammers one cache with probes, inserts and Stats
// from several goroutines: every hit returns its own row's value, every
// probe counts exactly one hit or miss, and the size never exceeds the
// capacity. Under -race it is the cache's safety proof.
func TestCacheConcurrent(t *testing.T) {
	const goroutines, probes = 8, 3000
	c := NewPredictionCache(256) // 4 stripes
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ref := fmt.Sprintf("m%d", g%2)
			seed := refHash(ref)
			for i := 0; i < probes; i++ {
				// Each goroutine cycles through 100 rows; the six
				// (ref, row[1]) classes make 600 keys, more than the
				// cache holds, so probes both hit and evict.
				row := dataset.Instance{float64((i * 7) % 100), float64(g % 3)}
				want := row[0]*10 + row[1] + float64(g%2)/2
				h := rowHash(seed, row)
				if v, ok := c.get(h, ref, row); !ok {
					c.put(h, ref, row, want)
				} else if v != want {
					t.Errorf("%s %v: hit returned %v, want %v", ref, row, v, want)
					return
				}
				if i%64 == 0 {
					if _, _, size := c.Stats(); size > c.Cap() {
						t.Errorf("size %d exceeds capacity %d", size, c.Cap())
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses, size := c.Stats()
	if hits+misses != goroutines*probes {
		t.Errorf("hits %d + misses %d != %d probes", hits, misses, goroutines*probes)
	}
	if hits == 0 || misses == 0 || size > c.Cap() {
		t.Errorf("hits %d misses %d size %d (cap %d): want both kinds of probe and size <= cap",
			hits, misses, size, c.Cap())
	}
}

// cacheMissAllocSlack is how many allocations a 64-row request whose
// rows all miss a full cache may make beyond the same request with the
// cache off: headroom for predictBatch's pooled scratch when a GC has
// emptied the pool. Keying, probing and inserting allocate nothing.
const cacheMissAllocSlack = 1

// TestPredictCacheMissAllocs: on the all-miss shape of live traffic
// (rows never repeat, the cache full, so every insert evicts), the
// cache adds at most cacheMissAllocSlack allocations per request.
func TestPredictCacheMissAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const (
		cacheSize = 256 // 4 stripes of 64
		fill      = 16  // bodies sent before measuring: 1024 rows, every stripe full
		runs      = 50
	)
	tree := buildTree(t, wideData(2000, 3))
	rows := wideData(64*(fill+runs+1), 5)
	bodies := make([]string, fill+runs+1)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"model":"cpi","rows":%s}`, rowsJSON(rows, 64*i, 64*(i+1)))
	}
	allocs := func(cache int) float64 {
		reg := NewRegistry()
		if err := reg.Register("cpi", "v1", tree, ""); err != nil {
			t.Fatal(err)
		}
		h := New(reg, Config{CacheSize: cache, MaxBodyBytes: 1 << 22, MaxBatch: 4096}).Handler()
		next := 0
		send := func() {
			if rec := post(h, "/v1/predict", bodies[next]); rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			next++
		}
		for next < fill {
			send()
		}
		return testing.AllocsPerRun(runs, send)
	}
	off, on := allocs(0), allocs(cacheSize)
	if on > off+cacheMissAllocSlack {
		t.Errorf("all-miss 64-row request: %.0f allocs with the cache, %.0f without; want at most %d more",
			on, off, cacheMissAllocSlack)
	}
}
