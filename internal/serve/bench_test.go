package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/mtree"
)

// BenchmarkServePredict measures the full request path — JSON decode,
// registry lookup, cache probe, prediction, JSON encode — for a 64-row
// batch, with the prediction cache off and on. The -cached cases repeat
// one body, so after the warm-up every row is a warm hit: a small tree
// predicts in a few hundred nanoseconds, so a hit saves little.
// tree-cached-miss is the shape of live traffic:
// 21 columns of short decimals (five significant digits, as counter
// rates print), rows that never repeat, and more distinct bodies than
// cap/64, so every row misses a full cache and its insert evicts.
func BenchmarkServePredict(b *testing.B) {
	d := perfData(2000, 17)
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 60
	tree, err := mtree.Build(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	wideTree, err := mtree.Build(wideData(2000, 3), cfg)
	if err != nil {
		b.Fatal(err)
	}

	body := []string{fmt.Sprintf(`{"model":"cpi","rows":%s}`, rowsJSON(d, 0, 64))}
	const cacheSize = 4096
	wide := wideData(2*cacheSize, 5)
	seen := make(map[string]bool, wide.Len())
	for i := 0; i < wide.Len(); i++ {
		row := wide.Row(i)
		for j, v := range row {
			row[j], _ = strconv.ParseFloat(strconv.FormatFloat(v, 'g', 5, 64), 64)
		}
		key := fmt.Sprint(row)
		if seen[key] {
			b.Fatalf("miss row %d repeats an earlier row", i)
		}
		seen[key] = true
	}
	missBodies := make([]string, wide.Len()/64)
	for i := range missBodies {
		missBodies[i] = fmt.Sprintf(`{"model":"cpi","rows":%s}`, rowsJSON(wide, 64*i, 64*(i+1)))
	}

	run := func(b *testing.B, m *mtree.Tree, scfg Config, bodies []string) {
		reg := NewRegistry()
		if err := reg.Register("cpi", "v1", m, ""); err != nil {
			b.Fatal(err)
		}
		h := New(reg, scfg).Handler()
		// One warm-up pass over the bodies fills the cache where enabled.
		for _, body := range bodies {
			if rec := post(h, "/v1/predict", body); rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(bodies[0])))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := post(h, "/v1/predict", bodies[i%len(bodies)])
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
	}

	withCache := func(cache int) Config {
		return Config{CacheSize: cache, MaxBodyBytes: 1 << 22, MaxBatch: 4096}
	}
	b.Run("tree-uncached", func(b *testing.B) { run(b, tree, withCache(0), body) })
	b.Run("tree-cached", func(b *testing.B) { run(b, tree, withCache(cacheSize), body) })
	b.Run("tree-cached-miss", func(b *testing.B) { run(b, wideTree, withCache(cacheSize), missBodies) })
}

// BenchmarkServePredictBatch measures the batch endpoint's compiled
// batch kernel for a large batch. Uncached: the numbers isolate the
// prediction path, not the LRU.
func BenchmarkServePredictBatch(b *testing.B) {
	d := perfData(4000, 11)
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 8
	tree, err := mtree.Build(d, cfg)
	if err != nil {
		b.Fatal(err)
	}

	body := fmt.Sprintf(`{"model":"cpi","rows":%s}`, rowsJSON(d, 0, 256))
	scfg := Config{CacheSize: 0, MaxBodyBytes: 1 << 22, MaxBatch: 4096}

	b.Run("tree-kernel", func(b *testing.B) {
		reg := NewRegistry()
		if err := reg.Register("cpi", "v1", tree, ""); err != nil {
			b.Fatal(err)
		}
		h := New(reg, scfg).Handler()
		if rec := post(h, "/v1/predict", body); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec := post(h, "/v1/predict", body)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d", rec.Code)
			}
		}
		b.ReportMetric(float64(b.N*256)/b.Elapsed().Seconds(), "rows/s")
	})
}

// BenchmarkServeConcurrentPredict measures the request path under
// concurrent clients (run with -cpu 1,4,8 to see core scaling): every
// goroutine posts single-row predictions against the same model, so
// the prediction cache's stripe locks, the atomic histogram and the
// endpoint counters are all on the contended path. The parallelism
// under test is request concurrency: each request is evaluated on its
// own goroutine.
func BenchmarkServeConcurrentPredict(b *testing.B) {
	d := perfData(2000, 17)
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 60
	tree, err := mtree.Build(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Register("cpi", "v1", tree, ""); err != nil {
		b.Fatal(err)
	}
	h := New(reg, DefaultConfig()).Handler()

	bodies := make([]string, 64)
	for i := range bodies {
		row, _ := json.Marshal(d.Row(i))
		bodies[i] = fmt.Sprintf(`{"model":"cpi","row":%s}`, row)
	}
	if rec := post(h, "/v1/predict", bodies[0]); rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			rec := post(h, "/v1/predict", bodies[i&63])
			i++
			if rec.Code != http.StatusOK {
				b.Errorf("status %d", rec.Code)
				return
			}
		}
	})
}

// BenchmarkServeConcurrentStream measures /v1/stream under concurrent
// producers of the SAME model, each on its own session (run with
// -cpu 1,4,8). Each request takes the session table's lock only for
// the map lookup and its own session's lock only for ingestion, and
// writes its response with no lock held, so producers on different
// sessions overlap and ns/op should fall as -cpu rises.
func BenchmarkServeConcurrentStream(b *testing.B) {
	d := perfData(2000, 17)
	cfg := mtree.DefaultConfig()
	cfg.MinLeaf = 60
	tree, err := mtree.Build(d, cfg)
	if err != nil {
		b.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Register("cpi", "v1", tree, ""); err != nil {
		b.Fatal(err)
	}
	h := New(reg, DefaultConfig()).Handler()

	// Pre-render the trace as 16-line request chunks.
	const chunkLines = 16
	lines := strings.Split(strings.TrimSuffix(streamTrace(256, 128, 1000, 0, 9), "\n"), "\n")
	var chunks []string
	for i := 0; i+chunkLines <= len(lines); i += chunkLines {
		chunks = append(chunks, strings.Join(lines[i:i+chunkLines], "\n")+"\n")
	}

	var sid atomic.Uint64
	b.ReportAllocs()
	b.SetBytes(int64(len(chunks[0])))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		path := fmt.Sprintf("/v1/stream?model=cpi&session=g%d", sid.Add(1))
		i := 0
		for pb.Next() {
			rec := postNDJSON(h, path, chunks[i%len(chunks)])
			i++
			if rec.Code != http.StatusOK {
				b.Errorf("status %d: %s", rec.Code, rec.Body)
				return
			}
		}
	})
}

// BenchmarkPredictionCache isolates a warm hit on the cache: keying
// the row and probing it.
func BenchmarkPredictionCache(b *testing.B) {
	const ref = "cpi@v1"
	c := NewPredictionCache(1024)
	d := perfData(256, 23)
	for i := 0; i < d.Len(); i++ {
		cachePut(c, ref, d.Row(i), float64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := cacheGet(c, ref, d.Row(i%d.Len())); !ok {
			b.Fatal("miss")
		}
	}
}
