package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stream"
)

// Table-level tests of streamSessions. The table never touches a
// session's processor, so sessions here carry none.

// noProcessor is a constructor that succeeds without building a
// processor.
func noProcessor() (*stream.Processor, error) { return nil, nil }

// tableCounts reads the table's size and counters under its lock.
func tableCounts(ss *streamSessions) (size int, hits, misses, evictions uint64) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	return len(ss.m), ss.hits, ss.misses, ss.evictions
}

func mustGet(t *testing.T, ss *streamSessions, ref, id string) *streamSession {
	t.Helper()
	sess, err := ss.get(ref, id, noProcessor)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func TestStreamSessionsGetOrCreate(t *testing.T) {
	ss := newStreamSessions(0, nil)
	a := mustGet(t, ss, "m@v1", "a")
	if a.model != "m@v1" || a.id != "a" {
		t.Fatalf("session keyed (%q, %q), want (m@v1, a)", a.model, a.id)
	}
	if again := mustGet(t, ss, "m@v1", "a"); again != a {
		t.Fatal("second get built a new session")
	}
	if b := mustGet(t, ss, "m@v1", "b"); b == a {
		t.Fatal("a different id shares a session")
	}

	boom := errors.New("boom")
	if _, err := ss.get("m@v1", "bad", func() (*stream.Processor, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("constructor error not propagated: %v", err)
	}
	// A failed constructor must leave no entry behind.
	if _, ok := ss.lookup("m@v1", "bad"); ok {
		t.Fatal("failed constructor left an entry")
	}
	size, hits, misses, _ := tableCounts(ss)
	if size != 2 || hits != 1 || misses != 4 {
		t.Fatalf("size %d hits %d misses %d, want 2, 1 and 4", size, hits, misses)
	}
}

// TestStreamSessionsOneConstructionPerKey: concurrent first requests for
// one key build exactly one session and all get it.
func TestStreamSessionsOneConstructionPerKey(t *testing.T) {
	ss := newStreamSessions(0, nil)
	var made atomic.Int32
	mk := func() (*stream.Processor, error) {
		made.Add(1)
		time.Sleep(time.Millisecond) // widen the window for a second construction
		return nil, nil
	}
	const n = 16
	got := make([]*streamSession, n)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess, err := ss.get("m@v1", "k", mk)
			if err != nil {
				t.Error(err)
			}
			got[i] = sess
		}()
	}
	wg.Wait()
	if made.Load() != 1 {
		t.Fatalf("constructor ran %d times, want 1", made.Load())
	}
	for i, sess := range got {
		if sess != got[0] {
			t.Fatalf("caller %d got a different session", i)
		}
	}
}

// TestStreamSessionsCounters: a lookup that finds a live session is a
// hit, one that finds none a miss.
func TestStreamSessionsCounters(t *testing.T) {
	ss := newStreamSessions(0, nil)
	ss.put(&streamSession{model: "m@v1", id: "x"})
	if _, ok := ss.lookup("m@v1", "x"); !ok {
		t.Fatal("put session not found")
	}
	if _, ok := ss.lookup("m@v1", "y"); ok {
		t.Fatal("lookup found a session never stored")
	}
	if size, hits, misses, evictions := tableCounts(ss); size != 1 || hits != 1 || misses != 1 || evictions != 0 {
		t.Fatalf("size %d hits %d misses %d evictions %d, want 1, 1, 1 and 0", size, hits, misses, evictions)
	}
}

func TestStreamSessionsTTLEviction(t *testing.T) {
	clk := newFakeClock()
	ss := newStreamSessions(time.Minute, clk.Now)
	a := mustGet(t, ss, "m@v1", "a")
	mustGet(t, ss, "m@v1", "b")

	// Keep a warm past b's expiry.
	clk.Advance(40 * time.Second)
	if _, ok := ss.lookup("m@v1", "a"); !ok {
		t.Fatal("a missing before its TTL")
	}
	clk.Advance(40 * time.Second) // b idle 80s > TTL, a idle 40s
	if _, ok := ss.lookup("m@v1", "b"); ok {
		t.Fatal("b survived past its TTL")
	}
	if sess, ok := ss.lookup("m@v1", "a"); !ok || sess != a {
		t.Fatal("refreshed session a evicted early")
	}
	if _, _, _, evictions := tableCounts(ss); evictions != 1 {
		t.Fatalf("evictions %d, want 1", evictions)
	}

	// An expired session is replaced by a fresh one on get.
	clk.Advance(2 * time.Minute)
	if fresh := mustGet(t, ss, "m@v1", "a"); fresh == a {
		t.Fatal("get returned the expired session")
	}
	if size, _, _, evictions := tableCounts(ss); size != 1 || evictions != 2 {
		t.Fatalf("size %d evictions %d, want 1 and 2", size, evictions)
	}
}

// TestStreamSessionsSweepOncePerQuarterTTL: get and lookup sweep the
// whole table, not just the key they touch, and at most once per TTL/4.
func TestStreamSessionsSweepOncePerQuarterTTL(t *testing.T) {
	clk := newFakeClock()
	ss := newStreamSessions(time.Minute, clk.Now)
	check := func(wantSize int, wantEvictions uint64) {
		t.Helper()
		if size, _, _, evictions := tableCounts(ss); size != wantSize || evictions != wantEvictions {
			t.Fatalf("size %d evictions %d, want %d and %d", size, evictions, wantSize, wantEvictions)
		}
	}
	for i := 0; i < 8; i++ {
		mustGet(t, ss, "m@v1", fmt.Sprintf("k%d", i))
	}
	clk.Advance(2 * time.Minute)
	// Touching one fresh key sweeps the whole table.
	mustGet(t, ss, "m@v1", "fresh")
	check(1, 8)

	// 50s on a sweep runs, but "fresh" (idle 50s) is still live.
	clk.Advance(50 * time.Second)
	mustGet(t, ss, "m@v1", "mid")
	check(2, 8)
	// 14s later "fresh" has expired, but the next sweep is not due until
	// TTL/4 = 15s after the last one, so it stays stored.
	clk.Advance(14 * time.Second)
	ss.lookup("m@v1", "mid")
	check(2, 8)
	clk.Advance(time.Second)
	ss.lookup("m@v1", "mid")
	check(1, 9)
}

// TestStreamSessionsDrainAndList: list and drain return sessions in key
// order, drain empties the table, and both drop and count sessions
// already past their TTL.
func TestStreamSessionsDrainAndList(t *testing.T) {
	clk := newFakeClock()
	ss := newStreamSessions(time.Minute, clk.Now)
	ss.put(&streamSession{model: "m@v1", id: "stale"}) // expires at +60s
	clk.Advance(30 * time.Second)
	ss.put(&streamSession{model: "m@v1", id: "aging"}) // expires at +90s
	clk.Advance(10 * time.Second)
	// Stored in scrambled order, across two models: key order is (model,
	// session id).
	for _, i := range []int{7, 2, 9, 0, 4} {
		ss.put(&streamSession{model: "m@v1", id: fmt.Sprintf("s%d", i)})
		ss.put(&streamSession{model: "a@v1", id: fmt.Sprintf("s%d", i)})
	}
	keys := func(sessions []*streamSession) []string {
		out := make([]string, len(sessions))
		for i, s := range sessions {
			out[i] = s.model + "/" + s.id
		}
		return out
	}

	// At +65s list drops and counts the expired session.
	clk.Advance(25 * time.Second)
	want := "[a@v1/s0 a@v1/s2 a@v1/s4 a@v1/s7 a@v1/s9 m@v1/aging m@v1/s0 m@v1/s2 m@v1/s4 m@v1/s7 m@v1/s9]"
	if got := fmt.Sprint(keys(ss.list())); got != want {
		t.Fatalf("list order %s, want %s", got, want)
	}
	if size, _, _, evictions := tableCounts(ss); size != 11 || evictions != 1 {
		t.Fatalf("after list: size %d evictions %d, want 11 and 1", size, evictions)
	}
	// At +95s drain does the same.
	clk.Advance(30 * time.Second)
	want = "[a@v1/s0 a@v1/s2 a@v1/s4 a@v1/s7 a@v1/s9 m@v1/s0 m@v1/s2 m@v1/s4 m@v1/s7 m@v1/s9]"
	if got := fmt.Sprint(keys(ss.drain())); got != want {
		t.Fatalf("drained %s, want %s", got, want)
	}
	if size, _, _, evictions := tableCounts(ss); size != 0 || evictions != 2 {
		t.Fatalf("after drain: size %d evictions %d, want 0 and 2", size, evictions)
	}
}

// TestStreamSessionsConcurrentAccess hammers the table from many
// goroutines with the operations the serving layer uses — session
// creation and lookup, listing, and drain/restore — while the clock
// advances past the sweep interval and the TTL; under -race this is the
// table's safety proof.
func TestStreamSessionsConcurrentAccess(t *testing.T) {
	clk := newFakeClock()
	ss := newStreamSessions(time.Minute, clk.Now)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := fmt.Sprintf("k%d", i%37)
				switch i % 5 {
				case 0:
					ss.put(&streamSession{model: "m@v1", id: id})
				case 1:
					ss.lookup("m@v1", id)
				case 2:
					if _, err := ss.get("m@v1", id, noProcessor); err != nil {
						t.Error(err)
						return
					}
				case 3:
					for _, sess := range ss.list() {
						ss.lookup(sess.model, sess.id)
					}
				default:
					if g == 0 {
						clk.Advance(5 * time.Second)
					}
					// Restore what was drained, as a drain/restore pair
					// between replicas would.
					for _, sess := range ss.drain() {
						ss.put(sess)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if size, _, _, _ := tableCounts(ss); size > 37 {
		t.Fatalf("size %d, want <= 37 distinct keys", size)
	}
}
