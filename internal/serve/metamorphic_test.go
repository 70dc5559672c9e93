package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/proptest"
	"repro/internal/refute"
	"repro/internal/stream"
)

// The metamorphic suite: every event /v1/stream emits is a function of
// each session's section sequence alone. Replaying the same timelines
// under a different request chunking, session-table shard count, or
// with drain/restore handoffs at arbitrary sections — inside refutation
// windows included — must yield the same concatenated non-summary
// events per session, byte for byte. Summary lines are per-request
// bookkeeping and are left out.

// multiPhaseTrace renders each fixture session as a timeline that cycles
// through the fixture's benchmarks in 24-section blocks, so the phase
// tracker crosses a boundary every block.
func multiPhaseTrace(fx *wireFixtureData) [][]string {
	const total, block = 160, 24
	out := make([][]string, len(fx.sessions))
	for si := range fx.sessions {
		for k := 0; k < total; k++ {
			src := fx.sessions[(si+k/block)%len(fx.sessions)]
			row := src.rows[k%len(src.rows)]
			events := map[string]float64{}
			for j, v := range row {
				if j != fx.target {
					events[fx.attrs[j]] = v
				}
			}
			cpi := row[fx.target]
			line, err := json.Marshal(&stream.Sample{Bench: src.bench, Section: k, Events: events, CPI: &cpi})
			if err != nil {
				panic(err)
			}
			out[si] = append(out[si], string(line))
		}
	}
	return out
}

// sessionEvents splits a response body into its non-summary lines.
func sessionEvents(t *testing.T, body string) []string {
	t.Helper()
	var out []string
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		var ev struct{ Type string }
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("response line %q: %v", line, err)
		}
		if ev.Type != "summary" {
			out = append(out, line)
		}
	}
	return out
}

func metamorphicServer(t *testing.T, fx *wireFixtureData, shards int) http.Handler {
	t.Helper()
	reg := NewRegistry()
	if err := reg.Register("cpi", "v1", fx.tree, ""); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SessionShards = shards
	return New(reg, cfg).Handler()
}

func TestStreamMetamorphicInvariance(t *testing.T) {
	fx := loadWireFixture(t)
	for _, trace := range []string{"clean", "corrupt", "drift", "multiphase"} {
		t.Run(trace, func(t *testing.T) {
			var lines [][]string
			if trace == "multiphase" {
				lines = multiPhaseTrace(fx)
			} else {
				lines = wireTrace(fx, trace)
			}
			path := func(si int) string { return fmt.Sprintf("/v1/stream?model=cpi&session=s%d", si) }

			// Reference: one shard, each timeline in one request.
			h := metamorphicServer(t, fx, 1)
			want := make([][]string, len(lines))
			types := map[string]int{}
			for si, sl := range lines {
				rec := postNDJSON(h, path(si), strings.Join(sl, "\n")+"\n")
				if rec.Code != http.StatusOK {
					t.Fatalf("reference session %d: status %d: %s", si, rec.Code, rec.Body)
				}
				want[si] = sessionEvents(t, rec.Body.String())
				for _, ev := range want[si] {
					var e struct{ Type string }
					_ = json.Unmarshal([]byte(ev), &e)
					types[e.Type]++
				}
			}
			// Each trace must reach the event type it exists to exercise.
			need := map[string]string{"clean": "sample", "corrupt": "refute", "drift": "drift", "multiphase": "phase"}[trace]
			if types[need] == 0 {
				t.Fatalf("reference replay has no %q events (%v): the invariance tests nothing", need, types)
			}

			proptest.Run(t, "chunks-shards-restores", 4, func(t *testing.T, r *proptest.Rand) {
				shards := []int{1, 16}[r.Intn(2)]
				h := metamorphicServer(t, fx, shards)
				got := make([][]string, len(lines))
				pos := make([]int, len(lines))
				midWindow := false
				for round := 0; ; round++ {
					more := false
					for si, sl := range lines {
						if pos[si] == len(sl) {
							continue
						}
						more = true
						n := min(len(sl)-pos[si], r.IntBetween(1, 40))
						rec := postNDJSON(h, path(si), strings.Join(sl[pos[si]:pos[si]+n], "\n")+"\n")
						if rec.Code != http.StatusOK {
							t.Fatalf("session %d: status %d: %s", si, rec.Code, rec.Body)
						}
						got[si] = append(got[si], sessionEvents(t, rec.Body.String())...)
						pos[si] += n
					}
					if !more {
						break
					}
					// Hand every session to a fresh server with the other
					// shard count: always after the first round, then at
					// random.
					if round == 0 || r.Bool(0.35) {
						drain := post(h, "/v1/sessions/drain", "")
						if drain.Code != http.StatusOK {
							t.Fatalf("drain: status %d: %s", drain.Code, drain.Body)
						}
						shards = 17 - shards
						h = metamorphicServer(t, fx, shards)
						if rec := post(h, "/v1/sessions/restore", drain.Body.String()); rec.Code != http.StatusOK {
							t.Fatalf("restore: status %d: %s", rec.Code, rec.Body)
						}
						for _, p := range pos {
							midWindow = midWindow || p%refute.WindowSections != 0
						}
					}
				}
				if !midWindow {
					t.Fatal("no handoff landed inside a refutation window")
				}
				for si := range lines {
					if len(got[si]) != len(want[si]) {
						t.Fatalf("session %d: %d events, reference %d", si, len(got[si]), len(want[si]))
					}
					for i := range got[si] {
						if got[si][i] != want[si][i] {
							t.Fatalf("session %d event %d differs:\n got  %s\n want %s", si, i, got[si][i], want[si][i])
						}
					}
				}
			})
		})
	}
}
