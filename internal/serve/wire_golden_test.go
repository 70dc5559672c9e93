package serve

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/counters"
	"repro/internal/dataset"
	"repro/internal/mtree"
	"repro/internal/stream"
	"repro/internal/workload"
)

// The /v1/stream wire golden: SHA-256 hashes of full response bodies and
// of RunMonitor output. They were first recorded from the reflection-
// based encoding/json codec that preceded the hand-written one, and
// re-recorded once when refutation windows moved to a fixed section
// count (summary stats lost depth and dropped, and corrupt traces' refute
// events stopped depending on the chunking). Any change to how samples
// are decoded or events encoded — a float formatted differently, an
// escape missed, a duplicate key resolved the other way, an accept-set
// drift — moves a hash.

// wireGolden maps "<trace>/<chunking>" to the hash of every response
// (status line plus body) of that replay, in request order.
var wireGolden = map[string]string{
	"clean/c16":      "4c5d1b0e33e9bc216038abed55f8243ba6f3c8170d4a341ba9ca2df97232ae22",
	"clean/c64":      "fb15f039d280d78f6ad44016b211bc2e5ed10b5f426afe4bc11cb45089b20a56",
	"clean/random":   "9483ab3900a7903be32855ce4f1f900b8cc8cf657a0034db01d47a0df3e70cb7",
	"corrupt/c16":    "171ec08790543e3d6137a9c8d382ff247602fb6f832244d0ba087315ab74deca",
	"corrupt/c64":    "f4d34c4c299db15ae83a1372d0018d548e66689207ec816da467aebdf0d70a1e",
	"corrupt/random": "b01fa041a7a1e8592528dd34d9eafe94ba57fd3bcc25fa2b9201020215cf92e3",
	"drift/c16":      "c5197bbeaaaf061528c7d8906963aad8b506befe3f53227d0bc231d98175395b",
	"drift/c64":      "49ccc406f4ecdc1201c34d711e5d077104c0c506b5dd9277fb328c3a019a2fe4",
	"drift/random":   "9117122784d023150df1f91a2406b29c5770b0260c95f7655e633d3dbe8b74e5",
	"wire/c16":       "36b333a6e2592234a455292c5c1c66b713e12e93a8f466039ff60e25f1ebe7b4",
	"wire/c64":       "6a8478127ba7a02940eda6abdcfeb2e2af139c32c1a8694b2386064e9f8ea348",
	"wire/random":    "082449fe47c16dafdb4d1e3994e71f062b7d3094911582e3ad8fbefe02895a34",
}

// monitorGolden maps each trace to the hash of RunMonitor's event
// output, its final stats and, for traces without invalid lines, its
// text output.
var monitorGolden = map[string]string{
	"clean":   "cceb0576999a32e53ee23cb2ead18b6d0fbb21ad55f4fb9168940da9643fc9d1",
	"corrupt": "8bf197bf33f50eb99b388ab65ca7be5f399407fe27efeeb28550d00783ad95c6",
	"drift":   "23f5ccf9633e0d09a28bef6f704722d3cfa9129b5ff56b4293583039d1c3d6e2",
	"wire":    "b154d11f6eae9d3c0f82ffe16f3b3e06015bc79d5b5da1c701d061079185d9d5",
}

// wireFixtureData is the served model and the held-out timelines the
// golden replays use: a tree trained on the core2 suite at reduced scale
// (the schema cmd/serve -demo serves) and three benchmarks of a
// differently seeded collection as three stream sessions.
type wireFixtureData struct {
	tree     *mtree.Tree
	attrs    []string
	target   int
	sessions []wireSession
}

type wireSession struct {
	bench string
	rows  []dataset.Instance
}

var wireFixture = sync.OnceValues(func() (*wireFixtureData, error) {
	collect := func(seed int64) (*counters.Collection, error) {
		cfg := counters.DefaultCollectConfig()
		cfg.Seed = seed
		cfg.Jobs = 2
		return counters.CollectSuite(workload.SuiteScaled(0.05), cfg)
	}
	train, err := collect(42)
	if err != nil {
		return nil, err
	}
	tcfg := mtree.PaperConfig()
	tcfg.MinLeaf = max(train.Data.Len()/20, 4)
	tree, err := mtree.Build(train.Data, tcfg)
	if err != nil {
		return nil, err
	}
	held, err := collect(7)
	if err != nil {
		return nil, err
	}
	fx := &wireFixtureData{tree: tree, target: held.Data.TargetIndex()}
	for _, a := range held.Data.Attrs() {
		fx.attrs = append(fx.attrs, a.Name)
	}
	byBench := map[string]int{}
	for i := 0; i < held.Data.Len(); i++ {
		b := held.Labels[i].Benchmark
		si, ok := byBench[b]
		if !ok {
			if len(fx.sessions) == 3 {
				continue
			}
			si = len(fx.sessions)
			byBench[b] = si
			fx.sessions = append(fx.sessions, wireSession{bench: b})
		}
		fx.sessions[si].rows = append(fx.sessions[si].rows, held.Data.Row(i))
	}
	return fx, nil
})

func loadWireFixture(t *testing.T) *wireFixtureData {
	t.Helper()
	fx, err := wireFixture()
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// wireSamplesPerSession is each session's timeline length; the held-out
// sections are looped to reach it.
const wireSamplesPerSession = 96

// wireTrace renders every session's timeline as NDJSON lines.
//
//   - clean: the samples as json.Marshal renders a stream.Sample.
//   - corrupt: one event per sample negated, as loadgen -payload corrupt
//     does, so the refutation layer fires.
//   - drift: CPI shifted up by half from the middle of the timeline, so
//     the Page–Hinkley detector fires.
//   - wire: the clean samples re-rendered through every accepted
//     spelling of the format (folded and escaped keys, unknown fields,
//     duplicate keys, split and reset event objects, null values,
//     exponent and negative-zero numbers, odd whitespace, blank lines,
//     and bench labels that need HTML, line-separator, control and
//     invalid-UTF-8 handling on the way back out).
func wireTrace(fx *wireFixtureData, kind string) [][]string {
	rng := rand.New(rand.NewSource(11))
	out := make([][]string, len(fx.sessions))
	for si, sess := range fx.sessions {
		for k := 0; k < wireSamplesPerSession; k++ {
			row := sess.rows[k%len(sess.rows)]
			events := map[string]float64{}
			for j, v := range row {
				if j != fx.target {
					events[fx.attrs[j]] = v
				}
			}
			cpi := row[fx.target]
			switch kind {
			case "corrupt":
				names := make([]string, 0, len(events))
				for n := range events {
					names = append(names, n)
				}
				sort.Strings(names)
				n := names[rng.Intn(len(names))]
				events[n] = -events[n]
			case "drift":
				if k >= wireSamplesPerSession/2 {
					cpi *= 1.5
				}
			}
			smp := stream.Sample{Bench: sess.bench, Section: k, Events: events, CPI: &cpi}
			if kind == "wire" {
				out[si] = append(out[si], wireVariant(rng, fx, smp)...)
				continue
			}
			line, err := json.Marshal(&smp)
			if err != nil {
				panic(err)
			}
			out[si] = append(out[si], string(line))
		}
	}
	return out
}

// wireBenches are the bench labels the wire trace cycles through; the
// raw bytes are written unescaped into the NDJSON.
var wireBenches = []string{
	"429.mcf", `a<b>&c`, "line\u2028sep\u2029", "bad\xff\xfeutf8", `ctl\u0001\u001f\t\"q\"\\`,
	`😀 pair`, `\ud800 lone`, "é日本", `<&`,
}

// wireVariant renders one sample in a randomly chosen accepted spelling;
// it may return a blank line before the sample.
func wireVariant(rng *rand.Rand, fx *wireFixtureData, s stream.Sample) []string {
	ws := func() string { return []string{"", "", " ", "\t", " \r "}[rng.Intn(5)] }
	num := func(v float64) string {
		switch rng.Intn(5) {
		case 0:
			return strconv.FormatFloat(v, 'e', -1, 64)
		case 1:
			return strings.ToUpper(strconv.FormatFloat(v, 'E', -1, 64))
		case 2:
			if v == 0 {
				return "-0"
			}
		}
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
	key := func(k string) string {
		switch rng.Intn(6) {
		case 0:
			return fmt.Sprintf(`"\u%04x%s"`, k[0], k[1:])
		case 1:
			return `"` + strings.ToUpper(k) + `"`
		case 2:
			return `"` + strings.ReplaceAll(k, "s", "ſ") + `"`
		}
		return `"` + k + `"`
	}
	names := make([]string, 0, len(s.Events))
	for n := range s.Events {
		names = append(names, n)
	}
	sort.Strings(names)
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })

	eventObj := func(names []string) string {
		var b strings.Builder
		b.WriteString("{" + ws())
		for i, n := range names {
			if i > 0 {
				b.WriteString(ws() + "," + ws())
			}
			ek := `"` + n + `"`
			if rng.Intn(8) == 0 {
				ek = fmt.Sprintf(`"\u%04x%s"`, n[0], n[1:])
			}
			v := s.Events[n]
			val := num(v)
			if v == 0 && rng.Intn(2) == 0 {
				val = "null"
			}
			b.WriteString(ek + ws() + ":" + ws() + val)
		}
		b.WriteString(ws() + "}")
		return b.String()
	}

	// Each group is one logical field; duplicates inside a group keep
	// their order (the last one wins), the groups themselves are shuffled.
	var groups [][]string
	// Events: whole, split across two objects (they merge), or preceded
	// by a poisoned object that a null resets.
	present := names[:0:0]
	for _, n := range names {
		if s.Events[n] != 0 || rng.Intn(3) > 0 {
			present = append(present, n)
		}
	}
	switch rng.Intn(4) {
	case 0:
		h := len(present) / 2
		groups = append(groups, []string{key("events") + ":" + eventObj(present[:h]), key("events") + ":" + eventObj(present[h:])})
	case 1:
		groups = append(groups, []string{key("events") + `:{"NoSuchEvent":1,"CPI":2}`, key("events") + ":null",
			key("events") + ":" + eventObj(present)})
	default:
		groups = append(groups, []string{key("events") + ":" + eventObj(present)})
	}
	bench := wireBenches[rng.Intn(len(wireBenches))]
	if rng.Intn(3) == 0 {
		bench = s.Bench
	}
	var g []string
	if rng.Intn(4) == 0 {
		g = append(g, key("bench")+`:"overwritten"`)
	}
	g = append(g, key("bench")+`:"`+bench+`"`)
	if rng.Intn(4) == 0 {
		g = append(g, key("bench")+":null")
	}
	groups = append(groups, g)
	g = nil
	if rng.Intn(4) == 0 {
		g = append(g, key("section")+":999999")
	}
	groups = append(groups, append(g, key("section")+":"+strconv.Itoa(s.Section)))
	switch rng.Intn(6) {
	case 0: // no observed CPI
	case 1:
		groups = append(groups, []string{key("cpi") + ":null"})
	case 2:
		groups = append(groups, []string{key("cpi") + ":" + num(*s.CPI), key("cpi") + ":null"})
	case 3:
		groups = append(groups, []string{key("cpi") + ":null", key("cpi") + ":" + num(*s.CPI)})
	default:
		groups = append(groups, []string{key("cpi") + ":" + num(*s.CPI)})
	}
	if rng.Intn(3) == 0 {
		groups = append(groups, []string{`"host":"n1\n","meta":{"a":[1,-2.5e3,{"b":null,"c":true}],"d":false},"x":[]`})
	}
	rng.Shuffle(len(groups), func(i, j int) { groups[i], groups[j] = groups[j], groups[i] })
	var fields []string
	for _, g := range groups {
		fields = append(fields, g...)
	}
	line := ws() + "{" + ws() + strings.Join(fields, ws()+","+ws()) + ws() + "}" + ws()
	if rng.Intn(10) == 0 {
		return []string{"  \t", line}
	}
	return []string{line}
}

// wireChunks cuts n lines into request sizes: fixed 16 or 64, or
// seeded-random in [1, 80].
func wireChunks(chunking string, n int) []int {
	var sizes []int
	rng := rand.New(rand.NewSource(3))
	for n > 0 {
		c := 0
		switch chunking {
		case "c16":
			c = 16
		case "c64":
			c = 64
		default:
			c = 1 + rng.Intn(80)
		}
		c = min(c, n)
		sizes = append(sizes, c)
		n -= c
	}
	return sizes
}

// replayWire posts every session's lines to h in the given chunking, the
// sessions' requests interleaved round robin, and hashes every response.
func replayWire(t *testing.T, h http.Handler, lines [][]string, chunking string) (string, map[string]int) {
	t.Helper()
	type cursor struct{ pos, next int }
	chunks := make([][]int, len(lines))
	for si := range lines {
		chunks[si] = wireChunks(chunking, len(lines[si]))
	}
	hash := sha256.New()
	types := map[string]int{}
	cur := make([]cursor, len(lines))
	for more := true; more; {
		more = false
		for si := range lines {
			c := &cur[si]
			if c.next == len(chunks[si]) {
				continue
			}
			more = true
			n := chunks[si][c.next]
			body := strings.Join(lines[si][c.pos:c.pos+n], "\n") + "\n"
			c.pos += n
			c.next++
			rec := postNDJSON(h, fmt.Sprintf("/v1/stream?model=cpi&session=s%d", si), body)
			if rec.Code != http.StatusOK {
				t.Fatalf("session %d request %d: status %d: %s", si, c.next, rec.Code, rec.Body)
			}
			fmt.Fprintf(hash, "%d\n", rec.Code)
			hash.Write(rec.Body.Bytes())
			for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
				var ev struct{ Type string }
				if err := json.Unmarshal([]byte(line), &ev); err != nil {
					t.Fatalf("response line %q: %v", line, err)
				}
				types[ev.Type]++
			}
		}
	}
	return fmt.Sprintf("%x", hash.Sum(nil)), types
}

// checkGolden compares got against want and reports every mismatch; an
// empty want map prints the hashes to record.
func checkGolden(t *testing.T, want, got map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(want) == 0 {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%q: %q,\n", k, got[k])
		}
		t.Fatalf("no golden hashes recorded; record these:\n%s", b.String())
	}
	for _, k := range keys {
		if want[k] != got[k] {
			t.Errorf("%s: hash %s, golden %s", k, got[k], want[k])
		}
	}
	if len(want) != len(got) {
		t.Errorf("%d replays hashed, %d golden", len(got), len(want))
	}
}

// TestStreamWireGolden replays the clean, corrupt, drifting and
// wire-variant traces in 16-sample, 64-sample and seeded-random chunks
// across three sessions and checks every response body against the
// recorded hashes.
func TestStreamWireGolden(t *testing.T) {
	fx := loadWireFixture(t)
	got := map[string]string{}
	for _, trace := range []string{"clean", "corrupt", "drift", "wire"} {
		lines := wireTrace(fx, trace)
		for _, chunking := range []string{"c16", "c64", "random"} {
			h, types := replayWire(t, metamorphicServer(t, fx), lines, chunking)
			got[trace+"/"+chunking] = h
			// Each trace must reach the event type it exists to exercise.
			want := map[string]string{"clean": "phase", "corrupt": "refute", "drift": "drift", "wire": "sample"}[trace]
			if types[want] == 0 {
				t.Errorf("%s/%s: no %q events (%v)", trace, chunking, want, types)
			}
		}
	}
	checkGolden(t, wireGolden, got)
}

// drainGolden maps each trace to the hash of the /v1/sessions/drain body
// after its c16 replay; "corrupt/redrain" is the hash of draining a fresh
// server that restored the corrupt trace's dump.
var drainGolden = map[string]string{
	"clean":           "bbb808890d714f3bc3575eb27fa4ee1f3485152f6f3c3920d748cc719ec2841d",
	"corrupt":         "37757b031b23a9dcefb8f83bb9867eaa63b4a83c5cdc093fe085c6947cb7eda2",
	"corrupt/redrain": "37757b031b23a9dcefb8f83bb9867eaa63b4a83c5cdc093fe085c6947cb7eda2",
	"drift":           "1b32e6ba3a8b6ab2f4925908ab113564db585f5b07e43df158b84396fb2a12ea",
	"wire":            "299bd904a10883770debf01513cd143711f4539eb3f299e8d5f076601686004a",
}

// TestDrainWireGolden pins the bytes of the session dump: the drain body
// after every trace's 16-sample replay, and the drain of a fresh server
// restored from one of those dumps, which must equal the dump it read.
func TestDrainWireGolden(t *testing.T) {
	fx := loadWireFixture(t)
	got := map[string]string{}
	dumps := map[string][]byte{}
	drain := func(h http.Handler) []byte {
		rec := post(h, "/v1/sessions/drain", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("drain: status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	for _, trace := range []string{"clean", "corrupt", "drift", "wire"} {
		h := metamorphicServer(t, fx)
		replayWire(t, h, wireTrace(fx, trace), "c16")
		dumps[trace] = drain(h)
		got[trace] = fmt.Sprintf("%x", sha256.Sum256(dumps[trace]))
	}
	h := metamorphicServer(t, fx)
	if rec := post(h, "/v1/sessions/restore", string(dumps["corrupt"])); rec.Code != http.StatusOK {
		t.Fatalf("restore: status %d: %s", rec.Code, rec.Body)
	}
	redrain := drain(h)
	if string(redrain) != string(dumps["corrupt"]) {
		t.Error("re-drain after restore differs from the dump that was restored")
	}
	got["corrupt/redrain"] = fmt.Sprintf("%x", sha256.Sum256(redrain))
	checkGolden(t, drainGolden, got)
}

// wireInvalidLines are skipped by RunMonitor under SkipInvalid; they are
// spliced into the monitor's wire trace.
var wireInvalidLines = []string{
	`{bad`, `{"events":{}}`, `{"events":{"NoSuchEvent":1}}`, `{"events":{"CPI":1}}`,
	`{"events":{"L2M":1e400}}`, `{"events":{"L2M":1}} x`, `{"events":{"L2M":1},"section":1.5}`,
	`null`, `[1]`, `{"events":{"L2M":1},"events":null}`, `{"events":{"L2M":"1"}}`,
}

// TestRunMonitorWireGolden feeds every trace, all sessions back to back,
// through RunMonitor and checks the event output (and the text output
// where no invalid line is skipped) against the recorded hashes.
func TestRunMonitorWireGolden(t *testing.T) {
	fx := loadWireFixture(t)
	got := map[string]string{}
	for _, trace := range []string{"clean", "corrupt", "drift", "wire"} {
		var all []string
		for _, sl := range wireTrace(fx, trace) {
			all = append(all, sl...)
		}
		if trace == "wire" {
			for i, bad := range wireInvalidLines {
				at := (i*37 + 5) % len(all)
				all = append(all[:at], append([]string{bad}, all[at:]...)...)
			}
		}
		in := strings.Join(all, "\n") + "\n"
		cfg := stream.DefaultMonitorConfig()
		cfg.RenderEvery = 16
		var text, events strings.Builder
		st, err := stream.RunMonitor(fx.tree, cfg, strings.NewReader(in), &text, &events)
		if err != nil {
			t.Fatalf("%s: %v", trace, err)
		}
		hash := sha256.New()
		io.WriteString(hash, events.String())
		stats, _ := json.Marshal(st)
		hash.Write(stats)
		if trace != "wire" {
			io.WriteString(hash, text.String())
		}
		got[trace] = fmt.Sprintf("%x", hash.Sum(nil))
	}
	checkGolden(t, monitorGolden, got)
}

// TestStreamAdversarialBodies pins the status and error code of bodies
// whose failures compete for precedence: syntax, size and batch-count
// failures win over schema failures anywhere in the body, and the first
// failing line names itself.
func TestStreamAdversarialBodies(t *testing.T) {
	cfg := streamConfig()
	cfg.MaxBatch = 8
	cfg.MaxBodyBytes = 4096
	s, _, _ := newTestServer(t, cfg)
	h := s.Handler()
	big := DefaultConfig()
	big.MaxBodyBytes = 4 << 20
	sBig, _, _ := newTestServer(t, big)
	hBig := sBig.Handler()

	valid := `{"events":{"L2M":0.001}}` + "\n"
	rep := strings.Repeat
	cases := []struct {
		name     string
		h        http.Handler
		body     string
		status   int
		code     string
		contains string
	}{
		{"oversized body, unknown event on line 1", h,
			`{"events":{"NoSuchEvent":1}}` + "\n" + `{"events":{"L2M":1}}` + rep(" ", 4096) + "\n",
			http.StatusRequestEntityTooLarge, ErrCodeTooLarge, "bytes"},
		// A line cut short by the failed read is the read failure, not a
		// malformed sample.
		{"oversized body cut mid-line", h,
			`{"events":{"NoSuchEvent":1}}` + "\n" + `{"pad":"` + rep("x", 4096) + `","events":{"L2M":1}}` + "\n",
			http.StatusRequestEntityTooLarge, ErrCodeTooLarge, "bytes"},
		{"over MaxBatch, target as event", h,
			`{"events":{"CPI":1}}` + "\n" + rep(valid, 8),
			http.StatusRequestEntityTooLarge, ErrCodeTooLarge, "batch exceeds"},
		{"over MaxBatch before a malformed line", h,
			rep(valid, 9) + "{bad\n", http.StatusRequestEntityTooLarge, ErrCodeTooLarge, "batch exceeds"},
		{"malformed line within MaxBatch", h,
			rep(valid, 7) + "{bad\n" + rep(valid, 4), http.StatusBadRequest, ErrCodeBadRequest, "line 8"},
		{"malformed line 3 after schema-invalid line 1", h,
			`{"events":{"NoSuchEvent":1}}` + "\n" + valid + "{bad\n",
			http.StatusBadRequest, ErrCodeBadRequest, "line 3"},
		{"no events on line 2 after schema-invalid line 1", h,
			`{"events":{"CPI":1}}` + "\n" + `{"bench":"x"}` + "\n",
			http.StatusBadRequest, ErrCodeBadRequest, "line 2"},
		{"schema-invalid sample 1", h,
			valid + "\n" + `{"events":{"NoSuchEvent":1}}` + "\n",
			http.StatusBadRequest, ErrCodeBadRequest, "sample 1"},
		{"target as event", h, `{"events":{"L2M":1,"CPI":1}}`, http.StatusBadRequest, ErrCodeBadRequest, "sample 0"},
		{"empty body", h, "", http.StatusBadRequest, ErrCodeBadRequest, "no samples"},
		{"blank lines only", h, "\n \n\t\r\n\r\n", http.StatusBadRequest, ErrCodeBadRequest, "no samples"},
		{"top-level null", h, "null\n", http.StatusBadRequest, ErrCodeBadRequest, "line 1"},
		{"top-level array", h, "[]\n", http.StatusBadRequest, ErrCodeBadRequest, "line 1"},
		{"fractional section", h, `{"events":{"L2M":1},"section":1.5}`, http.StatusBadRequest, ErrCodeBadRequest, "line 1"},
		{"out-of-range rate", h, `{"events":{"L2M":1e400}}`, http.StatusBadRequest, ErrCodeBadRequest, "line 1"},
		{"string rate", h, `{"events":{"L2M":"1"}}`, http.StatusBadRequest, ErrCodeBadRequest, "line 1"},
		{"trailing garbage", h, `{"events":{"L2M":1}}x`, http.StatusBadRequest, ErrCodeBadRequest, "line 1"},
		{"events reset by null", h, `{"events":{"L2M":1},"events":null}`, http.StatusBadRequest, ErrCodeBadRequest, "line 1"},
		{"schema error reset by null", h, `{"events":{"NoSuchEvent":1},"events":null,"events":{"L2M":1}}`, http.StatusOK, "", ""},
		{"null event counts as an event", h, `{"events":{"L2M":null}}`, http.StatusOK, "", ""},
		{"folded keys", h, `{"EVENTS":{"L2M":1},"ſection":3,"Cpi":1.2,"bEnch":"x"}`, http.StatusOK, "", ""},
		{"unknown fields skipped", h, `{"x":{"y":[1,{"z":null}]},"events":{"L2M":1}}`, http.StatusOK, "", ""},
		{"unknown field with bad syntax", h, `{"x":[1,],"events":{"L2M":1}}`, http.StatusBadRequest, ErrCodeBadRequest, "line 1"},
		{"over-long line", hBig, rep(" ", stream.MaxLineBytes+1) + valid, http.StatusBadRequest, ErrCodeBadRequest, "too long"},
		{"deep nesting in unknown field", hBig, `{"x":` + rep("[", 10001) + rep("]", 10001) + `,"events":{"L2M":1}}`,
			http.StatusBadRequest, ErrCodeBadRequest, "line 1"},
		{"nesting at the limit", hBig, `{"x":` + rep("[", 9999) + rep("]", 9999) + `,"events":{"L2M":1}}`,
			http.StatusOK, "", ""},
		{"nesting one past the limit", hBig, `{"x":` + rep("{\"a\":", 9999) + "[]" + rep("}", 9999) + `,"events":{"L2M":1}}`,
			http.StatusBadRequest, ErrCodeBadRequest, "line 1"},
	}
	for i, tc := range cases {
		rec := postNDJSON(tc.h, fmt.Sprintf("/v1/stream?model=cpi&session=a%d", i), tc.body)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d (%.200s)", tc.name, rec.Code, tc.status, rec.Body)
			continue
		}
		if tc.status == http.StatusOK {
			continue
		}
		var env errorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Errorf("%s: error body is not an envelope: %v", tc.name, err)
			continue
		}
		if env.Error.Code != tc.code {
			t.Errorf("%s: code %q, want %q", tc.name, env.Error.Code, tc.code)
		}
		if !strings.Contains(env.Error.Message, tc.contains) {
			t.Errorf("%s: message %q does not contain %q", tc.name, env.Error.Message, tc.contains)
		}
	}
}
