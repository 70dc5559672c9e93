package stream_test

// Property test for the streaming driver: for a fixed sample sequence,
// RunMonitor's observable behavior — final stats, the NDJSON event
// stream and the rolling text output — does not depend on how the
// input bytes arrive, and its events are exactly what a Processor emits
// for the same samples ingested in any batching. The traces carry
// corrupt counter readings, so refutation verdicts are under test too;
// malformed and schema-violating lines are injected so the skip path is
// covered as well.

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"repro/internal/mtree"
	"repro/internal/proptest"
	"repro/internal/stream"
)

// genTrace renders an NDJSON input with a mid-trace regime change, a
// fraction of prediction-only samples (no cpi field), negated DTLB
// readings in most samples from somewhere in the first third on, and
// occasional invalid lines a SkipInvalid monitor must step over.
func genTrace(r *proptest.Rand, total int) string {
	var b strings.Builder
	enc := json.NewEncoder(&b)
	boundary := total / 2
	corruptFrom := r.Intn(total/3 + 1)
	for i := 0; i < total; i++ {
		if r.Bool(0.04) {
			b.WriteString("not json\n")
		}
		if r.Bool(0.04) {
			b.WriteString(`{"events":{"NoSuchEvent":1}}` + "\n")
		}
		var l1, l2, dt float64
		if i < boundary {
			l1, l2, dt = r.Range(0.010, 0.014), r.Range(0.0006, 0.0010), r.Range(0.0001, 0.0002)
		} else {
			l1, l2, dt = r.Range(0.002, 0.004), r.Range(0.0038, 0.0044), r.Range(0.0005, 0.0008)
		}
		if i >= corruptFrom && r.Bool(0.7) {
			dt = -dt
		}
		s := stream.Sample{Bench: "trace", Section: i,
			Events: map[string]float64{"L1IM": l1, "L2M": l2, "DtlbLdM": dt}}
		if r.Bool(0.8) {
			cpi := 0.6 + 7*l1
			if l2 > 0.002 {
				cpi = 1.1 + 90*l2 + 40*dt
			}
			cpi += 0.01 * r.NormFloat64()
			s.CPI = &cpi
		}
		if err := enc.Encode(&s); err != nil {
			panic(err)
		}
	}
	return b.String()
}

// chunkReader hands out its input in seeded-random pieces of 1 to 97
// bytes, so lines arrive split across reads.
type chunkReader struct {
	r   *proptest.Rand
	buf []byte
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.buf) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(c.buf), c.r.IntBetween(1, 97))
	copy(p, c.buf[:n])
	c.buf = c.buf[n:]
	return n, nil
}

// TestRunMonitorJobsInvariance: Config.Jobs is unused but still
// settable (the benchmark harness assigns it), so RunMonitor's stats,
// events and text must be identical at any Jobs setting.
func TestRunMonitorJobsInvariance(t *testing.T) {
	r := proptest.NewRand(proptest.CaseSeed("monitor-model", 0))
	tree, err := mtree.Build(proptest.PerfDataset(r, 600), mtree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	proptest.Run(t, "monitor-jobs", 5, func(t *testing.T, r *proptest.Rand) {
		input := genTrace(r, r.IntBetween(50, 150))
		run := func(jobs int) (stream.Stats, []byte, []byte) {
			cfg := stream.DefaultMonitorConfig()
			cfg.Jobs = jobs
			cfg.RenderEvery = 8
			var text, events bytes.Buffer
			st, err := stream.RunMonitor(tree, cfg, strings.NewReader(input), &text, &events)
			if err != nil {
				t.Fatalf("RunMonitor(jobs=%d): %v", jobs, err)
			}
			return st, text.Bytes(), events.Bytes()
		}
		st1, text1, ev1 := run(1)
		st4, text4, ev4 := run(4)
		if st1 != st4 {
			t.Fatalf("stats diverge between Jobs=1 and Jobs=4:\n%+v\n%+v", st1, st4)
		}
		if !bytes.Equal(ev1, ev4) {
			t.Fatal("event streams diverge between Jobs=1 and Jobs=4")
		}
		if !bytes.Equal(text1, text4) {
			t.Fatal("text output diverges between Jobs=1 and Jobs=4")
		}
		if st1.Scored == 0 {
			t.Fatal("no sections scored: the invariance tested nothing")
		}
	})
}

func TestRunMonitorChunkingInvariance(t *testing.T) {
	r := proptest.NewRand(proptest.CaseSeed("monitor-model", 0))
	tree, err := mtree.Build(proptest.PerfDataset(r, 600), mtree.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.DefaultMonitorConfig()
	cfg.RenderEvery = 8

	proptest.Run(t, "monitor-chunking", 5, func(t *testing.T, r *proptest.Rand) {
		input := genTrace(r, r.IntBetween(50, 150))
		run := func(in io.Reader) (stream.Stats, []byte, []byte) {
			var text, events bytes.Buffer
			st, err := stream.RunMonitor(tree, cfg, in, &text, &events)
			if err != nil {
				t.Fatalf("RunMonitor: %v", err)
			}
			return st, text.Bytes(), events.Bytes()
		}
		st, text, events := run(strings.NewReader(input))
		if st.Scored == 0 || !bytes.Contains(events, []byte(`"type":"refute"`)) {
			t.Fatalf("%d sections scored, refute events %v: the invariance tested nothing",
				st.Scored, bytes.Contains(events, []byte(`"type":"refute"`)))
		}
		stC, textC, eventsC := run(&chunkReader{r: r.Split(), buf: []byte(input)})
		if stC != st || !bytes.Equal(eventsC, events) || !bytes.Equal(textC, text) {
			t.Fatal("RunMonitor output depends on how the input bytes arrive")
		}

		// The same samples through a Processor in random IngestBatch
		// chunks, closed by Flush at the end of input as RunMonitor does.
		sc, err := stream.NewSchema(tree.Describe())
		if err != nil {
			t.Fatal(err)
		}
		var recs []stream.Record
		dec := stream.NewDecoder(strings.NewReader(input))
		for {
			rec, err := dec.NextRecord(sc)
			if err == io.EOF {
				break
			}
			if err == nil && rec.Err == nil {
				recs = append(recs, rec)
			}
		}
		p, err := stream.NewProcessor(tree, cfg.Config)
		if err != nil {
			t.Fatal(err)
		}
		var got []byte
		for len(recs) > 0 {
			n := min(len(recs), r.IntBetween(1, 40))
			evs, err := p.IngestBatch(recs[:n])
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == n {
				flushed, _ := p.Flush()
				evs = append(evs, flushed...)
			}
			for i := range evs {
				if got, err = stream.AppendEvent(got, &evs[i]); err != nil {
					t.Fatal(err)
				}
			}
			recs = recs[n:]
		}
		if !bytes.Equal(got, events) {
			t.Fatalf("batched ingestion diverged from RunMonitor:\n got %s\nwant %s", got, events)
		}
	})
}
