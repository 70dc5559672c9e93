package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"testing"

	"repro/internal/stream"
)

func buildPayload(t *testing.T, seed int64) *payload {
	t.Helper()
	col, err := collect(payloadSeed(seed), runtime.NumCPU())
	if err != nil {
		t.Fatal(err)
	}
	p, err := newPayload(col)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// requests renders a fixed prefix of every request kind the served
// workloads send.
func requests(p *payload) []byte {
	var out []byte
	for seq := uint64(0); seq < 700; seq += 7 {
		out = p.singleBody(out, seq)
		out = p.batchBody(out, []uint64{seq, seq + 1, seq + 2})
	}
	for s := range p.sessions {
		out = p.chunkBody(out, s, 5, streamBulk)
	}
	return out
}

func TestPayloadIsSeeded(t *testing.T) {
	a, b, c := buildPayload(t, 1), buildPayload(t, 1), buildPayload(t, 2)
	if !bytes.Equal(requests(a), requests(b)) {
		t.Error("the same seed gave different payloads")
	}
	if bytes.Equal(requests(a), requests(c)) {
		t.Error("different seeds gave the same payload")
	}
	if len(a.sessions) != 16 {
		t.Errorf("%d stream sessions, want one per suite benchmark (16)", len(a.sessions))
	}
}

func TestPayloadSeedNeverTrains(t *testing.T) {
	seen := map[int64]int64{}
	for seed := int64(-50); seed < 1000; seed++ {
		ps := payloadSeed(seed)
		if ps == trainSeed {
			t.Fatalf("seed %d maps to the training seed", seed)
		}
		if prev, ok := seen[ps]; ok {
			t.Fatalf("seeds %d and %d share payload seed %d", prev, seed, ps)
		}
		seen[ps] = seed
	}
}

// TestPredictRowsDecodeExactly checks that what the client sends is
// bit for bit the row the reference evaluator is given, and that no row
// repeats over several passes through the held-out sections.
func TestPredictRowsDecodeExactly(t *testing.T) {
	p := buildPayload(t, 3)
	n := uint64(3 * len(p.rows))
	seen := map[string]bool{}
	for seq := uint64(0); seq < n; seq++ {
		want := p.row(seq)
		key := make([]byte, 0, 8*len(want))
		for _, v := range want {
			key = appendBits(key, v)
		}
		if seen[string(key)] {
			t.Fatalf("row %d repeats an earlier row bit for bit", seq)
		}
		seen[string(key)] = true

		var single struct {
			Model  string               `json:"model"`
			Events []map[string]float64 `json:"events"`
		}
		if err := json.Unmarshal(p.singleBody(nil, seq), &single); err != nil {
			t.Fatalf("single request %d: %v", seq, err)
		}
		if single.Model != servedRef || len(single.Events) != 1 {
			t.Fatalf("single request %d: %+v", seq, single)
		}
		for j, name := range p.attrs {
			if j == p.target {
				if _, ok := single.Events[0][name]; ok {
					t.Fatalf("single request %d sends the target %s", seq, name)
				}
				continue
			}
			if got := single.Events[0][name]; math.Float64bits(got) != math.Float64bits(want[j]) {
				t.Fatalf("single request %d: %s = %v, want %v", seq, name, got, want[j])
			}
		}

		var batch struct {
			Rows [][]float64 `json:"rows"`
		}
		if err := json.Unmarshal(p.batchBody(nil, []uint64{seq}), &batch); err != nil {
			t.Fatalf("batch request %d: %v", seq, err)
		}
		for j := range want {
			if math.Float64bits(batch.Rows[0][j]) != math.Float64bits(want[j]) {
				t.Fatalf("batch row %d column %d = %v, want %v", seq, j, batch.Rows[0][j], want[j])
			}
		}
	}
}

func appendBits(dst []byte, v float64) []byte {
	b := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		dst = append(dst, byte(b>>(8*i)))
	}
	return dst
}

// TestStreamChunksDecode checks that a chunk is valid NDJSON for the
// stream decoder, in timeline order, with the observed CPI attached.
func TestStreamChunksDecode(t *testing.T) {
	p := buildPayload(t, 4)
	for s, sess := range p.sessions {
		body := p.chunkBody(nil, s, len(sess.lines)-3, streamChunk)
		dec := stream.NewDecoder(bytes.NewReader(body))
		for k := 0; k < streamChunk; k++ {
			smp, err := dec.Next()
			if err != nil {
				t.Fatalf("session %s sample %d: %v", sess.bench, k, err)
			}
			row := sess.rows[(len(sess.lines)-3+k)%len(sess.rows)]
			if smp.Bench != sess.bench || smp.CPI == nil || *smp.CPI <= 0 {
				t.Fatalf("session %s sample %d: %+v", sess.bench, k, smp)
			}
			for j, name := range p.attrs {
				if j != p.target && smp.Events[name] != row[j] {
					t.Fatalf("session %s sample %d: %s = %v, want %v", sess.bench, k, name, smp.Events[name], row[j])
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesProgram checks the metric declarations in
// BENCHMARK.json against the names and units the program prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	e2e := offlineMetrics(nil)
	e2e["setup_s"] = 0
	for _, m := range bj.EndToEnd {
		if _, ok := e2e[m.Name]; !ok {
			t.Errorf("end-to-end metric %s is not one the program reports", m.Name)
		}
		delete(e2e, m.Name)
		if u := unitOf(m.Name); u != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, program prints %q", m.Name, m.Unit, u)
		}
	}
	for n := range e2e {
		t.Errorf("the program reports %s, BENCHMARK.json does not declare it", n)
	}
	var layers []string
	for _, m := range bj.PerLayer {
		layers = append(layers, m.Name)
		if u := unitOf(m.Name); u != m.Unit {
			t.Errorf("%s: BENCHMARK.json unit %q, program prints %q", m.Name, m.Unit, u)
		}
	}
	// Every traced run must print every declared per-layer metric.
	sort.Strings(layers)
	if want := layerMetrics(); fmt.Sprint(layers) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json per-layer metrics %v, every traced run reports %v", layers, want)
	}
}
