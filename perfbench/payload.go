package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"repro/internal/counters"
	"repro/internal/dataset"
	"repro/internal/mtree"
	"repro/internal/parallel"
	"repro/internal/stream"
	"repro/internal/workload"
)

const (
	// trainSeed is the bit-frozen core2 workload seed. The served model
	// and the offline workload use it, so their collection hash, leaf
	// count and CV metrics are fixed reference values.
	trainSeed = 42
	// suiteScale is the reduced suite scale of every collection here:
	// 318 sections on core2, the scale of the repository's golden hash.
	suiteScale = 0.05
	// servedRef names the model the served workloads address.
	servedName = "served"
	servedRef  = servedName + "@v1"
	// bumpColumn is the event nudged on each reuse of a held-out section
	// so that no predict row repeats bit for bit. It is never zero in a
	// section (it is the non-memory, non-branch instruction share).
	bumpColumn = "InstOther"
)

// collectConfig is the core2 collection at the given workload seed.
func collectConfig(seed int64, jobs int) counters.CollectConfig {
	cfg := counters.DefaultCollectConfig()
	cfg.Seed = seed
	cfg.Jobs = jobs
	return cfg
}

// collect runs the reduced suite at the given workload seed.
func collect(seed int64, jobs int) (*counters.Collection, error) {
	return counters.CollectSuite(workload.SuiteScaled(suiteScale), collectConfig(seed, jobs))
}

// servedTreeConfig is the tree cmd/serve -demo ships: the paper's
// configuration with the leaf floor scaled to the reduced suite.
func servedTreeConfig(n, jobs int) mtree.Config {
	cfg := mtree.PaperConfig()
	cfg.MinLeaf = max(n/20, 4)
	cfg.Jobs = jobs
	return cfg
}

// payloadSeed maps the benchmark's --seed to the workload seed of the
// held-out payload sections; it never returns the training seed, so the
// payload is never the training data.
func payloadSeed(seed int64) int64 {
	s := parallel.DeriveSeed(seed, 0)
	if s == trainSeed {
		s = parallel.DeriveSeed(seed, 1)
	}
	return s
}

// hashCollection is the canonical collection serialization of the
// repository's golden test: every row value and breakdown value as
// little-endian float bits, and every label, folded into one SHA-256.
func hashCollection(col *counters.Collection) string {
	h := sha256.New()
	var b [8]byte
	putF := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	d := col.Data
	for i := 0; i < d.Len(); i++ {
		for _, v := range d.Row(i) {
			putF(v)
		}
	}
	for _, l := range col.Labels {
		fmt.Fprintf(h, "%s/%d/%d\n", l.Benchmark, l.Phase, l.Section)
	}
	for _, bd := range col.Breakdowns {
		for _, v := range bd {
			putF(v)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// payload holds the request material cut from held-out sections.
//
// Predict rows are drawn by a sequence number: seq mod len(rows) picks
// the section and seq / len(rows) is how many ulps bumpColumn is moved,
// so distinct sequence numbers give bit-distinct rows, the way live
// counter readings never repeat.
type payload struct {
	attrs  []string
	target int
	bump   int
	rows   []dataset.Instance
	// JSON fragments around the bumped value of each row: the named
	// events object of a single-row request and the full-width array of
	// a batch row.
	evHead, evTail, rowHead, rowTail [][]byte
	sessions                         []session
}

// session is one benchmark's held-out sections as a stream timeline.
type session struct {
	bench   string
	lines   [][]byte           // one NDJSON sample per section, in order
	samples []stream.Sample    // the same samples, decoded
	rows    []dataset.Instance // each sample as the server expands it
}

func newPayload(col *counters.Collection) (*payload, error) {
	d := col.Data
	p := &payload{bump: d.AttrIndex(bumpColumn)}
	for _, a := range d.Attrs() {
		p.attrs = append(p.attrs, a.Name)
	}
	if p.bump < 0 {
		return nil, fmt.Errorf("schema has no %s column", bumpColumn)
	}
	target := d.TargetIndex()
	p.target = target
	byBench := map[string]int{}
	for i := 0; i < d.Len(); i++ {
		row := d.Row(i)
		if row[p.bump] <= 0 {
			return nil, fmt.Errorf("section %d: %s is %v, want > 0", i, bumpColumn, row[p.bump])
		}
		p.rows = append(p.rows, row)

		var ev, arr bytes.Buffer
		ev.WriteByte('{')
		arr.WriteByte('[')
		first := true
		for j, v := range row {
			if j > 0 {
				arr.WriteByte(',')
			}
			if j == p.bump {
				p.rowHead = append(p.rowHead, bytes.Clone(arr.Bytes()))
				arr.Reset()
			} else {
				arr.Write(strconv.AppendFloat(nil, v, 'g', -1, 64))
			}
			if j == target {
				continue
			}
			if !first {
				ev.WriteByte(',')
			}
			first = false
			fmt.Fprintf(&ev, "%q:", p.attrs[j])
			if j == p.bump {
				p.evHead = append(p.evHead, bytes.Clone(ev.Bytes()))
				ev.Reset()
			} else {
				ev.Write(strconv.AppendFloat(nil, v, 'g', -1, 64))
			}
		}
		ev.WriteByte('}')
		arr.WriteByte(']')
		p.evTail = append(p.evTail, ev.Bytes())
		p.rowTail = append(p.rowTail, arr.Bytes())

		lab := col.Labels[i]
		si, ok := byBench[lab.Benchmark]
		if !ok {
			si = len(p.sessions)
			byBench[lab.Benchmark] = si
			p.sessions = append(p.sessions, session{bench: lab.Benchmark})
		}
		cpi := row[target]
		smp := stream.Sample{Bench: lab.Benchmark, Section: lab.Section, Events: map[string]float64{}, CPI: &cpi}
		srow := make(dataset.Instance, len(row))
		for j, v := range row {
			if j != target {
				smp.Events[p.attrs[j]] = v
				srow[j] = v
			}
		}
		line, err := json.Marshal(smp)
		if err != nil {
			return nil, err
		}
		s := &p.sessions[si]
		s.lines = append(s.lines, line)
		s.samples = append(s.samples, smp)
		s.rows = append(s.rows, srow)
	}
	return p, nil
}

// bumped returns v moved up by n ulps.
func bumped(v float64, n uint64) float64 {
	return math.Float64frombits(math.Float64bits(v) + n)
}

// row returns the predict row of sequence number seq.
func (p *payload) row(seq uint64) dataset.Instance {
	i, pass := seq%uint64(len(p.rows)), seq/uint64(len(p.rows))
	r := append(dataset.Instance(nil), p.rows[i]...)
	r[p.bump] = bumped(r[p.bump], pass)
	return r
}

func (p *payload) appendBumped(dst []byte, seq uint64) []byte {
	i, pass := seq%uint64(len(p.rows)), seq/uint64(len(p.rows))
	return strconv.AppendFloat(dst, bumped(p.rows[i][p.bump], pass), 'g', -1, 64)
}

// appendEvents appends the named-events object of row seq.
func (p *payload) appendEvents(dst []byte, seq uint64) []byte {
	i := seq % uint64(len(p.rows))
	dst = append(dst, p.evHead[i]...)
	dst = p.appendBumped(dst, seq)
	return append(dst, p.evTail[i]...)
}

// appendRow appends the full-width array of row seq.
func (p *payload) appendRow(dst []byte, seq uint64) []byte {
	i := seq % uint64(len(p.rows))
	dst = append(dst, p.rowHead[i]...)
	dst = p.appendBumped(dst, seq)
	return append(dst, p.rowTail[i]...)
}

// singleBody is a one-row named-events /v1/predict request.
func (p *payload) singleBody(dst []byte, seq uint64) []byte {
	dst = append(dst, `{"model":"`+servedRef+`","events":[`...)
	dst = p.appendEvents(dst, seq)
	return append(dst, "]}"...)
}

// batchBody is a full-width /v1/predict batch of the given rows.
func (p *payload) batchBody(dst []byte, seqs []uint64) []byte {
	dst = append(dst, `{"model":"`+servedRef+`","rows":[`...)
	for k, s := range seqs {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = p.appendRow(dst, s)
	}
	return append(dst, "]}"...)
}

// chunkBody is the NDJSON body of n consecutive samples of session s
// starting at position pos of its looped timeline.
func (p *payload) chunkBody(dst []byte, s, pos, n int) []byte {
	ss := &p.sessions[s]
	for k := 0; k < n; k++ {
		dst = append(dst, ss.lines[(pos+k)%len(ss.lines)]...)
		dst = append(dst, '\n')
	}
	return dst
}
