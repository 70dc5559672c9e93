// Package stream is the online layer over the batch pipeline: it ingests
// per-section counter samples as NDJSON, scores each one through any
// model.Model as it arrives, and runs three online monitors over the
// scored sequence — an incremental phase tracker (internal/phases), a
// Page–Hinkley drift detector over the predicted-vs-observed CPI
// residual, and the counter-consistency checker (internal/refute). It
// turns the paper's regression-detection use case ("did the machine stop
// behaving the way the trained model says?") into a continuous process
// instead of an offline comparison.
//
// Determinism contract: every event is a function of the session's
// sample sequence alone. Monitor state advances in input order, one
// sample at a time, and refutation windows close every
// refute.WindowSections sections counted from session start, so how a
// producer splits its samples into calls or requests — or where a
// session is drained and restored — never changes an event.
package stream

import (
	"bufio"
	"fmt"
	"io"
	"math"

	"repro/internal/dataset"
	"repro/internal/model"
)

// Sample is one NDJSON stream record: one workload section's
// per-instruction event rates, optionally with the observed target value
// (CPI) that enables drift monitoring.
//
//	{"bench":"mcf","section":1042,"events":{"L2M":0.0041,"L1IM":0.002},"cpi":1.41}
type Sample struct {
	// Bench labels the producing workload; informational.
	Bench string `json:"bench,omitempty"`
	// Section is the producer's own section index; informational (the
	// monitor numbers sections by arrival order).
	Section int `json:"section,omitempty"`
	// Events maps event names (model schema attribute names) to
	// per-instruction rates. Absent events default to 0.
	Events map[string]float64 `json:"events"`
	// CPI is the observed target value, if the producer measured it.
	// Without it the sample is scored but cannot feed the drift monitor.
	CPI *float64 `json:"cpi,omitempty"`
}

// Validate checks structural invariants every consumer relies on:
// events present, all values finite.
func (s *Sample) Validate() error {
	if len(s.Events) == 0 {
		return fmt.Errorf("stream: sample has no events")
	}
	for name, v := range s.Events {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("stream: non-finite rate %v for event %q", v, name)
		}
	}
	if s.CPI != nil && (math.IsNaN(*s.CPI) || math.IsInf(*s.CPI, 0)) {
		return fmt.Errorf("stream: non-finite observed cpi %v", *s.CPI)
	}
	return nil
}

// Record is one sample resolved onto a model's attribute layout — the
// form the processor scores. The row decoder (Decoder.NextRecord)
// produces records straight from the wire, without a Sample's event map.
type Record struct {
	// Bench and Section echo the sample's labels.
	Bench   string
	Section int
	// Row is the full-width instance: each reported event in its schema
	// column, every other column (the target included) 0.
	Row dataset.Instance
	// CPI is the observed target value when HasCPI is set.
	CPI    float64
	HasCPI bool
	// Err is the sample's schema violation — an unknown event, or the
	// target reported as an event — if it has one. Such a record is
	// well-formed NDJSON but must not be ingested.
	Err error
}

// MaxLineBytes caps one NDJSON line; a model schema has a few dozen
// events, so a megabyte is already far beyond any legitimate sample.
const MaxLineBytes = 1 << 20

// Decoder reads newline-delimited samples, skipping blank lines and
// reporting errors with 1-based line numbers. Malformed lines are
// recoverable — the next Next call moves on — but scanner failures
// (an over-long line, a transport error from the underlying reader)
// are terminal: they stick, and every subsequent Next returns the same
// error, reported by Failed.
type Decoder struct {
	sc   *bufio.Scanner
	line int
	err  error // sticky: io.EOF or a terminal read failure
	p    lineParser
}

// NewDecoder wraps r in an NDJSON sample decoder. The line buffer starts
// at bufio's 4 KiB (a served-schema sample is a few hundred bytes) and
// grows on demand up to MaxLineBytes.
func NewDecoder(r io.Reader) *Decoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, MaxLineBytes)
	return &Decoder{sc: sc}
}

// Line returns the 1-based number of the last line handed out.
func (d *Decoder) Line() int { return d.line }

// Next returns the next sample, io.EOF at end of stream, or a decode /
// validation error tagged with the line number. After a malformed line
// the decoder remains usable, so callers can choose to skip and go on;
// after a terminal read failure (Failed reports true) skipping cannot
// make progress and Next keeps returning the same error.
func (d *Decoder) Next() (Sample, error) {
	b, err := d.scan()
	if err != nil {
		return Sample{}, err
	}
	s, err := d.p.sample(b)
	if err != nil {
		return Sample{}, fmt.Errorf("line %d: %w", d.line, err)
	}
	return s, nil
}

// NextRecord is Next for the row form: the sample is decoded straight
// onto sc's layout. Syntax and validation failures are errors, as in
// Next; a schema violation is not — it is returned in Record.Err, so a
// batch caller can give every malformed line precedence over any schema
// error in the body.
func (d *Decoder) NextRecord(sc *Schema) (Record, error) {
	b, err := d.scan()
	if err != nil {
		return Record{}, err
	}
	sink := sampleSink{sc: sc, row: make(dataset.Instance, len(sc.desc.AttrNames))}
	if err := d.p.parse(b, &sink); err != nil {
		return Record{}, fmt.Errorf("line %d: %w", d.line, err)
	}
	return Record{Bench: sink.bench, Section: sink.section, Row: sink.row,
		CPI: sink.cpi, HasCPI: sink.hasCPI, Err: sink.schemaErr}, nil
}

// scan returns the next non-blank line.
func (d *Decoder) scan() ([]byte, error) {
	if d.err != nil {
		return nil, d.err
	}
	for d.sc.Scan() {
		if d.sc.Err() != nil {
			// The read failed and the scanner is handing out what it
			// had buffered; a line cut short there is the failure, not
			// a malformed sample.
			break
		}
		d.line++
		if b := d.sc.Bytes(); len(trimSpace(b)) > 0 {
			return b, nil
		}
	}
	if err := d.sc.Err(); err != nil {
		d.err = fmt.Errorf("stream: reading samples: %w", err)
	} else {
		d.err = io.EOF
	}
	return nil, d.err
}

// sample decodes one line into the map form.
func (p *lineParser) sample(line []byte) (Sample, error) {
	var sink sampleSink
	if err := p.parse(line, &sink); err != nil {
		return Sample{}, err
	}
	s := Sample{Bench: sink.bench, Section: sink.section, Events: sink.events}
	if sink.hasCPI {
		s.CPI = &sink.cpi
	}
	return s, nil
}

// Failed reports whether the decoder has hit an unrecoverable read
// error — a bufio.Scanner failure such as a line over MaxLineBytes or
// an error from the underlying reader. Unlike a malformed line, this
// state is permanent: drivers that skip bad lines must still abort on
// it or they would spin on the same error forever.
func (d *Decoder) Failed() bool { return d.err != nil && d.err != io.EOF }

// trimSpace trims ASCII whitespace without allocating.
func trimSpace(b []byte) []byte {
	for len(b) > 0 && isSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// Schema precomputes the lookups for mapping samples onto a model's
// attribute layout. It is immutable, so one schema serves any number of
// concurrent decoders and processors of the same model.
type Schema struct {
	desc      model.Description
	attrIdx   map[string]int
	targetIdx int
	featIdx   []int // non-target columns in schema order
}

// NewSchema builds the schema of a model description; the description
// must name its target column.
func NewSchema(desc model.Description) (*Schema, error) {
	s := &Schema{desc: desc, attrIdx: make(map[string]int, len(desc.AttrNames)), targetIdx: -1}
	for i, n := range desc.AttrNames {
		s.attrIdx[n] = i
		if n == desc.Target {
			s.targetIdx = i
		} else {
			s.featIdx = append(s.featIdx, i)
		}
	}
	if s.targetIdx < 0 {
		return nil, fmt.Errorf("stream: model schema has no target column %q", desc.Target)
	}
	return s, nil
}

func (sc *Schema) unknownEvent(name string) error {
	return fmt.Errorf("stream: unknown event %q (model %s schema)", name, sc.desc.Kind)
}

func (sc *Schema) targetEvent(name string) error {
	return fmt.Errorf("stream: event %q is the model target; report it as \"cpi\"", name)
}

// check validates a sample's event names against the schema without
// allocating the full-width row — the cheap half of instance, for
// callers that only need the verdict.
func (sc *Schema) check(s *Sample) error {
	for name := range s.Events {
		i, ok := sc.attrIdx[name]
		if !ok {
			return sc.unknownEvent(name)
		}
		if i == sc.targetIdx {
			return sc.targetEvent(name)
		}
	}
	return nil
}

// instance expands a sample's named events into a full-width instance.
// The target column is left 0 — the observed CPI is monitor input, never
// model input. Unknown event names are an error: a silently dropped
// counter would make every downstream prediction quietly wrong.
func (sc *Schema) instance(s *Sample) (dataset.Instance, error) {
	row := make(dataset.Instance, len(sc.desc.AttrNames))
	for name, v := range s.Events {
		i, ok := sc.attrIdx[name]
		if !ok {
			return nil, sc.unknownEvent(name)
		}
		if i == sc.targetIdx {
			return nil, sc.targetEvent(name)
		}
		row[i] = v
	}
	return row, nil
}

// record resolves a sample onto the schema's layout (see instance).
func (sc *Schema) record(s *Sample) (Record, error) {
	row, err := sc.instance(s)
	if err != nil {
		return Record{}, err
	}
	rec := Record{Bench: s.Bench, Section: s.Section, Row: row}
	if s.CPI != nil {
		rec.CPI, rec.HasCPI = *s.CPI, true
	}
	return rec, nil
}

// featureVector fills dst with the raw non-target values of a
// full-width instance, in schema order — the phase tracker's input
// space. dst must have one slot per feature column.
func (sc *Schema) featureVector(dst []float64, row dataset.Instance) {
	for j, f := range sc.featIdx {
		dst[j] = row[f]
	}
}
