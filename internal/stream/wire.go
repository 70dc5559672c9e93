package stream

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/jsonscan"
)

// The NDJSON wire codec of the stream layer: one single-pass, reflection-
// free parser for sample lines, built on the shared scanner in
// internal/jsonscan, and an append encoder for events. Both are held to
// encoding/json's exact behaviour — the parser accepts precisely the
// lines json.Unmarshal into a Sample (plus Validate) accepts and decodes
// them to the same values, the encoder writes the bytes json.Marshal
// would — and differential tests against encoding/json enforce it (see
// DESIGN.md §9, "wire codec").

// sampleField is a top-level Sample key.
type sampleField int

const (
	fieldUnknown sampleField = iota
	fieldBench
	fieldSection
	fieldEvents
	fieldCPI
)

// sampleFieldNames are the Sample keys in sampleField order, from
// fieldBench.
var sampleFieldNames = []string{"bench", "section", "events", "cpi"}

// errNoEvents is Validate's verdict on a sample whose events object is
// absent, null or empty.
var errNoEvents = errors.New("stream: sample has no events")

// sampleSink receives one line's decoded sample: into row, resolved
// onto sc's layout, or with sc nil into the events map.
type sampleSink struct {
	sc  *Schema
	row []float64
	// events is the map target; nil where json.Unmarshal would leave
	// the map nil.
	events map[string]float64

	bench   string
	section int
	cpi     float64
	hasCPI  bool
	// nonEmpty: at least one event key since the last "events":null.
	nonEmpty bool
	// schemaErr is the first schema violation since the last reset.
	schemaErr error
}

// resetEvents implements "events":null: json.Unmarshal sets the map to
// nil, discarding every event (and every schema violation) seen so far.
func (s *sampleSink) resetEvents() {
	s.nonEmpty = false
	s.schemaErr = nil
	if s.sc == nil {
		s.events = nil
		return
	}
	clear(s.row)
}

// event stores one events-object member; a later duplicate overwrites an
// earlier one, as a map assignment does.
func (s *sampleSink) event(key []byte, v float64) {
	s.nonEmpty = true
	if s.sc == nil {
		s.events[string(key)] = v
		return
	}
	i, ok := s.sc.attrIdx[string(key)]
	switch {
	case !ok:
		if s.schemaErr == nil {
			s.schemaErr = s.sc.unknownEvent(string(key))
		}
	case i == s.sc.targetIdx:
		if s.schemaErr == nil {
			s.schemaErr = s.sc.targetEvent(string(key))
		}
	default:
		s.row[i] = v
	}
}

// lineParser decodes one NDJSON line at a time. Its scanner's scratch
// buffer for unescaped strings is reused across lines, so decoded
// strings alias it until the next string is parsed.
type lineParser struct {
	jsonscan.Scanner
	bench string // the last bench label, reused while it repeats
}

// parse decodes line into s. A returned error rejects the line (syntax,
// type or Validate failure); a schema violation is not an error here but
// is left in s.schemaErr for the caller's precedence rules.
func (p *lineParser) parse(line []byte, s *sampleSink) error {
	p.Reset(line, "stream: malformed sample")
	p.WS()
	if null, err := p.Null(); err != nil {
		return err
	} else if null {
		// A top-level null decodes to the zero Sample: no events.
		if err := p.End(); err != nil {
			return err
		}
		return errNoEvents
	}
	if !p.Is('{') {
		return p.TypeError("a sample", "a JSON object")
	}
	err := p.Object(func(key []byte) error {
		return p.field(sampleField(jsonscan.MatchField(key, sampleFieldNames)+1), s)
	})
	if err != nil {
		return err
	}
	if err := p.End(); err != nil {
		return err
	}
	if !s.nonEmpty {
		return errNoEvents
	}
	return nil
}

// field decodes the value of one top-level member.
func (p *lineParser) field(f sampleField, s *sampleSink) error {
	if f == fieldUnknown {
		return p.Skip(1)
	}
	if null, err := p.Null(); err != nil {
		return err
	} else if null {
		// null clears a pointer or map and leaves a string or int as is.
		switch f {
		case fieldCPI:
			s.cpi, s.hasCPI = 0, false
		case fieldEvents:
			s.resetEvents()
		}
		return nil
	}
	switch f {
	case fieldBench:
		if !p.Is('"') {
			return p.TypeError(`"bench"`, "a string")
		}
		v, err := p.Str()
		if err != nil {
			return err
		}
		// Consecutive samples nearly always share a label: allocate a
		// string only when it changes.
		if string(v) != p.bench {
			p.bench = string(v)
		}
		s.bench = p.bench
	case fieldSection:
		tok, err := p.Number(`"section"`, "an integer")
		if err != nil {
			return err
		}
		n, err := strconv.ParseInt(string(tok), 10, 64)
		if err != nil || n != int64(int(n)) {
			return p.TypeError(`"section"`, "an integer")
		}
		s.section = int(n)
	case fieldCPI:
		v, err := p.Float(`"cpi"`)
		if err != nil {
			return err
		}
		s.cpi, s.hasCPI = v, true
	case fieldEvents:
		return p.events(s)
	}
	return nil
}

// events decodes an events object, merging into what earlier events
// objects of the same line contributed.
func (p *lineParser) events(s *sampleSink) error {
	if !p.Is('{') {
		return p.TypeError(`"events"`, "an object")
	}
	if s.sc == nil && s.events == nil {
		s.events = make(map[string]float64)
	}
	return p.Object(func(key []byte) error {
		// A null rate leaves the fresh map element at 0.
		var v float64
		null, err := p.Null()
		if err != nil {
			return err
		}
		if !null {
			if v, err = p.Float("an event rate"); err != nil {
				return err
			}
		}
		s.event(key, v)
		return nil
	})
}

// AppendEvent appends ev as one NDJSON line — byte-identical to what
// json.Marshal writes for it, plus the newline — to dst. A non-finite
// float fails the whole event, leaving dst as it was, as encoding/json
// does.
func AppendEvent(dst []byte, ev *Event) ([]byte, error) {
	for _, f := range [...]float64{ev.Predicted, ev.TopFraction, ev.Stat, ev.MeanResidual, ev.Deviation} {
		if err := checkFinite(f); err != nil {
			return dst, err
		}
	}
	for _, f := range [...]*float64{ev.Observed, ev.Residual} {
		if f != nil {
			if err := checkFinite(*f); err != nil {
				return dst, err
			}
		}
	}
	dst = append(dst, `{"type":`...)
	dst = appendString(dst, ev.Type)
	dst = append(dst, `,"section":`...)
	dst = strconv.AppendInt(dst, int64(ev.Section), 10)
	dst = appendStringField(dst, `,"bench":`, ev.Bench)
	dst = appendIntField(dst, `,"phase":`, ev.Phase)
	dst = appendFloatField(dst, `,"predicted":`, ev.Predicted)
	if ev.Observed != nil {
		dst = appendFloat(append(dst, `,"observed":`...), *ev.Observed)
	}
	if ev.Residual != nil {
		dst = appendFloat(append(dst, `,"residual":`...), *ev.Residual)
	}
	dst = appendStringField(dst, `,"top_event":`, ev.TopEvent)
	dst = appendFloatField(dst, `,"top_fraction":`, ev.TopFraction)
	dst = appendIntField(dst, `,"phase_start":`, ev.PhaseStart)
	dst = appendStringField(dst, `,"direction":`, ev.Direction)
	dst = appendFloatField(dst, `,"stat":`, ev.Stat)
	dst = appendFloatField(dst, `,"mean_residual":`, ev.MeanResidual)
	dst = appendIntField(dst, `,"run_length":`, ev.RunLength)
	dst = appendStringField(dst, `,"relation":`, ev.Relation)
	dst = appendStringField(dst, `,"verdict":`, string(ev.Verdict))
	dst = appendFloatField(dst, `,"deviation":`, ev.Deviation)
	return append(dst, '}', '\n'), nil
}

func checkFinite(f float64) error {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("stream: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	return nil
}

// The omitempty fields: a zero value (including -0) is left out.

func appendStringField(dst []byte, name, v string) []byte {
	if v == "" {
		return dst
	}
	return appendString(append(dst, name...), v)
}

func appendIntField(dst []byte, name string, v int) []byte {
	if v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, name...), int64(v), 10)
}

func appendFloatField(dst []byte, name string, v float64) []byte {
	if v == 0 {
		return dst
	}
	return appendFloat(append(dst, name...), v)
}

// appendFloat formats a finite float64 as encoding/json does: 'f' form,
// or 'e' form with a trimmed exponent outside [1e-6, 1e21).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// appendString writes s as a JSON string with encoding/json's HTML-safe
// escaping: <, > and & as \u escapes, U+2028 and U+2029 escaped, control
// bytes escaped, and each invalid UTF-8 byte as �.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
