package stream

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// The NDJSON wire codec of the stream layer: one single-pass, reflection-
// free parser for sample lines and an append encoder for events. Both are
// held to encoding/json's exact behaviour — the parser accepts precisely
// the lines json.Unmarshal into a Sample (plus Validate) accepts and
// decodes them to the same values, the encoder writes the bytes
// json.Marshal would — and differential tests against encoding/json
// enforce it (see DESIGN.md §9, "wire codec").

// maxNestingDepth is encoding/json's nesting limit: a line whose
// containers nest deeper is a syntax error even inside a skipped field.
const maxNestingDepth = 10000

// sampleField is a top-level Sample key.
type sampleField int

const (
	fieldUnknown sampleField = iota
	fieldBench
	fieldSection
	fieldEvents
	fieldCPI
)

var sampleFieldNames = [...][]byte{
	fieldBench:   []byte("bench"),
	fieldSection: []byte("section"),
	fieldEvents:  []byte("events"),
	fieldCPI:     []byte("cpi"),
}

// matchField resolves a decoded top-level key the way encoding/json
// matches struct fields: exact name first, then a case-insensitive match
// under Unicode simple folding (so "ſection" is "section").
func matchField(key []byte) sampleField {
	switch string(key) {
	case "bench":
		return fieldBench
	case "section":
		return fieldSection
	case "events":
		return fieldEvents
	case "cpi":
		return fieldCPI
	}
	for f := fieldBench; f <= fieldCPI; f++ {
		if bytes.EqualFold(key, sampleFieldNames[f]) {
			return f
		}
	}
	return fieldUnknown
}

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

// lineParser decodes one NDJSON line at a time. Its scratch buffer for
// unescaped strings is reused across lines, so decoded strings alias it
// until the next string is parsed.
type lineParser struct {
	b     []byte
	i     int
	esc   []byte
	bench string // the last bench label, reused while it repeats
}

// syntaxError reports a malformed line at the current offset.
func (p *lineParser) syntaxError(what string) error {
	if p.i >= len(p.b) {
		return fmt.Errorf("stream: malformed sample: unexpected end of input %s", what)
	}
	return fmt.Errorf("stream: malformed sample: invalid character %q at offset %d %s", p.b[p.i], p.i, what)
}

func typeError(field, want string) error {
	return fmt.Errorf("stream: malformed sample: %s must be %s", field, want)
}

// parse decodes line into s. A returned error rejects the line (syntax,
// type or Validate failure); a schema violation is not an error here but
// is left in s.schemaErr for the caller's precedence rules.
func (p *lineParser) parse(line []byte, s *sampleSink) error {
	p.b, p.i = line, 0
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == 'n' {
		// A top-level null decodes to the zero Sample: no events.
		if err := p.literal("null"); err != nil {
			return err
		}
		if err := p.end(); err != nil {
			return err
		}
		return errNoEvents
	}
	if p.i >= len(p.b) || p.b[p.i] != '{' {
		return typeError("a sample", "a JSON object")
	}
	err := p.object(func(key []byte) error { return p.field(matchField(key), s) })
	if err != nil {
		return err
	}
	if err := p.end(); err != nil {
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
		return p.skip(1)
	}
	if p.i < len(p.b) && p.b[p.i] == 'n' {
		if err := p.literal("null"); err != nil {
			return err
		}
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
		if p.i >= len(p.b) || p.b[p.i] != '"' {
			return typeError(`"bench"`, "a string")
		}
		v, err := p.str()
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
		tok, err := p.number(`"section"`, "an integer")
		if err != nil {
			return err
		}
		n, err := strconv.ParseInt(string(tok), 10, 64)
		if err != nil || n != int64(int(n)) {
			return typeError(`"section"`, "an integer")
		}
		s.section = int(n)
	case fieldCPI:
		v, err := p.float(`"cpi"`)
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
	if p.i >= len(p.b) || p.b[p.i] != '{' {
		return typeError(`"events"`, "an object")
	}
	if s.sc == nil && s.events == nil {
		s.events = make(map[string]float64)
	}
	return p.object(func(key []byte) error {
		var v float64
		if p.i < len(p.b) && p.b[p.i] == 'n' {
			// A null rate leaves the fresh map element at 0.
			if err := p.literal("null"); err != nil {
				return err
			}
		} else {
			var err error
			if v, err = p.float("an event rate"); err != nil {
				return err
			}
		}
		s.event(key, v)
		return nil
	})
}

// object walks the members of the JSON object at the cursor, calling
// member with each decoded key while the cursor is on the member's value;
// member must consume the value. The key aliases parser memory.
func (p *lineParser) object(member func(key []byte) error) error {
	p.i++ // '{'
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == '}' {
		p.i++
		return nil
	}
	for {
		key, err := p.str()
		if err != nil {
			return err
		}
		p.ws()
		if p.i >= len(p.b) || p.b[p.i] != ':' {
			return p.syntaxError("after object key")
		}
		p.i++
		p.ws()
		if err := member(key); err != nil {
			return err
		}
		p.ws()
		if p.i < len(p.b) && p.b[p.i] == ',' {
			p.i++
			p.ws()
			continue
		}
		if p.i < len(p.b) && p.b[p.i] == '}' {
			p.i++
			return nil
		}
		return p.syntaxError("after object key:value pair")
	}
}

// float parses a JSON number as encoding/json does for a float64: the
// JSON grammar, then strconv.ParseFloat, whose range error rejects.
func (p *lineParser) float(what string) (float64, error) {
	tok, err := p.number(what, "a number")
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("stream: malformed sample: %s %s out of range", what, tok)
	}
	return v, nil
}

// number scans a JSON number token; any other value is a type error.
func (p *lineParser) number(what, want string) ([]byte, error) {
	b, start := p.b, p.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for i++; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		}
	default:
		if i == start {
			return nil, typeError(what, want)
		}
		p.i = i
		return nil, p.syntaxError("in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			p.i = i
			return nil, p.syntaxError("after decimal point in numeric literal")
		}
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			p.i = i
			return nil, p.syntaxError("in exponent of numeric literal")
		}
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		}
	}
	p.i = i
	return b[start:i], nil
}

// str scans a JSON string at the cursor and returns its decoded bytes:
// a slice of the line when nothing needs unescaping, else of the
// parser's escape buffer. Decoding follows encoding/json exactly,
// including U+FFFD for invalid UTF-8 and for unpaired surrogates.
func (p *lineParser) str() ([]byte, error) {
	b := p.b
	if p.i >= len(b) || b[p.i] != '"' {
		return nil, p.syntaxError("looking for beginning of object key string")
	}
	start := p.i + 1
	i := start
	for i < len(b) {
		c := b[i]
		if c == '"' {
			p.i = i + 1
			return b[start:i], nil
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	out := append(p.esc[:0], b[start:i]...)
	for {
		if i >= len(b) {
			p.i = i
			return nil, p.syntaxError("in string literal")
		}
		c := b[i]
		switch {
		case c == '"':
			p.i = i + 1
			p.esc = out
			return out, nil
		case c == '\\':
			if i+1 >= len(b) {
				p.i = i + 1
				return nil, p.syntaxError("in string escape code")
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				out = append(out, unescape[e])
				i += 2
			case 'u':
				r := getu4(b[i:])
				if r < 0 {
					p.i = i + 2
					return nil, p.syntaxError("in \\u hexadecimal character escape")
				}
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, getu4(b[i:])); dec != unicode.ReplacementChar {
						out = utf8.AppendRune(out, dec)
						i += 6
						break
					}
					r = unicode.ReplacementChar
				}
				out = utf8.AppendRune(out, r)
			default:
				p.i = i + 1
				return nil, p.syntaxError("in string escape code")
			}
		case c < ' ':
			p.i = i
			return nil, p.syntaxError("in string literal")
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
}

// unescape maps the character after a backslash to the byte it stands
// for, for every single-character escape JSON defines.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// getu4 decodes the \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// skip syntax-checks and passes over one value of an unknown field;
// depth counts the containers already open around it.
func (p *lineParser) skip(depth int) error {
	if p.i >= len(p.b) {
		return p.syntaxError("looking for beginning of value")
	}
	switch c := p.b[p.i]; {
	case c == '"':
		_, err := p.str()
		return err
	case c == '{' || c == '[':
		if depth++; depth > maxNestingDepth {
			return fmt.Errorf("stream: malformed sample: exceeded max depth")
		}
		if c == '{' {
			return p.object(func([]byte) error { return p.skip(depth) })
		}
		p.i++
		p.ws()
		if p.i < len(p.b) && p.b[p.i] == ']' {
			p.i++
			return nil
		}
		for {
			if err := p.skip(depth); err != nil {
				return err
			}
			p.ws()
			if p.i < len(p.b) && p.b[p.i] == ',' {
				p.i++
				p.ws()
				continue
			}
			if p.i < len(p.b) && p.b[p.i] == ']' {
				p.i++
				return nil
			}
			return p.syntaxError("after array element")
		}
	case c == 't':
		return p.literal("true")
	case c == 'f':
		return p.literal("false")
	case c == 'n':
		return p.literal("null")
	default:
		_, err := p.number("a value", "valid JSON")
		return err
	}
}

// literal consumes the exact keyword lit.
func (p *lineParser) literal(lit string) error {
	for k := 0; k < len(lit); k++ {
		if p.i >= len(p.b) || p.b[p.i] != lit[k] {
			return p.syntaxError("in literal " + lit)
		}
		p.i++
	}
	return nil
}

// ws skips JSON whitespace.
func (p *lineParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\r', '\n':
			p.i++
		default:
			return
		}
	}
}

// end requires nothing but whitespace after the top-level value.
func (p *lineParser) end() error {
	p.ws()
	if p.i < len(p.b) {
		return p.syntaxError("after top-level value")
	}
	return nil
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
