// Package jsonscan is the single-pass, reflection-free JSON scanner
// behind the service's request decoders: the /v1/stream NDJSON sample
// parser (internal/stream) and the /v1/predict and /v1/classify body
// decoder (internal/serve). It holds the grammar half of both — strings
// with every escape, numbers, literals, objects, arrays, skipping and
// the nesting limit — and leaves the mapping of values onto Go types to
// its callers.
//
// Every piece follows encoding/json exactly: Str decodes to the bytes
// encoding/json would (U+FFFD for invalid UTF-8 and unpaired
// surrogates), Number accepts the JSON number grammar, Float yields the
// bits strconv.ParseFloat does and rejects what it reports out of range,
// and Skip enforces encoding/json's nesting limit. Float parses a number
// in the pass that checks its grammar: short numbers, the common case
// for counter rates, take Clinger's exact fast path, and only the rest
// go through strconv.ParseFloat. Differential fuzz targets in both
// caller packages hold the decoders built on it to encoding/json's
// accept set.
package jsonscan

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// MaxDepth is encoding/json's nesting limit: a document whose containers
// nest deeper is a syntax error even inside a skipped value.
const MaxDepth = 10000

// Scanner walks one JSON document held in memory. The cursor sits on
// the next unread byte; every method that consumes a value expects the
// cursor on its first byte (after whitespace) and leaves it just past
// the value. The scratch buffer for unescaped strings is reused, so a
// decoded string aliases either the document or that buffer until the
// next string is scanned.
type Scanner struct {
	prefix string // starts every error message
	b      []byte
	i      int
	esc    []byte
}

// Reset points the scanner at document b; prefix labels its errors
// ("<prefix>: invalid character ...").
func (s *Scanner) Reset(b []byte, prefix string) {
	s.b, s.i, s.prefix = b, 0, prefix
}

// Is reports whether the byte at the cursor is c.
func (s *Scanner) Is(c byte) bool { return s.i < len(s.b) && s.b[s.i] == c }

// SyntaxError reports a malformed document at the cursor.
func (s *Scanner) SyntaxError(what string) error {
	if s.i >= len(s.b) {
		return fmt.Errorf("%s: unexpected end of input %s", s.prefix, what)
	}
	return fmt.Errorf("%s: invalid character %q at offset %d %s", s.prefix, s.b[s.i], s.i, what)
}

// TypeError reports a well-formed value of the wrong type for field.
func (s *Scanner) TypeError(field, want string) error {
	return fmt.Errorf("%s: %s must be %s", s.prefix, field, want)
}

// MatchField resolves a decoded object key to one of a struct's field
// names the way encoding/json does: the exact name first, then a
// case-insensitive match under Unicode simple folding (so "ſection" is
// "section"). It returns the name's index, or -1.
func MatchField(key []byte, names []string) int {
	for i, n := range names {
		if string(key) == n {
			return i
		}
	}
	for i, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return i
		}
	}
	return -1
}

// Null consumes a null literal at the cursor and reports whether there
// was one; any other value is left unread.
func (s *Scanner) Null() (bool, error) {
	if !s.Is('n') {
		return false, nil
	}
	return true, s.Literal("null")
}

// Object walks the members of the JSON object at the cursor, calling
// member with each decoded key while the cursor is on the member's value;
// member must consume the value. The key aliases scanner memory.
func (s *Scanner) Object(member func(key []byte) error) error {
	s.i++ // '{'
	s.WS()
	if s.Is('}') {
		s.i++
		return nil
	}
	for {
		key, err := s.Str()
		if err != nil {
			return err
		}
		s.WS()
		if !s.Is(':') {
			return s.SyntaxError("after object key")
		}
		s.i++
		s.WS()
		if err := member(key); err != nil {
			return err
		}
		s.WS()
		if s.Is(',') {
			s.i++
			s.WS()
			continue
		}
		if s.Is('}') {
			s.i++
			return nil
		}
		return s.SyntaxError("after object key:value pair")
	}
}

// Array walks the elements of the JSON array at the cursor, calling elem
// with the cursor on each element; elem must consume it.
func (s *Scanner) Array(elem func() error) error {
	s.i++ // '['
	s.WS()
	if s.Is(']') {
		s.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		s.WS()
		if s.Is(',') {
			s.i++
			s.WS()
			continue
		}
		if s.Is(']') {
			s.i++
			return nil
		}
		return s.SyntaxError("after array element")
	}
}

// Float parses a JSON number as encoding/json does for a float64: to
// the bits strconv.ParseFloat gives, rejecting what it reports out of
// range. The number is parsed in the pass that scans it: when its
// significant digits fit a float64 exactly and its power of ten, read
// in full, is exact (Clinger's fast path, as strconv's own), the value
// is one correctly rounded multiply or divide; any other token, a
// capped exponent among them, goes to strconv.ParseFloat.
func (s *Scanner) Float(what string) (float64, error) {
	tok, mant, exp, exact, err := s.number(what, "a number")
	if err != nil {
		return 0, err
	}
	if exact && mant < 1<<53 {
		if f, ok := scaleExact(float64(mant), exp); ok {
			if tok[0] == '-' {
				f = -f
			}
			return f, nil
		}
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %s %s out of range", s.prefix, what, tok)
	}
	return v, nil
}

// scaleExact returns f·10^exp for an integer f below 2^53 when that is
// one correctly rounded operation on exact operands (Clinger 1990).
func scaleExact(f float64, exp int) (float64, bool) {
	switch {
	case exp >= 0 && exp <= 22:
		return f * pow10[exp], true
	case exp < 0 && exp >= -22:
		return f / pow10[-exp], true
	case exp > 22 && exp <= 22+15:
		// A short f takes the tens beyond 10^22 while it stays an
		// exact integer.
		if f *= pow10[exp-22]; f <= 1e15 {
			return f * 1e22, true
		}
	}
	return 0, false
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// Number scans a JSON number token; any other value is a type error
// naming what and want.
func (s *Scanner) Number(what, want string) ([]byte, error) {
	tok, _, _, _, err := s.number(what, want)
	return tok, err
}

// number is the JSON number grammar. Besides the token it returns the
// number's decimal form, mant·10^exp: mant holds the significant digits
// (leading zeros dropped), and exp is the exponent less the fraction's
// length. The exponent's digits stop accumulating at five, as in
// strconv's own reader, so it cannot overflow. exact reports that
// mant·10^exp is the number's value: at most 19 significant digits and
// an exponent read in full, so a capped exponent always reaches
// strconv.ParseFloat.
func (s *Scanner) number(what, want string) (tok []byte, mant uint64, exp int, exact bool, err error) {
	b, start := s.b, s.i
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	nd, capped := 0, false
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			mant = mant*10 + uint64(b[i]-'0')
			nd++
		}
	default:
		if i == start {
			return nil, 0, 0, false, s.TypeError(what, want)
		}
		s.i = i
		return nil, 0, 0, false, s.SyntaxError("in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			s.i = i
			return nil, 0, 0, false, s.SyntaxError("after decimal point in numeric literal")
		}
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			// Zeros before the first nonzero digit only scale.
			if mant = mant*10 + uint64(b[i]-'0'); mant != 0 {
				nd++
			}
			exp--
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		neg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			neg = b[i] == '-'
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			s.i = i
			return nil, 0, 0, false, s.SyntaxError("in exponent of numeric literal")
		}
		e := 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			} else {
				capped = true
			}
		}
		if neg {
			e = -e
		}
		exp += e
	}
	s.i = i
	return b[start:i], mant, exp, nd <= 19 && !capped, nil
}

// Str scans a JSON string at the cursor and returns its decoded bytes:
// a slice of the document when nothing needs unescaping, else of the
// scanner's escape buffer. Decoding follows encoding/json exactly,
// including U+FFFD for invalid UTF-8 and for unpaired surrogates.
func (s *Scanner) Str() ([]byte, error) {
	b := s.b
	if !s.Is('"') {
		return nil, s.SyntaxError("looking for beginning of object key string")
	}
	start := s.i + 1
	i := start
	for i < len(b) {
		c := b[i]
		if c == '"' {
			s.i = i + 1
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
	out := append(s.esc[:0], b[start:i]...)
	for {
		if i >= len(b) {
			s.i = i
			return nil, s.SyntaxError("in string literal")
		}
		c := b[i]
		switch {
		case c == '"':
			s.i = i + 1
			s.esc = out
			return out, nil
		case c == '\\':
			if i+1 >= len(b) {
				s.i = i + 1
				return nil, s.SyntaxError("in string escape code")
			}
			switch e := b[i+1]; e {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				out = append(out, unescape[e])
				i += 2
			case 'u':
				r := getu4(b[i:])
				if r < 0 {
					s.i = i + 2
					return nil, s.SyntaxError("in \\u hexadecimal character escape")
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
				s.i = i + 1
				return nil, s.SyntaxError("in string escape code")
			}
		case c < ' ':
			s.i = i
			return nil, s.SyntaxError("in string literal")
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

// Skip syntax-checks and passes over one value; depth counts the
// containers already open around it.
func (s *Scanner) Skip(depth int) error {
	if s.i >= len(s.b) {
		return s.SyntaxError("looking for beginning of value")
	}
	switch c := s.b[s.i]; {
	case c == '"':
		_, err := s.Str()
		return err
	case c == '{' || c == '[':
		if depth++; depth > MaxDepth {
			return fmt.Errorf("%s: exceeded max depth", s.prefix)
		}
		if c == '{' {
			return s.Object(func([]byte) error { return s.Skip(depth) })
		}
		return s.Array(func() error { return s.Skip(depth) })
	case c == 't':
		return s.Literal("true")
	case c == 'f':
		return s.Literal("false")
	case c == 'n':
		return s.Literal("null")
	default:
		_, err := s.Number("a value", "valid JSON")
		return err
	}
}

// Literal consumes the exact keyword lit.
func (s *Scanner) Literal(lit string) error {
	for k := 0; k < len(lit); k++ {
		if s.i >= len(s.b) || s.b[s.i] != lit[k] {
			return s.SyntaxError("in literal " + lit)
		}
		s.i++
	}
	return nil
}

// WS skips JSON whitespace.
func (s *Scanner) WS() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// End requires nothing but whitespace after the top-level value.
func (s *Scanner) End() error {
	s.WS()
	if s.i < len(s.b) {
		return s.SyntaxError("after top-level value")
	}
	return nil
}
