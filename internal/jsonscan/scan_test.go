package jsonscan

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// scanSeeds cover every grammar path: escapes, invalid UTF-8, surrogate
// pairs and lone surrogates, number forms and their malformed
// neighbours, literals, nesting and trailing data.
var scanSeeds = []string{
	`{}`, `[]`, `null`, `true`, `false`, `0`, `-0`, `1.5e-7`, `1E+2`, `"x"`,
	` {"a":[1,{"b":null}],"c":"\n"} `,
	`{"a":1,}`, `[1,]`, `[1 2]`, `{"a" 1}`, `{1:2}`, `tru`, `nul`, `-`, `01`, `1.`, `.5`, `+1`, `1e`, `1e+`,
	`"é😀\ud800x\udc00"`, `"\x"`, `"\u12g4"`, "\"a\x01b\"", "\"\xff\xfe\"", `"abc`, `"\`,
	`"\"\\\/\b\f\n\r\t"`, `1e400`, `-1e400`, `1e-400`, `1.7976931348623157e308`, `5e-324`,
	`{"a":1} x`, `{"a":1}{}`, "\ufeff{}", `[` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `]`,
	`[` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `]`,
}

// FuzzScan holds the scanner to encoding/json: Skip accepts exactly the
// documents json.Valid accepts, Str decodes exactly the strings
// json.Unmarshal decodes, to the same bytes, and Float exactly the
// float64 values, to the same bits.
func FuzzScan(f *testing.F) {
	for _, s := range scanSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		var s Scanner
		s.Reset(doc, "test")
		s.WS()
		err := s.Skip(0)
		if err == nil {
			err = s.End()
		}
		if valid := json.Valid(doc); (err == nil) != valid {
			t.Fatalf("Skip error %v, json.Valid %v", err, valid)
		}

		var want string
		wantErr := json.Unmarshal(doc, &want)
		s.Reset(doc, "test")
		s.WS()
		var got []byte
		if s.Is('"') {
			if got, err = s.Str(); err == nil {
				err = s.End()
			}
		} else if null, nerr := s.Null(); nerr != nil {
			err = nerr
		} else if null {
			// json.Unmarshal leaves a string as it is on null.
			err, got = s.End(), []byte(want)
		} else {
			err = s.TypeError("a string", "a string")
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Str error %v, json.Unmarshal error %v", err, wantErr)
		}
		if err == nil && string(got) != want {
			t.Fatalf("Str decoded %q, json.Unmarshal %q", got, want)
		}

		var wantF float64
		wantErr = json.Unmarshal(doc, &wantF)
		s.Reset(doc, "test")
		s.WS()
		var gotF float64
		null, err := s.Null()
		if err == nil && !null {
			gotF, err = s.Float("a number")
		}
		if err == nil {
			err = s.End()
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Float error %v, json.Unmarshal error %v", err, wantErr)
		}
		if err == nil && math.Float64bits(gotF) != math.Float64bits(wantF) {
			t.Fatalf("Float decoded %v, json.Unmarshal %v", gotF, wantF)
		}
	})
}

// TestErrorsCarryPrefix: every error names the document it is about.
func TestErrorsCarryPrefix(t *testing.T) {
	for _, doc := range []string{`{`, `[1,]`, `"\x"`, `1e400`, `x`, `[` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `]`} {
		var s Scanner
		s.Reset([]byte(doc), "request body")
		err := s.Skip(0)
		if err == nil {
			_, err = s.Float("a value")
		}
		if err == nil || !strings.HasPrefix(err.Error(), "request body: ") {
			t.Errorf("%.20q: error %v lacks the prefix", doc, err)
		}
	}
}
