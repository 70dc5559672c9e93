package stream

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"testing"

	"repro/internal/model"
)

// fuzzSchema is the layout the row decoder resolves fuzz inputs onto.
var fuzzSchema = func() *Schema {
	sc, err := NewSchema(model.Description{Kind: "fuzz", Target: "CPI",
		AttrNames: []string{"CPI", "L1IM", "L2M", "DtlbLdM", "a", "b"}})
	if err != nil {
		panic(err)
	}
	return sc
}()

// decodeReference is the encoding/json oracle of one line: json.Unmarshal
// into a Sample, then Validate, then the schema check.
func decodeReference(line []byte) (s Sample, decodeErr, schemaErr error) {
	if err := json.Unmarshal(line, &s); err != nil {
		return Sample{}, err, nil
	}
	if err := s.Validate(); err != nil {
		return Sample{}, err, nil
	}
	return s, nil, fuzzSchema.check(&s)
}

func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// FuzzDecodeSample is the differential test of the wire decoder against
// encoding/json. For every input line:
//   - the row decoder rejects the line as malformed exactly when
//     json.Unmarshal or Validate does, and reports a schema violation
//     exactly when the schema check of the reference sample does;
//   - on acceptance, bench, section, CPI presence and value and every
//     row column are bit-equal to the reference sample's;
//   - the map form (lineParser.sample, which Decoder.Next runs) accepts
//     exactly what json.Unmarshal plus Validate accepts and decodes to
//     an equal Sample.
func FuzzDecodeSample(f *testing.F) {
	for _, seed := range []string{
		`{"bench":"mcf","section":12,"events":{"L2M":0.004,"L1IM":0.002},"cpi":1.41}`,
		`{"events":{"a":1}}`,
		`{"events":{}}`,
		`{"events":{"a":1e400}}`,
		`{"events":{"a":1},"cpi":null}`,
		`{"cpi":1.0}`,
		`not json at all`,
		``,
		`{"events":{"k":0}}`,
		`[1,2,3]`,
		// Keys match fields case-insensitively under Unicode folding.
		`{"EVENTS":{"L2M":1},"ſection":3,"Cpi":2,"bEnch":"x"}`,
		`{"eventſ":{"a":1},"ſection":1}`,
		// Escaped keys and values.
		`{"events":{"L2M":1},"bench":"é😀𐀀x\ud800"}`,
		// Unknown fields are skipped but syntax-checked.
		`{"x":{"y":[1,{"z":null}],"w":"\n"},"events":{"a":1}}`,
		`{"x":[1,],"events":{"a":1}}`,
		`{"x":tru,"events":{"a":1}}`,
		// Duplicates: the last one wins, events objects merge, a null
		// events object resets them.
		`{"events":{"a":1},"events":{"b":2},"bench":"p","bench":"q","section":1,"section":2}`,
		`{"events":{"a":1,"a":2},"cpi":1,"cpi":null}`,
		`{"events":{"NoSuch":1},"events":null,"events":{"a":1}}`,
		`{"events":{"a":1},"events":null}`,
		`{"bench":"x","bench":null,"section":4,"section":null,"events":{"a":1}}`,
		// Null rates count as events of value 0.
		`{"events":{"L2M":null}}`,
		// Numbers.
		`{"events":{"a":-0,"b":1E-7,"L2M":-0.0e+0},"cpi":5e-324}`,
		`{"events":{"a":1e-400,"b":1.7976931348623157e308}}`,
		`{"events":{"a":01}}`,
		`{"events":{"a":1.}}`,
		`{"events":{"a":.5}}`,
		`{"events":{"a":+1}}`,
		`{"events":{"a":"1"}}`,
		`{"events":{"a":true}}`,
		`{"events":{"a":1},"section":1.5}`,
		`{"events":{"a":1},"section":1e2}`,
		`{"events":{"a":1},"section":-0}`,
		`{"events":{"a":1},"section":99999999999999999999}`,
		`{"events":{"a":1},"section":"1"}`,
		`{"events":{"a":1},"bench":5}`,
		`{"events":[]}`,
		`{"events":"a"}`,
		// Schema violations.
		`{"events":{"NoSuch":1}}`,
		`{"events":{"CPI":1,"a":1}}`,
		// Top-level shapes and trailing data.
		`null`,
		` null `,
		`"x"`,
		`{"events":{"a":1}} x`,
		`{"events":{"a":1}}{}`,
		"\ufeff{\"events\":{\"a\":1}}",
		"\t{\"events\":{\"a\":1}}\r\n",
		// Invalid UTF-8 and control characters in bench.
		"{\"bench\":\"\xff\xfe\xc0\",\"events\":{\"a\":1}}",
		"{\"bench\":\"a\x01b\",\"events\":{\"a\":1}}",
		`{"bench":"\u0001\u001f\t\"\\\/","events":{"a":1}}`,
		`{"bench":"\x","events":{"a":1}}`,
		`{"bench":"\u12g4","events":{"a":1}}`,
		"{\"\xff\":1,\"events\":{\"\xff\":1}}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		ref, refDecodeErr, refSchemaErr := decodeReference(line)

		var p lineParser
		sink := sampleSink{sc: fuzzSchema, row: make([]float64, len(fuzzSchema.desc.AttrNames))}
		err := p.parse(line, &sink)
		if (err == nil) != (refDecodeErr == nil) {
			t.Fatalf("row decoder malformed=%v, encoding/json malformed=%v (%v / %v)", err, refDecodeErr, err, refDecodeErr)
		}
		if err == nil {
			if (sink.schemaErr == nil) != (refSchemaErr == nil) {
				t.Fatalf("row decoder schema error %v, reference %v", sink.schemaErr, refSchemaErr)
			}
		}
		if err == nil && sink.schemaErr == nil {
			row, err := fuzzSchema.instance(&ref)
			if err != nil {
				t.Fatal(err)
			}
			for i := range row {
				if !sameFloat(row[i], sink.row[i]) {
					t.Fatalf("column %d: row decoder %v, reference %v", i, sink.row[i], row[i])
				}
			}
			if sink.bench != ref.Bench || sink.section != ref.Section {
				t.Fatalf("labels (%q, %d), reference (%q, %d)", sink.bench, sink.section, ref.Bench, ref.Section)
			}
			if sink.hasCPI != (ref.CPI != nil) || (ref.CPI != nil && !sameFloat(sink.cpi, *ref.CPI)) {
				t.Fatalf("cpi (%v, %v), reference %v", sink.hasCPI, sink.cpi, ref.CPI)
			}
		}

		var mp lineParser
		s, err := mp.sample(line)
		if (err == nil) != (refDecodeErr == nil) {
			t.Fatalf("map decoder error %v, encoding/json %v", err, refDecodeErr)
		}
		if err != nil {
			return
		}
		if s.Bench != ref.Bench || s.Section != ref.Section || (s.CPI == nil) != (ref.CPI == nil) ||
			(s.CPI != nil && !sameFloat(*s.CPI, *ref.CPI)) || len(s.Events) != len(ref.Events) {
			t.Fatalf("map decoder %+v, reference %+v", s, ref)
		}
		for k, v := range ref.Events {
			if got, ok := s.Events[k]; !ok || !sameFloat(got, v) {
				t.Fatalf("event %q: map decoder %v (present %v), reference %v", k, got, ok, v)
			}
		}
	})
}

// FuzzDecoderStream drives the line decoder over arbitrary multi-line
// input: no panics, no infinite loops, the decoder keeps its
// skip-and-continue contract after malformed lines, and a terminal
// scanner failure is sticky (the same error on every later call).
func FuzzDecoderStream(f *testing.F) {
	f.Add([]byte("{\"events\":{\"a\":1}}\n\n{\"events\":{\"b\":2}}\n"))
	f.Add([]byte("junk\n{\"events\":{\"a\":1}}\n"))
	f.Add([]byte("\r\n\t \n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dec := NewDecoder(bytes.NewReader(data))
		for i := 0; i < 10000; i++ {
			_, err := dec.Next()
			if err == io.EOF {
				if dec.Failed() {
					t.Fatal("Failed() true at clean EOF")
				}
				return
			}
			if dec.Failed() {
				if _, err2 := dec.Next(); err2 != err {
					t.Fatalf("terminal error not sticky: %v then %v", err, err2)
				}
				return
			}
		}
		t.Fatal("decoder did not reach EOF within the line budget")
	})
}

// TestDecoderRecordsMatchSamples runs one body through both decoder
// forms: line numbers, errors and decoded values must agree.
func TestDecoderRecordsMatchSamples(t *testing.T) {
	body := "\n" + `{"bench":"b","section":4,"events":{"L2M":0.5,"a":-0},"cpi":1.25}` + "\n" +
		"{bad\n" + `{"events":{"NoSuch":1}}` + "\n" + `{"events":{"b":2}}` + "\n"
	maps, rows := NewDecoder(bytes.NewReader([]byte(body))), NewDecoder(bytes.NewReader([]byte(body)))
	for {
		s, errM := maps.Next()
		rec, errR := rows.NextRecord(fuzzSchema)
		if maps.Line() != rows.Line() || (errM == nil) != (errR == nil) {
			t.Fatalf("line %d/%d: map error %v, row error %v", maps.Line(), rows.Line(), errM, errR)
		}
		if errors.Is(errM, io.EOF) {
			return
		}
		if errM != nil {
			if errM.Error() != errR.Error() {
				t.Errorf("errors differ: %v / %v", errM, errR)
			}
			continue
		}
		row, schemaErr := fuzzSchema.instance(&s)
		if (schemaErr == nil) != (rec.Err == nil) {
			t.Fatalf("line %d: schema error %v, record error %v", rows.Line(), schemaErr, rec.Err)
		}
		if schemaErr != nil {
			continue
		}
		if rec.Bench != s.Bench || rec.Section != s.Section || rec.HasCPI != (s.CPI != nil) ||
			(s.CPI != nil && rec.CPI != *s.CPI) || len(rec.Row) != len(row) {
			t.Fatalf("line %d: record %+v, sample %+v", rows.Line(), rec, s)
		}
		for i := range row {
			if !sameFloat(rec.Row[i], row[i]) {
				t.Fatalf("line %d column %d: %v, want %v", rows.Line(), i, rec.Row[i], row[i])
			}
		}
	}
}
