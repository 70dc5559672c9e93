package stream

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/counters"
	"repro/internal/dataset"
	"repro/internal/model"
	"repro/internal/proptest"
	"repro/internal/refute"
	"repro/internal/workload"
)

// wireStrings are labels that exercise every escaping rule of
// encoding/json's HTML-safe string encoder.
var wireStrings = []string{
	"", "429.mcf", "a<b>&c", "<&>", "line\u2028sep\u2029", "\u2027\u202a",
	"ctl\x00\x01\x07\x08\x0b\x0c\x1f\x7f", "\t\n\r\b\f", `q"uote\back/slash`,
	"bad\xff\xfe", "\xc0\xaf", "\xed\xa0\x80", "trunc\xe2\x82", "é日本😀", "\ufffd",
}

// wireFloats are the values around encoding/json's format switches and
// at the edges of the float64 range.
var wireFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.41, -2.5e3,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308,
	math.MaxFloat64, -math.MaxFloat64,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, 1e-7, 1.5e-9, 1e-10,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e20, 123456789012345678,
}

var wireInts = []int{0, 1, -1, 7, 1 << 20, math.MaxInt64, math.MinInt64}

func pick[T any](r *proptest.Rand, xs []T) T { return xs[r.Intn(len(xs))] }

// genEvent draws an event of one of the four types with each field
// either left zero or set from the edge-value tables (or a random value).
func genEvent(r *proptest.Rand) Event {
	str := func() string {
		if r.Coin() {
			return ""
		}
		if r.Bool(0.2) {
			b := make([]byte, r.Intn(12))
			for i := range b {
				b[i] = byte(r.Intn(256))
			}
			return string(b)
		}
		return pick(r, wireStrings)
	}
	num := func() float64 {
		if r.Coin() {
			return 0
		}
		if r.Bool(0.3) {
			return r.NormFloat64() * math.Pow(10, float64(r.IntBetween(-12, 24)))
		}
		return pick(r, wireFloats)
	}
	ptr := func() *float64 {
		if r.Coin() {
			return nil
		}
		v := num()
		return &v
	}
	integer := func() int {
		if r.Coin() {
			return 0
		}
		return pick(r, wireInts)
	}
	ev := Event{Type: pick(r, []string{"sample", "phase", "drift", "refute"}), Section: pick(r, wireInts),
		Bench: str(), Phase: integer()}
	switch ev.Type {
	case "sample":
		ev.Predicted, ev.Observed, ev.Residual = num(), ptr(), ptr()
		ev.TopEvent, ev.TopFraction = str(), num()
	case "phase":
		ev.PhaseStart = integer()
	case "drift":
		ev.Direction, ev.Stat, ev.MeanResidual, ev.RunLength = str(), num(), num(), integer()
	case "refute":
		ev.Relation, ev.Deviation = str(), num()
		ev.Verdict = pick(r, []refute.Verdict{"", refute.Consistent, refute.Suspect, refute.Refuted, "<&>\u2028"})
	}
	return ev
}

// TestAppendEventMatchesJSON is the differential test of the event
// encoder: on generated events of all four types, AppendEvent must write
// exactly json.Marshal's bytes plus a newline.
func TestAppendEventMatchesJSON(t *testing.T) {
	check := func(t *testing.T, ev Event) {
		t.Helper()
		want, err := json.Marshal(&ev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendEvent([]byte("prefix"), &ev)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "prefix"+string(want)+"\n" {
			t.Fatalf("AppendEvent\n  %q\njson.Marshal\n  %q", got[len("prefix"):], want)
		}
	}
	zero, negZero := 0.0, math.Copysign(0, -1)
	for _, ev := range []Event{
		{},
		{Type: "sample", Observed: &zero, Residual: &negZero, Predicted: negZero, TopFraction: negZero},
		{Type: "drift", Section: math.MaxInt64, RunLength: math.MaxInt64, Stat: math.MaxFloat64},
		{Type: "phase", Section: math.MinInt64, PhaseStart: math.MinInt64, Phase: -1},
		{Type: "refute", Relation: "a<b>&c\u2028\u2029\x00\xff", Verdict: refute.Refuted, Deviation: 5e-324},
	} {
		check(t, ev)
	}
	for _, s := range wireStrings {
		for _, f := range wireFloats {
			check(t, Event{Type: s, Bench: s, Predicted: f, Observed: &f, Relation: s, Stat: f})
		}
	}
	proptest.Run(t, "append-event", 20000, func(t *testing.T, r *proptest.Rand) {
		check(t, genEvent(r))
	})
}

// TestAppendEventCoversEveryField ties AppendEvent to the Event struct:
// it walks Event's fields by reflection, sets each one alone (then all
// of them together) to a non-zero value, and compares with json.Marshal.
// A field added to Event but not to AppendEvent fails here, as does a
// field of a kind this test cannot fill yet.
func TestAppendEventCoversEveryField(t *testing.T) {
	set := func(f reflect.Value, name string) {
		switch f.Kind() {
		case reflect.String:
			f.SetString("x<&" + name)
		case reflect.Int:
			f.SetInt(42)
		case reflect.Float64:
			f.SetFloat(1.5)
		case reflect.Pointer:
			if f.Type().Elem().Kind() != reflect.Float64 {
				t.Fatalf("Event.%s: unhandled field type %s", name, f.Type())
			}
			v := reflect.New(f.Type().Elem())
			v.Elem().SetFloat(2.5)
			f.Set(v)
		default:
			t.Fatalf("Event.%s: unhandled field type %s", name, f.Type())
		}
	}
	check := func(ev Event, what string) {
		want, err := json.Marshal(&ev)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendEvent(nil, &ev)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want)+"\n" {
			t.Errorf("%s: AppendEvent\n  %q\njson.Marshal\n  %q", what, got, want)
		}
	}
	var all Event
	typ := reflect.TypeOf(all)
	for i := 0; i < typ.NumField(); i++ {
		var ev Event
		set(reflect.ValueOf(&ev).Elem().Field(i), typ.Field(i).Name)
		check(ev, "Event."+typ.Field(i).Name)
		set(reflect.ValueOf(&all).Elem().Field(i), typ.Field(i).Name)
	}
	check(all, "every field set")
}

// TestAppendEventRejectsNonFinite: encoding/json refuses NaN and ±Inf,
// writing nothing for the event; AppendEvent must refuse them too and
// leave the buffer untouched.
func TestAppendEventRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		v := bad
		for _, ev := range []Event{
			{Type: "sample", Predicted: bad}, {Type: "sample", Observed: &v}, {Type: "sample", Residual: &v},
			{Type: "sample", TopFraction: bad}, {Type: "drift", Stat: bad}, {Type: "drift", MeanResidual: bad},
			{Type: "refute", Deviation: bad},
		} {
			if _, err := json.Marshal(&ev); err == nil {
				t.Fatalf("json.Marshal accepted %+v", ev)
			}
			got, err := AppendEvent([]byte("keep"), &ev)
			if err == nil || string(got) != "keep" {
				t.Errorf("AppendEvent(%+v) = %q, %v; want the buffer untouched and an error", ev, got, err)
			}
		}
	}
}

// servedLines renders the sections of a reduced core2 collection as
// json.Marshal writes them, over the served schema (Table I).
func servedLines(b *testing.B) (*Schema, [][]byte) {
	col, err := counters.CollectSuite(workload.SuiteScaled(0.05)[:4], counters.DefaultCollectConfig())
	if err != nil {
		b.Fatal(err)
	}
	d := col.Data
	desc := model.Description{Kind: "m5-model-tree", Target: d.Attrs()[d.TargetIndex()].Name}
	for _, a := range d.Attrs() {
		desc.AttrNames = append(desc.AttrNames, a.Name)
	}
	sc, err := NewSchema(desc)
	if err != nil {
		b.Fatal(err)
	}
	lines := make([][]byte, d.Len())
	for i := range lines {
		row := d.Row(i)
		cpi := row[d.TargetIndex()]
		s := Sample{Bench: col.Labels[i].Benchmark, Section: col.Labels[i].Section, Events: map[string]float64{}, CPI: &cpi}
		for _, f := range sc.featIdx {
			s.Events[desc.AttrNames[f]] = row[f]
		}
		if lines[i], err = json.Marshal(&s); err != nil {
			b.Fatal(err)
		}
	}
	return sc, lines
}

// BenchmarkStreamDecode compares the row decoder with the encoding/json
// path it replaced on served-schema lines (one op = one line): "rows" is
// Decoder.NextRecord's parse into a full-width row, "json" is
// json.Unmarshal into a Sample, Validate and the schema expansion.
func BenchmarkStreamDecode(b *testing.B) {
	sc, lines := servedLines(b)
	var total int
	for _, l := range lines {
		total += len(l)
	}
	b.Logf("served-schema line: %d events, %d bytes on average", len(sc.featIdx), total/len(lines))
	b.Run("rows", func(b *testing.B) {
		var p lineParser
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink := sampleSink{sc: sc, row: make(dataset.Instance, len(sc.desc.AttrNames))}
			if err := p.parse(lines[i%len(lines)], &sink); err != nil || sink.schemaErr != nil {
				b.Fatal(err, sink.schemaErr)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var s Sample
			if err := json.Unmarshal(lines[i%len(lines)], &s); err != nil {
				b.Fatal(err)
			}
			if err := s.Validate(); err != nil {
				b.Fatal(err)
			}
			if _, err := sc.instance(&s); err != nil {
				b.Fatal(err)
			}
		}
	})
	// The whole decoder over a request-sized body, scanner included.
	body := append(bytes.Join(lines[:64], []byte("\n")), '\n')
	b.Run("body64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dec := NewDecoder(bytes.NewReader(body))
			for k := 0; k < 64; k++ {
				if _, err := dec.NextRecord(sc); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(64*b.N), "ns/line")
	})
}
