package serve

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"

	"repro/internal/dataset"
	"repro/internal/jsonscan"
	"repro/internal/model"
)

// The /v1/predict and /v1/classify request codec: one pass over the
// body on the shared scanner (internal/jsonscan), without reflection.
// It accepts exactly the bodies that encoding/json — a json.Decoder with
// DisallowUnknownFields decoding one value into the request struct
// below — accepts, and decodes them to the same rows:
//
//	{"model":"name[@version]",
//	 "row":[...] | "rows":[[...],...] | "events":[{"name":rate,...},...],
//	 "contributions":bool}
//
// Keys match case-insensitively under Unicode folding; null leaves a
// string or bool as it was and empties a slice or map; a repeated key
// decodes into what the earlier one left, as encoding/json decodes
// slices and maps in place (a shorter array truncates, a longer one
// re-exposes the elements the backing array still holds, a null element
// keeps its old value, and a second events object merges into the
// first). FuzzDecodePredict holds the codec to that oracle.
//
// Every row lives in one flat value block and reaches the kernel as a
// dataset.Instance view into it. Named events are kept as (row, name,
// rate) triples and resolved once the model is known, because "model"
// may follow them in the body.

// requestField is a top-level request key.
type requestField int

const (
	reqUnknown requestField = iota
	reqModel
	reqRow
	reqRows
	reqEvents
	reqContributions
)

// requestFieldNames are the request keys in requestField order, from
// reqModel.
var requestFieldNames = []string{"model", "row", "rows", "events", "contributions"}

// vec is a []float64 as encoding/json leaves it, stored in the decoder's
// value block: elements vals[off:off+n], and the backing array's
// elements up to hwm (those a later, longer array re-exposes) after
// them. Elements past hwm read as zero.
type vec struct {
	off, n, hwm int
	set         bool // non-nil
}

// eventPair is one member of an events object: element elem's event
// named names[lo:hi] has rate v.
type eventPair struct {
	elem, lo, hi int
	v            float64
}

// requestDecoder decodes one request body. Decoders are pooled and
// every buffer keeps its capacity across requests, so a steady-state
// decode allocates nothing whatever the row count.
type requestDecoder struct {
	sc   jsonscan.Scanner
	body []byte

	model         string
	lastModel     string // the last model reference decoded, kept across requests
	contributions bool

	row vec
	// rows is the "rows" slice: elements rows[:nRows], then what the
	// backing array still holds; setRows marks it non-nil.
	rows    []vec
	nRows   int
	setRows bool
	// from[i] is the first pair of events element i's current map;
	// elements from[:nEvents] are the slice, the rest its backing array.
	from      []int
	nEvents   int
	setEvents bool
	pairs     []eventPair
	names     []byte

	vals  []float64
	views []dataset.Instance
}

var requestDecoders = sync.Pool{New: func() any { return new(requestDecoder) }}

// release returns d to the pool; the rows it handed out must no longer
// be in use.
func (d *requestDecoder) release() {
	d.reset()
	requestDecoders.Put(d)
}

// reset empties d for the next body, keeping its buffers.
func (d *requestDecoder) reset() {
	*d = requestDecoder{
		sc: d.sc, body: d.body[:0], lastModel: d.lastModel,
		rows: d.rows[:0], from: d.from[:0], pairs: d.pairs[:0], names: d.names[:0],
		vals: d.vals[:0], views: d.views[:0],
	}
}

// decodeRequest reads a size-capped body and decodes it, writing the
// HTTP error itself on failure (see writeBodyError). The caller
// releases the returned decoder.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) *requestDecoder {
	d := requestDecoders.Get().(*requestDecoder)
	err := d.read(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), r.ContentLength, s.cfg.MaxBodyBytes)
	if err == nil {
		err = d.decode()
	}
	if err == nil {
		return d
	}
	d.release()
	s.writeBodyError(w, err)
	return nil
}

// read reads the whole body into d.body, sized up front from the
// declared length when it is within the limit.
func (d *requestDecoder) read(body io.Reader, declared, limit int64) error {
	b := d.body[:0]
	if declared > 0 && declared <= limit && int(declared) >= cap(b) {
		b = make([]byte, 0, declared+1)
	}
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			d.body = b
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("malformed request body: %w", err)
		}
	}
}

// decode parses d.body: one JSON value, nothing but whitespace after it.
func (d *requestDecoder) decode() error {
	sc := &d.sc
	sc.Reset(d.body, "malformed request body")
	sc.WS()
	if null, err := sc.Null(); err != nil {
		return err
	} else if null {
		// A top-level null decodes to the zero request.
		return sc.End()
	}
	if !sc.Is('{') {
		return sc.TypeError("a request", "a JSON object")
	}
	if err := sc.Object(d.field); err != nil {
		return err
	}
	return sc.End()
}

// field decodes the value of one top-level member.
func (d *requestDecoder) field(key []byte) error {
	sc := &d.sc
	f := requestField(jsonscan.MatchField(key, requestFieldNames) + 1)
	if f == reqUnknown {
		return fmt.Errorf("malformed request body: unknown field %q", key)
	}
	null, err := sc.Null()
	if err != nil {
		return err
	}
	switch f {
	case reqModel:
		if null {
			return nil // null leaves a string as it was
		}
		if !sc.Is('"') {
			return sc.TypeError(`"model"`, "a string")
		}
		v, err := sc.Str()
		if err != nil {
			return err
		}
		// A pooled decoder nearly always sees the same reference again:
		// allocate a string only when it changes.
		if string(v) != d.lastModel {
			d.lastModel = string(v)
		}
		d.model = d.lastModel
	case reqContributions:
		switch {
		case null:
		case sc.Is('t'):
			d.contributions = true
			return sc.Literal("true")
		case sc.Is('f'):
			d.contributions = false
			return sc.Literal("false")
		default:
			return sc.TypeError(`"contributions"`, "a boolean")
		}
	case reqRow:
		if null {
			d.row = vec{}
			return nil
		}
		return d.floats(&d.row)
	case reqRows:
		if null {
			d.rows, d.nRows, d.setRows = d.rows[:0], 0, false
			return nil
		}
		return d.rowsArray()
	case reqEvents:
		if null {
			d.from, d.nEvents, d.setEvents = d.from[:0], 0, false
			return nil
		}
		return d.eventsArray()
	}
	return nil
}

// floats decodes an array of numbers into v in place.
func (d *requestDecoder) floats(v *vec) error {
	sc := &d.sc
	if !sc.Is('[') {
		return sc.TypeError("a row", "an array of numbers")
	}
	n := 0
	err := sc.Array(func() error {
		if n == v.hwm {
			// Grow the backing array by one zero element, moving it to
			// the end of the value block first if anything follows it.
			if v.off+v.hwm != len(d.vals) {
				d.vals = append(d.vals, d.vals[v.off:v.off+v.hwm]...)
				v.off = len(d.vals) - v.hwm
			}
			d.vals = append(d.vals, 0)
			v.hwm++
		}
		if null, err := sc.Null(); err != nil {
			return err
		} else if !null { // a null element keeps its old value
			x, err := sc.Float("a row value")
			if err != nil {
				return err
			}
			d.vals[v.off+n] = x
		}
		n++
		return nil
	})
	if err != nil {
		return err
	}
	if n == 0 {
		// An empty array replaces the slice with a fresh empty one.
		*v = vec{set: true}
		return nil
	}
	v.n, v.set = n, true
	return nil
}

// rowsArray decodes the "rows" array in place.
func (d *requestDecoder) rowsArray() error {
	sc := &d.sc
	if !sc.Is('[') {
		return sc.TypeError(`"rows"`, "an array of rows")
	}
	n := 0
	err := sc.Array(func() error {
		if n == len(d.rows) {
			d.rows = append(d.rows, vec{}) // a fresh element is a nil row
		}
		v := &d.rows[n]
		n++
		if null, err := sc.Null(); err != nil {
			return err
		} else if null {
			*v = vec{}
			return nil
		}
		return d.floats(v)
	})
	if err != nil {
		return err
	}
	if n == 0 {
		d.rows = d.rows[:0]
	}
	d.nRows, d.setRows = n, true
	return nil
}

// eventsArray decodes the "events" array in place: an object merges into
// its element's map, null empties it.
func (d *requestDecoder) eventsArray() error {
	sc := &d.sc
	if !sc.Is('[') {
		return sc.TypeError(`"events"`, "an array of objects")
	}
	n := 0
	err := sc.Array(func() error {
		if n == len(d.from) {
			d.from = append(d.from, len(d.pairs)) // a fresh element is a nil map
		}
		elem := n
		n++
		if null, err := sc.Null(); err != nil {
			return err
		} else if null {
			d.from[elem] = len(d.pairs)
			return nil
		}
		if !sc.Is('{') {
			return sc.TypeError(`an "events" element`, "an object")
		}
		return sc.Object(func(key []byte) error {
			lo := len(d.names)
			d.names = append(d.names, key...)
			// A null rate stores the map's zero value.
			var v float64
			if null, err := sc.Null(); err != nil {
				return err
			} else if !null {
				if v, err = sc.Float("an event rate"); err != nil {
					return err
				}
			}
			d.pairs = append(d.pairs, eventPair{elem: elem, lo: lo, hi: len(d.names), v: v})
			return nil
		})
	})
	if err != nil {
		return err
	}
	if n == 0 {
		d.from = d.from[:0]
	}
	d.nEvents, d.setEvents = n, true
	return nil
}

// instances turns whichever instance form the request used into
// full-width rows validated against the model's schema; cols maps every
// attribute name, the target included, to its column.
func (d *requestDecoder) instances(desc model.Description, cols map[string]int) ([]dataset.Instance, error) {
	forms := 0
	for _, set := range [...]bool{d.row.set, d.setRows, d.setEvents} {
		if set {
			forms++
		}
	}
	if forms != 1 {
		return nil, fmt.Errorf(`provide exactly one of "row", "rows" or "events"`)
	}
	width := len(desc.AttrNames)
	views := d.views[:0]
	switch {
	case d.row.set:
		views = append(views, d.row.view(d.vals))
	case d.setRows:
		for _, v := range d.rows[:d.nRows] {
			views = append(views, v.view(d.vals))
		}
	default:
		n, base := d.nEvents, len(d.vals)
		d.vals = slices.Grow(d.vals, n*width)[:base+n*width]
		block := d.vals[base:]
		clear(block)
		bad, badName := n, ""
		for k, p := range d.pairs {
			if p.elem >= n || k < d.from[p.elem] {
				continue // the pair belongs to a map a later value replaced
			}
			j, ok := cols[string(d.names[p.lo:p.hi])]
			if !ok {
				if p.elem < bad {
					bad, badName = p.elem, string(d.names[p.lo:p.hi])
				}
				continue
			}
			block[p.elem*width+j] = p.v
		}
		if bad < n {
			return nil, fmt.Errorf("row %d: unknown event %q", bad, badName)
		}
		for i := 0; i < n; i++ {
			views = append(views, block[i*width:(i+1)*width:(i+1)*width])
		}
	}
	d.views = views
	if len(views) == 0 {
		return nil, fmt.Errorf("no instances in request")
	}
	for i, r := range views {
		if len(r) != width {
			return nil, fmt.Errorf("row %d has %d values, model schema has %d columns (including target %q)",
				i, len(r), width, desc.Target)
		}
	}
	return views, nil
}

// view is v's elements as an instance; nil for a nil slice.
func (v vec) view(vals []float64) dataset.Instance {
	if !v.set {
		return nil
	}
	return vals[v.off : v.off+v.n : v.off+v.n]
}
