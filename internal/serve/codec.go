// The predict wire codec: one bounded read of the request body into a
// pooled buffer, one byte-level pass over it straight into pooled CSR
// rows, and an append-style response encoder into the same buffer.
//
// The decoder accepts a subset of what encoding/json accepts for
// PredictRequest (with DisallowUnknownFields) and produces identical rows
// for every body in that subset; FuzzDecodePredictRequest holds it to
// that. Where it is stricter — keys match byte for byte, a key appears
// once, null is no number, nothing but whitespace follows the object —
// docs/SERVING.md lists the case and TestDecodeStricterThanEncodingJSON
// pins it.
package serve

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
)

const (
	// A predict body may be MaxBatchRows × bodyBytesPerRow long, within
	// [minBodyBytes, maxBodyBytes]: 16 KiB is a dense row of ~2000
	// features, the floor keeps a small row limit from refusing wide rows,
	// and the ceiling is what one request may pin in memory whatever the
	// row limit says.
	bodyBytesPerRow = 16 << 10
	minBodyBytes    = 1 << 20
	maxBodyBytes    = 32 << 20

	// maxRetainedBytes is the largest scratch the pool keeps: one
	// oversized request must not pin its buffers for the life of the
	// process.
	maxRetainedBytes = 1 << 20
)

// bodyLimit is the byte cap of a predict body under a row limit.
func bodyLimit(maxRows int) int64 {
	n := int64(maxRows) * bodyBytesPerRow
	if n < minBodyBytes {
		return minBodyBytes
	}
	if n > maxBodyBytes {
		return maxBodyBytes
	}
	return n
}

// predictScratch is one request's working storage, pooled across
// requests: the body bytes (reused for the response once decoded) and the
// decoded rows as one flat CSR store. feats/vals are views of feat/val,
// one per row, sparse rows first; they — and everything else here — are
// dead once release is called.
type predictScratch struct {
	buf  []byte
	feat []uint32
	val  []float32
	ends []int // ends[r] = len(feat) after the r-th decoded row

	feats [][]uint32
	vals  [][]float32

	sorter pairs // lives here so that sort.Sort gets a pointer, not a boxed copy
}

var scratchPool = sync.Pool{New: func() any { return new(predictScratch) }}

// poisonOnRelease makes release overwrite the scratch with 0xFF bytes, so
// a read after release scores garbage instead of a stale but plausible
// row. Set by the package's TestMain, never by non-test code.
var poisonOnRelease bool

func (sc *predictScratch) footprint() int {
	return cap(sc.buf) + 4*cap(sc.feat) + 4*cap(sc.val) + 8*cap(sc.ends) +
		24*(cap(sc.feats)+cap(sc.vals))
}

// release returns the scratch to the pool, unless it grew past
// maxRetainedBytes; it reports which.
func (sc *predictScratch) release() (pooled bool) {
	if poisonOnRelease {
		sc.poison()
	}
	if sc.footprint() > maxRetainedBytes {
		return false
	}
	scratchPool.Put(sc)
	return true
}

func (sc *predictScratch) poison() {
	buf := sc.buf[:cap(sc.buf)]
	for i := range buf {
		buf[i] = 0xFF
	}
	feat := sc.feat[:cap(sc.feat)]
	for i := range feat {
		feat[i] = math.MaxUint32
	}
	val := sc.val[:cap(sc.val)]
	for i := range val {
		val[i] = math.Float32frombits(math.MaxUint32)
	}
	clear(sc.ends[:cap(sc.ends)])
	clear(sc.feats[:cap(sc.feats)])
	clear(sc.vals[:cap(sc.vals)])
}

// readBody reads r's body into sc.buf, at most limit bytes of it. On
// failure the returned status is the HTTP code to answer with.
func (sc *predictScratch) readBody(w http.ResponseWriter, r *http.Request, limit int64) (int, error) {
	if r.ContentLength > limit {
		return http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body of %d bytes exceeds the %d-byte limit", r.ContentLength, limit)
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	sc.buf = sc.buf[:0]
	if n := int(r.ContentLength) + 1; n > cap(sc.buf) {
		// +1: room for the read that finds EOF.
		sc.buf = make([]byte, 0, n)
	}
	for {
		if len(sc.buf) == cap(sc.buf) {
			// Unknown length (chunked). MaxBytesReader hands out at most
			// limit bytes, so the buffer never needs more. Growing
			// fourfold, and straight to the cap once the next step would
			// come within a step of it, keeps everything allocated on the
			// way under half of the last buffer.
			n := 4 * cap(sc.buf)
			if n < 4096 {
				n = 4096
			}
			if int64(n) > limit/4 {
				n = int(limit + 1)
			}
			sc.buf = append(make([]byte, 0, n), sc.buf...)
		}
		n, err := body.Read(sc.buf[len(sc.buf):cap(sc.buf)])
		sc.buf = sc.buf[:len(sc.buf)+n]
		if err == io.EOF {
			return http.StatusOK, nil
		}
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds the %d-byte limit", limit)
		}
		if err != nil {
			return http.StatusBadRequest, fmt.Errorf("read request body: %w", err)
		}
	}
}

// decode parses and validates a predict body into sc's row store, leaving
// the rows ready for the prediction engine in sc.feats/sc.vals: sparse
// rows first, then dense rows, every row sorted by feature id with zeros
// of dense rows dropped. body may be sc.buf. On error the returned status
// is the HTTP code to answer with, and the rows are not to be used.
func (sc *predictScratch) decode(body []byte, maxRows int) (proba bool, status int, err error) {
	sc.feat, sc.val, sc.ends = sc.feat[:0], sc.val[:0], sc.ends[:0]
	d := decoder{b: body, sc: sc, maxRows: maxRows}
	proba, denseFirst, err := d.request()
	if err != nil {
		if d.tooMany {
			return false, http.StatusRequestEntityTooLarge, err
		}
		return false, http.StatusBadRequest, fmt.Errorf("decode request: %w", err)
	}
	// The views are cut only now: the flat store may have moved while it
	// grew. A body that named "dense" before "rows" decoded its dense rows
	// first; the views restore the documented order without moving data.
	n := len(sc.ends)
	feats, vals := sc.feats[:0], sc.vals[:0]
	for o := 0; o < n; o++ {
		r := o + denseFirst
		if r >= n {
			r -= n
		}
		lo := 0
		if r > 0 {
			lo = sc.ends[r-1]
		}
		hi := sc.ends[r]
		feats = append(feats, sc.feat[lo:hi:hi])
		vals = append(vals, sc.val[lo:hi:hi])
	}
	sc.feats, sc.vals = feats, vals
	return proba, http.StatusOK, nil
}

// decoder is the single pass over a predict body.
type decoder struct {
	b       []byte
	i       int
	sc      *predictScratch
	maxRows int
	tooMany bool // the row limit, not the syntax, stopped the pass
}

func (d *decoder) skipSpace() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\r', '\n':
			d.i++
		default:
			return
		}
	}
}

func (d *decoder) unexpected(want string) error {
	if d.i >= len(d.b) {
		return fmt.Errorf("unexpected end of body, want %s", want)
	}
	return fmt.Errorf("offset %d: unexpected %q, want %s", d.i, d.b[d.i], want)
}

// literal consumes s if the body continues with it.
func (d *decoder) literal(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

// begin consumes the opening byte of an array or object, or a null in its
// place (which encoding/json reads as the empty container), and reports
// which it was.
func (d *decoder) begin(open byte, want string) (opened bool, err error) {
	if d.literal("null") {
		return false, nil
	}
	if d.i >= len(d.b) || d.b[d.i] != open {
		return false, d.unexpected(want)
	}
	d.i++
	return true, nil
}

// more steps to the next element of the container that closes with end,
// consuming the separator; first is true before the first element. It
// reports false once the container is closed.
func (d *decoder) more(end byte, first bool) (bool, error) {
	d.skipSpace()
	if d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == end:
			d.i++
			return false, nil
		case first:
			return true, nil
		case c == ',':
			d.i++
			d.skipSpace()
			return true, nil
		}
	}
	return false, d.unexpected(fmt.Sprintf("',' or %q", end))
}

// key consumes `"name":` and returns name as it is spelled in the body.
// Escapes are not interpreted: no field name needs one, so an escaped
// spelling matches no field.
func (d *decoder) key() ([]byte, error) {
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return nil, d.unexpected("a field name")
	}
	start := d.i + 1
	j := start
	for j < len(d.b) && d.b[j] != '"' {
		if d.b[j] == '\\' {
			j++
		}
		j++
	}
	if j >= len(d.b) {
		d.i = len(d.b)
		return nil, d.unexpected("the end of a field name")
	}
	d.i = j + 1
	d.skipSpace()
	if d.i >= len(d.b) || d.b[d.i] != ':' {
		return nil, d.unexpected("':'")
	}
	d.i++
	d.skipSpace()
	return d.b[start:j], nil
}

// field resolves a key against the fields of one object and marks it
// seen: bit i of seen stands for names[i].
func field(name []byte, seen *uint8, names ...string) (int, error) {
	for i, n := range names {
		if string(name) != n {
			continue
		}
		if *seen&(1<<i) != 0 {
			return 0, fmt.Errorf("repeated field %q", name)
		}
		*seen |= 1 << i
		return i, nil
	}
	return 0, fmt.Errorf("unknown field %q", name)
}

// request decodes the whole body. denseFirst is the number of dense rows
// decoded ahead of the sparse ones.
func (d *decoder) request() (proba bool, denseFirst int, err error) {
	d.skipSpace()
	if d.i >= len(d.b) || d.b[d.i] != '{' {
		return false, 0, d.unexpected("'{'")
	}
	d.i++
	var seen uint8
	for first := true; ; first = false {
		ok, err := d.more('}', first)
		if err != nil {
			return false, 0, err
		}
		if !ok {
			break
		}
		name, err := d.key()
		if err != nil {
			return false, 0, err
		}
		f, err := field(name, &seen, "rows", "dense", "proba")
		if err != nil {
			return false, 0, err
		}
		switch f {
		case 0:
			denseFirst = len(d.sc.ends)
			err = d.rows("rows", d.sparseRow)
		case 1:
			err = d.rows("dense", d.denseRow)
		case 2:
			proba, err = d.boolean()
		}
		if err != nil {
			return false, 0, err
		}
	}
	d.skipSpace()
	if d.i < len(d.b) {
		return false, 0, d.unexpected("nothing after the request object")
	}
	if len(d.sc.ends) == 0 {
		return false, 0, errors.New("empty request: provide rows or dense")
	}
	return proba, denseFirst, nil
}

func (d *decoder) boolean() (bool, error) {
	switch {
	case d.literal("true"):
		return true, nil
	case d.literal("false"), d.literal("null"):
		return false, nil
	}
	return false, d.unexpected("true or false")
}

// rows decodes the array under key, one row per element. The row limit is
// checked as each row starts, before any of it is parsed.
func (d *decoder) rows(key string, row func() error) error {
	opened, err := d.begin('[', "an array of rows")
	if err != nil || !opened {
		return err
	}
	for i, first := 0, true; ; i, first = i+1, false {
		ok, err := d.more(']', first)
		if err != nil || !ok {
			return err
		}
		if len(d.sc.ends) >= d.maxRows {
			d.tooMany = true
			return fmt.Errorf("more than %d rows: batch limit exceeded", d.maxRows)
		}
		if err := row(); err != nil {
			return fmt.Errorf("%s[%d]: %w", key, i, err)
		}
		d.sc.ends = append(d.sc.ends, len(d.sc.feat))
	}
}

// sparseRow decodes {"indices": [...], "values": [...]} onto the end of
// the flat store, sorted by feature id.
func (d *decoder) sparseRow() error {
	sc := d.sc
	start := len(sc.feat)
	opened, err := d.begin('{', "a row object")
	if err != nil {
		return err
	}
	var seen uint8
	for first := true; opened; first = false {
		ok, err := d.more('}', first)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		name, err := d.key()
		if err != nil {
			return err
		}
		f, err := field(name, &seen, "indices", "values")
		if err != nil {
			return err
		}
		if f == 0 {
			err = d.indices()
		} else {
			err = d.values()
		}
		if err != nil {
			return err
		}
	}
	if len(sc.feat) != len(sc.val) {
		return fmt.Errorf("%d indices but %d values", len(sc.feat)-start, len(sc.val)-start)
	}
	row := &sc.sorter
	*row = pairs{sc.feat[start:], sc.val[start:]}
	sorted := true
	for j := 1; j < len(row.feat) && sorted; j++ {
		sorted = row.feat[j-1] <= row.feat[j]
	}
	if !sorted {
		sort.Sort(row)
	}
	for j := 1; j < len(row.feat); j++ {
		if row.feat[j] == row.feat[j-1] {
			return fmt.Errorf("duplicate feature index %d", row.feat[j])
		}
	}
	return nil
}

// pairs sorts one row's (feature id, value) pairs in place by feature id.
type pairs struct {
	feat []uint32
	val  []float32
}

func (p *pairs) Len() int           { return len(p.feat) }
func (p *pairs) Less(i, j int) bool { return p.feat[i] < p.feat[j] }
func (p *pairs) Swap(i, j int) {
	p.feat[i], p.feat[j] = p.feat[j], p.feat[i]
	p.val[i], p.val[j] = p.val[j], p.val[i]
}

// indices decodes an array of feature ids: plain decimal uint32s, as
// encoding/json demands of an unsigned field (no sign, fraction or
// exponent).
func (d *decoder) indices() error {
	opened, err := d.begin('[', "an array of indices")
	if err != nil || !opened {
		return err
	}
	for first := true; ; first = false {
		ok, err := d.more(']', first)
		if err != nil || !ok {
			return err
		}
		j, v := d.i, uint64(0)
		for ; j < len(d.b) && d.b[j]-'0' <= 9; j++ {
			if v = v*10 + uint64(d.b[j]-'0'); v > math.MaxUint32 {
				return fmt.Errorf("offset %d: feature index exceeds %d", d.i, uint32(math.MaxUint32))
			}
		}
		if j == d.i || (d.b[d.i] == '0' && j > d.i+1) {
			return d.unexpected("a feature index")
		}
		d.sc.feat = append(d.sc.feat, uint32(v))
		d.i = j
	}
}

func (d *decoder) values() error {
	opened, err := d.begin('[', "an array of values")
	if err != nil || !opened {
		return err
	}
	for first := true; ; first = false {
		ok, err := d.more(']', first)
		if err != nil || !ok {
			return err
		}
		v, err := d.float32()
		if err != nil {
			return err
		}
		d.sc.val = append(d.sc.val, v)
	}
}

// denseRow decodes an array of values and stores its non-zeros (the
// storage convention of the training data) under their positions.
func (d *decoder) denseRow() error {
	opened, err := d.begin('[', "an array of values")
	if err != nil || !opened {
		return err
	}
	for j, first := uint32(0), true; ; j, first = j+1, false {
		ok, err := d.more(']', first)
		if err != nil || !ok {
			return err
		}
		v, err := d.float32()
		if err != nil {
			return err
		}
		if v != 0 {
			d.sc.feat = append(d.sc.feat, j)
			d.sc.val = append(d.sc.val, v)
		}
	}
}

// float32 consumes one JSON number and rounds it as encoding/json does
// for a float32 field. The grammar is checked here because ParseFloat
// takes more than JSON allows (hex, underscores, "inf").
func (d *decoder) float32() (float32, error) {
	b, j, ok := d.b, d.i, false
	if j < len(b) && b[j] == '-' {
		j++
	}
	if j < len(b) && b[j] == '0' {
		j++
	} else if j, ok = digitsEnd(b, j); !ok {
		d.i = j
		return 0, d.unexpected("a number")
	}
	if j < len(b) && b[j] == '.' {
		if j, ok = digitsEnd(b, j+1); !ok {
			d.i = j
			return 0, d.unexpected("a digit")
		}
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if j, ok = digitsEnd(b, j); !ok {
			d.i = j
			return 0, d.unexpected("a digit")
		}
	}
	v, err := strconv.ParseFloat(string(b[d.i:j]), 32)
	if err != nil {
		return 0, fmt.Errorf("offset %d: %s is no float32", d.i, b[d.i:j])
	}
	d.i = j
	return float32(v), nil
}

// digitsEnd returns the end of the run of decimal digits at b[j:] and
// whether the run is non-empty.
func digitsEnd(b []byte, j int) (int, bool) {
	end := j
	for end < len(b) && b[end]-'0' <= 9 {
		end++
	}
	return end, end > j
}

// appendPredictResponse appends the response body for margins (row-major,
// stride k) to b, byte for byte what json.NewEncoder(w).Encode writes for
// the PredictResponse; prefix is the handle's precomputed head, up to and
// including `"scores":`. probs is nil unless probabilities were asked
// for. A non-finite score is an error, as it is for encoding/json.
func appendPredictResponse(b, prefix []byte, k int, margins, probs []float64) ([]byte, error) {
	b = append(b, prefix...)
	b, err := appendScoreRows(b, margins, k)
	if err != nil {
		return b, err
	}
	if probs != nil {
		b = append(b, `,"probabilities":`...)
		if b, err = appendScoreRows(b, probs, k); err != nil {
			return b, err
		}
	}
	return append(b, "}\n"...), nil
}

func appendScoreRows(b []byte, flat []float64, k int) ([]byte, error) {
	b = append(b, '[')
	for i := 0; i+k <= len(flat); i += k {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for c, f := range flat[i : i+k] {
			if c > 0 {
				b = append(b, ',')
			}
			if math.IsInf(f, 0) || math.IsNaN(f) {
				return b, fmt.Errorf("row %d class %d: non-finite score %v", i/k, c, f)
			}
			b = appendFloat(b, f)
		}
		b = append(b, ']')
	}
	return append(b, ']'), nil
}

// appendFloat formats f as encoding/json does a float64: shortest
// round-trip digits, exponent form outside [1e-6, 1e21), and a two-digit
// exponent cut to one ("1e-07" is written "1e-7").
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
