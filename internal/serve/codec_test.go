package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"vero/gbdt"
	"vero/internal/datasets"
	"vero/internal/testutil"
)

// Every test of the package runs with released scratch overwritten: a
// handler, batcher or writer that reads a row or a response after its
// request gave the storage back scores or sends 0xFF garbage, and the
// oracle comparisons catch it (TestPoisonedScratchNeverScored most
// directly).
func TestMain(m *testing.M) {
	poisonOnRelease = true
	os.Exit(m.Run())
}

// spell writes req as a body encoding/json reads back as req, exercising
// the freedoms of the wire format: members in any order, whitespace
// between any two tokens, null for an empty array or row.
func spell(rng *rand.Rand, req PredictRequest) []byte {
	num := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err)
		}
		return string(b)
	}
	list := func(n int, elem func(i int) string) string {
		if n == 0 && rng.Intn(2) == 0 {
			return "null"
		}
		parts := make([]string, n)
		for i := range parts {
			parts[i] = elem(i)
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	object := func(members ...string) string {
		rng.Shuffle(len(members), func(i, j int) { members[i], members[j] = members[j], members[i] })
		return "{" + strings.Join(members, ",") + "}"
	}
	var members []string
	if len(req.Rows) > 0 || rng.Intn(2) == 0 {
		members = append(members, `"rows":`+list(len(req.Rows), func(i int) string {
			row := req.Rows[i]
			if len(row.Indices) == 0 && len(row.Values) == 0 {
				switch rng.Intn(3) {
				case 0:
					return "null"
				case 1:
					return "{}"
				}
			}
			return object(
				`"indices":`+list(len(row.Indices), func(j int) string { return num(row.Indices[j]) }),
				`"values":`+list(len(row.Values), func(j int) string { return num(row.Values[j]) }))
		}))
	}
	if len(req.Dense) > 0 || rng.Intn(2) == 0 {
		members = append(members, `"dense":`+list(len(req.Dense), func(i int) string {
			return list(len(req.Dense[i]), func(j int) string { return num(req.Dense[i][j]) })
		}))
	}
	if req.Proba || rng.Intn(2) == 0 {
		members = append(members, `"proba":`+num(req.Proba))
	} else if rng.Intn(4) == 0 {
		members = append(members, `"proba":null`)
	}
	tight := object(members...)

	// No token of the format contains a structural byte, so whitespace may
	// go on either side of each.
	var out strings.Builder
	space := func() {
		for rng.Intn(3) == 0 {
			out.WriteByte(" \t\r\n"[rng.Intn(4)])
		}
	}
	space()
	for i := 0; i < len(tight); i++ {
		if strings.IndexByte("{}[],:", tight[i]) >= 0 {
			space()
			out.WriteByte(tight[i])
			space()
		} else {
			out.WriteByte(tight[i])
		}
	}
	return []byte(out.String())
}

// randomRequest draws a request within the wire format, leaning on its
// corners: unsorted indices, the largest index, -0, the float32 extremes.
func randomRequest(rng *rand.Rand, maxRows int) PredictRequest {
	corners := []float32{0, float32(math.Copysign(0, -1)), 3.4e38, -3.4e38, 1e-45, 1.5, -2, 1e-7, 1e21}
	value := func() float32 {
		if rng.Intn(3) == 0 {
			return corners[rng.Intn(len(corners))]
		}
		return float32(rng.NormFloat64())
	}
	var req PredictRequest
	total := 1 + rng.Intn(maxRows)
	sparse := rng.Intn(total + 1)
	for i := 0; i < sparse; i++ {
		n := rng.Intn(6)
		ids := rng.Perm(40)[:n] // distinct, unsorted
		var row SparseRow
		for j, id := range ids {
			f := uint32(id)
			if j == 0 && rng.Intn(4) == 0 {
				f = math.MaxUint32
			}
			row.Indices = append(row.Indices, f)
			row.Values = append(row.Values, value())
		}
		req.Rows = append(req.Rows, row)
	}
	for i := sparse; i < total; i++ {
		var dense []float32
		for j, n := 0, rng.Intn(6); j < n; j++ {
			dense = append(dense, value())
		}
		req.Dense = append(req.Dense, dense)
	}
	req.Proba = rng.Intn(2) == 0
	return req
}

// TestDecodeAcceptsWireFormat is the direction the fuzz target cannot
// cover: everything the documented wire format allows — as json.Marshal
// writes it, and re-spelled with shuffled members, whitespace and nulls —
// is accepted, with the rows the reference decodes.
func TestDecodeAcceptsWireFormat(t *testing.T) {
	const maxRows = 6
	rng := rand.New(rand.NewSource(22))
	var sc predictScratch
	for i := 0; i < 2000; i++ {
		req := randomRequest(rng, maxRows)
		marshaled, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		for _, body := range [][]byte{marshaled, spell(rng, req)} {
			wantProba, wantFeats, wantVals, _, err := referenceDecode(body, maxRows)
			if err != nil {
				t.Fatalf("%q: the reference rejects a generated body: %v", body, err)
			}
			if wantProba != req.Proba || len(wantFeats) != len(req.Rows)+len(req.Dense) {
				t.Fatalf("%q: does not read back as the request it spells", body)
			}
			proba, status, err := sc.decode(body, maxRows)
			if err != nil {
				t.Fatalf("%q: rejected with %d: %v", body, status, err)
			}
			if proba != wantProba {
				t.Fatalf("%q: proba %v, want %v", body, proba, wantProba)
			}
			sameRows(t, body, &sc, wantFeats, wantVals)
		}
	}
}

// stricterCases are the bodies encoding/json (the reference) accepts and
// the decoder refuses, one or more per case enumerated in docs/SERVING.md
// ("Stricter than encoding/json"). Nothing outside this list may differ:
// the fuzz target forbids accepting more, TestDecodeAcceptsWireFormat
// forbids accepting less of the documented format.
var stricterCases = []struct{ name, body string }{
	{"case-folded key", `{"Rows":[{"indices":[1],"values":[2]}]}`},
	{"case-folded key, unicode fold", "{\"row\u017f\":[{\"indices\":[1],\"values\":[2]}]}"},
	{"case-folded row key", `{"rows":[{"INDICES":[1],"values":[2]}]}`},
	{"escaped key", `{"r\u006fws":[{"indices":[1],"values":[2]}]}`},
	{"escaped row key", `{"rows":[{"indices":[1],"v\u0061lues":[2]}]}`},
	{"repeated key", `{"dense":[[1]],"dense":[[2]]}`},
	{"repeated row key", `{"rows":[{"indices":[1],"indices":[2],"values":[3]}]}`},
	{"repeated proba", `{"proba":true,"dense":[[1]],"proba":false}`},
	{"null index", `{"rows":[{"indices":[null],"values":[1]}]}`},
	{"null value", `{"rows":[{"indices":[1],"values":[null]}]}`},
	{"null dense value", `{"dense":[[1,null]]}`},
	{"data after the object", `{"dense":[[1]]} x`},
	{"second object", `{"dense":[[1]]}{"dense":[[2]]}`},
	{"NUL after the object", "{\"dense\":[[1]]}\x00"},
}

func TestDecodeStricterThanEncodingJSON(t *testing.T) {
	for _, tc := range stricterCases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, _, _, err := referenceDecode([]byte(tc.body), 8); err != nil {
				t.Fatalf("the reference rejects it too (%v): not a stricter case", err)
			}
			var sc predictScratch
			_, status, err := sc.decode([]byte(tc.body), 8)
			if err == nil || status != http.StatusBadRequest {
				t.Fatalf("status %d, err %v; want a 400", status, err)
			}
		})
	}
}

// TestDecodeRejects pins bodies both decoders refuse, where the
// hand-written one has to do something encoding/json gets from its
// scanner or from reflection.
func TestDecodeRejects(t *testing.T) {
	for _, body := range []string{
		``, ` `, `null`, `[]`, `"rows"`, `{`, `{"dense":[[1]]`, `{"dense":[[1]],}`, `{"dense":[[1],]}`,
		`{"dense":[[1,]]}`, `{"dense" [[1]]}`, `{dense:[[1]]}`, `{"dense":[1]}`, `{"dense":{}}`,
		`{"rows":[[1]]}`, `{"rows":[{"indices":[1],"values":[1],"extra":1}]}`,
		`{"rows":[{"indices":[-0],"values":[1]}]}`, `{"rows":[{"indices":[1.0],"values":[1]}]}`,
		`{"rows":[{"indices":[1e2],"values":[1]}]}`, `{"rows":[{"indices":[01],"values":[1]}]}`,
		`{"rows":[{"indices":[4294967296],"values":[1]}]}`, `{"rows":[{"indices":["1"],"values":[1]}]}`,
		`{"dense":[[01]]}`, `{"dense":[[1.]]}`, `{"dense":[[.5]]}`, `{"dense":[[+1]]}`, `{"dense":[[-]]}`,
		`{"dense":[[1e]]}`, `{"dense":[[1e+]]}`, `{"dense":[[0x10]]}`, `{"dense":[[1_0]]}`, `{"dense":[[Inf]]}`,
		`{"dense":[[NaN]]}`, `{"dense":[[3.5e38]]}`, `{"dense":[[1e999]]}`, `{"dense":[["1"]]}`, `{"dense":[[true]]}`,
		`{"dense":[[1]],"proba":1}`, `{"dense":[[1]],"proba":"true"}`, `{"dense":[[1]],"proba":tru}`,
		`{"dense":[[1]],"proba":nullx}`, "\ufeff{\"dense\":[[1]]}",
	} {
		if _, _, _, _, err := referenceDecode([]byte(body), 8); err == nil {
			t.Errorf("%q: the reference accepts it: it belongs in another table", body)
		}
		var sc predictScratch
		if _, status, err := sc.decode([]byte(body), 8); err == nil || status != http.StatusBadRequest {
			t.Errorf("%q: status %d, err %v; want a 400", body, status, err)
		}
	}
}

// TestPredictResponseBytes holds the append-style encoder to
// json.NewEncoder(w).Encode(PredictResponse), byte for byte: the float
// format at its switch-over points, one and several classes, with and
// without probabilities, and a model name encoding/json escapes.
func TestPredictResponseBytes(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), 1e-7, 1e21, 5e-324, // the issue's list
		1e-6, 9.99999e-7, 1e20, 999999999999999900000, -1.5, 0.1, 1.0 / 3, 123456789.125, math.MaxFloat64, -1e-300}
	rows := func(flat []float64, k int) [][]float64 {
		var out [][]float64
		for i := 0; i+k <= len(flat); i += k {
			out = append(out, flat[i:i+k])
		}
		return out
	}
	for _, name := range []string{"default", "a<b>&\"\\ \u2028\u00e9\x01\xff"} {
		for _, k := range []int{1, 5} {
			for _, proba := range []bool{false, true} {
				margins := values[:len(values)/k*k]
				want := PredictResponse{Model: name, Version: 7, NumClass: k, Scores: rows(margins, k)}
				var probs []float64
				if proba {
					probs = make([]float64, len(margins))
					for i, v := range margins {
						probs[i] = v / 2
					}
					want.Probabilities = rows(probs, k)
				}
				var wantBytes bytes.Buffer
				if err := json.NewEncoder(&wantBytes).Encode(want); err != nil {
					t.Fatal(err)
				}
				got, err := appendPredictResponse([]byte("stale"), responseHead(name, 7, k), k, margins, probs)
				if err != nil {
					t.Fatal(err)
				}
				if got = got[len("stale"):]; !bytes.Equal(got, wantBytes.Bytes()) {
					t.Fatalf("name %q k=%d proba=%v:\n got %s\nwant %s", name, k, proba, got, wantBytes.Bytes())
				}
			}
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := appendPredictResponse(nil, responseHead("m", 1, 1), 1, []float64{1, bad}, nil); err == nil {
			t.Fatalf("score %v encoded without error", bad)
		}
		if _, err := appendPredictResponse(nil, responseHead("m", 1, 1), 1, []float64{1}, []float64{bad}); err == nil {
			t.Fatalf("probability %v encoded without error", bad)
		}
	}
}

// discardWriter is the cheapest http.ResponseWriter: the allocation test
// counts the handler's allocations, not a recorder's.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// predictAllocs measures the steady-state allocations of one predict
// request carrying body, through the whole handler tree.
func predictAllocs(t *testing.T, srv *Server, body []byte) float64 {
	t.Helper()
	handler := srv.Handler()
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/models/"+DefaultModel+"/predict", nil)
	req.ContentLength = int64(len(body))
	req.Body = io.NopCloser(rd)
	w := &discardWriter{header: http.Header{}}
	return testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		clear(w.header)
		w.status = 0
		handler.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("predict answered %d", w.status)
		}
	})
}

// TestPredictAllocations pins what one request allocates once the pool is
// warm, at the figure this codec reached: 6 for one row and 7 for 64 (the
// reflection codec it replaced, under this same test: 31 and 671). What
// is left is net/http's and the predictor's — the route match, the
// MaxBytesReader, two header values, the margins, the kernel's block
// image, a Content-Length of three digits or more — and none of it grows
// with the rows or values of the body.
func TestPredictAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	ds := testutil.Classification(t, datasets.SyntheticConfig{
		N: 500, D: 30, C: 2, InformativeRatio: 0.3, Density: 0.4, Seed: 11,
	})
	model, _, err := gbdt.Train(ds, gbdt.Options{Workers: 2, Trees: 6, Layers: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(model, "alloc", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		rows int
		max  float64
	}{{1, 6}, {64, 7}} {
		var req PredictRequest
		for i := 0; i < tc.rows; i++ {
			feat, val := ds.X.Row(i)
			req.Rows = append(req.Rows, SparseRow{Indices: feat, Values: val})
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if got := predictAllocs(t, srv, body); got > tc.max {
			t.Errorf("%d-row request: %v allocations, pinned at %v", tc.rows, got, tc.max)
		} else {
			t.Logf("%d-row request: %v allocations", tc.rows, got)
		}
	}
}
