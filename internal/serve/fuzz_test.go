package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"testing"
)

// referenceDecode is the decoder this package used before it had its own:
// encoding/json into PredictRequest with unknown fields disallowed, then
// the row normalisation. It stays as the oracle the hand-written decoder
// is held against.
func referenceDecode(body []byte, maxRows int) (proba bool, feats [][]uint32, vals [][]float32, status int, err error) {
	var req PredictRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return false, nil, nil, http.StatusBadRequest, err
	}
	n := len(req.Rows) + len(req.Dense)
	if n == 0 {
		return false, nil, nil, http.StatusBadRequest, fmt.Errorf("empty request")
	}
	if n > maxRows {
		return false, nil, nil, http.StatusRequestEntityTooLarge, fmt.Errorf("%d rows exceeds batch limit %d", n, maxRows)
	}
	for i, row := range req.Rows {
		if len(row.Indices) != len(row.Values) {
			return false, nil, nil, http.StatusBadRequest, fmt.Errorf("row %d: %d indices but %d values", i, len(row.Indices), len(row.Values))
		}
		order := make([]int, len(row.Indices))
		for j := range order {
			order[j] = j
		}
		sort.SliceStable(order, func(a, b int) bool { return row.Indices[order[a]] < row.Indices[order[b]] })
		feat := make([]uint32, len(order))
		val := make([]float32, len(order))
		for j, o := range order {
			feat[j], val[j] = row.Indices[o], row.Values[o]
			if j > 0 && feat[j] == feat[j-1] {
				return false, nil, nil, http.StatusBadRequest, fmt.Errorf("row %d: duplicate feature index %d", i, feat[j])
			}
		}
		feats, vals = append(feats, feat), append(vals, val)
	}
	for _, dense := range req.Dense {
		var feat []uint32
		var val []float32
		for j, v := range dense {
			if v != 0 {
				feat, val = append(feat, uint32(j)), append(val, v)
			}
		}
		feats, vals = append(feats, feat), append(vals, val)
	}
	return req.Proba, feats, vals, http.StatusOK, nil
}

// sameRows fails unless the decoded rows equal the reference's: feature
// ids, value bits, row order.
func sameRows(t *testing.T, body []byte, sc *predictScratch, wantFeats [][]uint32, wantVals [][]float32) {
	t.Helper()
	if len(sc.feats) != len(wantFeats) || len(sc.vals) != len(wantVals) {
		t.Fatalf("%q: decoded %d/%d rows, reference %d", body, len(sc.feats), len(sc.vals), len(wantFeats))
	}
	for i := range wantFeats {
		if len(sc.feats[i]) != len(wantFeats[i]) || len(sc.vals[i]) != len(wantVals[i]) {
			t.Fatalf("%q: row %d has %d/%d entries, reference %d", body, i, len(sc.feats[i]), len(sc.vals[i]), len(wantFeats[i]))
		}
		for j := range wantFeats[i] {
			if sc.feats[i][j] != wantFeats[i][j] {
				t.Fatalf("%q: row %d entry %d: feature %d, reference %d", body, i, j, sc.feats[i][j], wantFeats[i][j])
			}
			if got, want := math.Float32bits(sc.vals[i][j]), math.Float32bits(wantVals[i][j]); got != want {
				t.Fatalf("%q: row %d entry %d: value bits %#x, reference %#x", body, i, j, got, want)
			}
		}
	}
}

// FuzzDecodePredictRequest holds the /v1/models/{name}/predict body decoder to
// encoding/json, differentially: it must never panic, whatever it rejects
// carries a 4xx status, and whatever it accepts the reference accepts too,
// with the same proba flag and bit-identical rows in the same order. (The
// other direction — everything the documented wire format allows is
// accepted — is TestDecodeAcceptsWireFormat; where the decoder is
// stricter than encoding/json is TestDecodeStricterThanEncodingJSON.)
func FuzzDecodePredictRequest(f *testing.F) {
	f.Add([]byte(`{"rows":[{"indices":[0,7],"values":[1.5,-2]}],"proba":true}`))
	f.Add([]byte(`{"dense":[[1.5,0,0,-2]]}`))
	f.Add([]byte(`{"rows":[{"indices":[7,0],"values":[1,2]}],"dense":[[0,1]]}`))
	f.Add([]byte(`{"rows":[{"indices":[1,1],"values":[1,2]}]}`))
	f.Add([]byte(`{"rows":[{"indices":[4294967295],"values":[3.4e38]}]}`))
	f.Add([]byte(`{nope`))
	f.Add([]byte(`{"rows":[],"dense":[]}`))
	f.Add([]byte(`{"unknown":1}`))
	f.Add([]byte(` { "dense" : [ [ -0 , 1e-50 , 0.0 ] , null ] , "rows" : [ null , { } ] , "proba" : null } `))
	f.Add([]byte(`{"rows":[{"values":[1E+2,-1.25e-3],"indices":[3,2]}]}`))
	f.Add([]byte(`{"rows":[{"indices":[01],"values":[1_0]}]}`))
	f.Add([]byte(`{"dense":[[0x10,Inf,1.,.5,+1]]}`))
	for _, c := range stricterCases {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxRows = 8
		var sc predictScratch
		proba, status, err := sc.decode(data, maxRows)
		if err != nil {
			if status < 400 || status > 499 {
				t.Fatalf("%q: error %v carries status %d, want 4xx", data, err, status)
			}
			return
		}
		wantProba, wantFeats, wantVals, _, refErr := referenceDecode(data, maxRows)
		if refErr != nil {
			t.Fatalf("%q: accepted, but the reference rejects it: %v", data, refErr)
		}
		if proba != wantProba {
			t.Fatalf("%q: proba %v, reference %v", data, proba, wantProba)
		}
		sameRows(t, data, &sc, wantFeats, wantVals)
	})
}
