package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"vero/gbdt"
	"vero/internal/datasets"
	"vero/internal/testutil"
)

// newTestServer trains a model, round-trips it through Encode/DecodeModel
// (the exact artifact cmd/veroserve loads from disk), and serves it over
// httptest.
func newTestServer(t *testing.T, classes int) (*httptest.Server, *gbdt.Model, *gbdt.Dataset) {
	t.Helper()
	ds := testutil.Classification(t, datasets.SyntheticConfig{
		N: 1500, D: 30, C: classes,
		InformativeRatio: 0.3, Density: 0.4, Seed: 11,
	})
	model, _, err := gbdt.Train(ds, gbdt.Options{Workers: 4, Trees: 6, Layers: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := model.Encode()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := gbdt.DecodeModel(encoded)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(decoded, "test-model", Options{Workers: 2, MaxInFlight: 4, MaxBatchRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, model, ds
}

func postPredict(t *testing.T, url string, req PredictRequest) (int, PredictResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/models/default/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e apiError
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, PredictResponse{}, e.Error.Message
	}
	var out PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out, ""
}

// TestRoundTripPredictions is the Encode → veroserve → HTTP predict
// integration test: predictions served over HTTP for the encoded model
// must match the in-process model bit-exactly (modulo JSON float text,
// which round-trips float64 exactly in Go).
func TestRoundTripPredictions(t *testing.T) {
	for _, classes := range []int{2, 3} {
		t.Run(fmt.Sprintf("classes=%d", classes), func(t *testing.T) {
			ts, model, ds := newTestServer(t, classes)
			want := model.Predict(ds)
			k := 1
			if classes > 2 {
				k = classes
			}

			const rows = 25
			req := PredictRequest{Proba: true}
			for i := 0; i < rows; i++ {
				feat, val := ds.X.Row(i)
				req.Rows = append(req.Rows, SparseRow{Indices: feat, Values: val})
			}
			code, resp, apiErr := postPredict(t, ts.URL, req)
			if code != http.StatusOK {
				t.Fatalf("predict returned %d: %s", code, apiErr)
			}
			if resp.NumClass != k {
				t.Fatalf("num_class %d, want %d", resp.NumClass, k)
			}
			if len(resp.Scores) != rows || len(resp.Probabilities) != rows {
				t.Fatalf("%d scores, %d probabilities, want %d each", len(resp.Scores), len(resp.Probabilities), rows)
			}
			for i := 0; i < rows; i++ {
				for c := 0; c < k; c++ {
					if got := resp.Scores[i][c]; got != want[i*k+c] {
						t.Fatalf("row %d class %d: served %v, want %v", i, c, got, want[i*k+c])
					}
				}
				for _, p := range resp.Probabilities[i] {
					if p < 0 || p > 1 {
						t.Fatalf("row %d: probability %v outside [0,1]", i, p)
					}
				}
			}
		})
	}
}

func TestServeDenseAndUnsortedSparseAgree(t *testing.T) {
	ts, _, ds := newTestServer(t, 2)
	feat, val := ds.X.Row(3)

	// Reverse the sparse order; the server must sort before routing.
	rf := make([]uint32, len(feat))
	rv := make([]float32, len(val))
	for i := range feat {
		rf[len(feat)-1-i] = feat[i]
		rv[len(val)-1-i] = val[i]
	}
	dense := make([]float32, ds.NumFeatures())
	for i, f := range feat {
		dense[f] = val[i]
	}
	code, resp, apiErr := postPredict(t, ts.URL, PredictRequest{
		Rows:  []SparseRow{{Indices: feat, Values: val}, {Indices: rf, Values: rv}},
		Dense: [][]float32{dense},
	})
	if code != http.StatusOK {
		t.Fatalf("predict returned %d: %s", code, apiErr)
	}
	for i := 1; i < 3; i++ {
		if resp.Scores[i][0] != resp.Scores[0][0] {
			t.Fatalf("encoding %d scored %v, sorted sparse scored %v", i, resp.Scores[i][0], resp.Scores[0][0])
		}
	}
}

func TestServeValidation(t *testing.T) {
	ts, _, _ := newTestServer(t, 2)
	for _, tc := range []struct {
		name string
		req  PredictRequest
		code int
	}{
		{"empty", PredictRequest{}, http.StatusBadRequest},
		{"mismatched", PredictRequest{Rows: []SparseRow{{Indices: []uint32{1}, Values: []float32{1, 2}}}}, http.StatusBadRequest},
		{"duplicate", PredictRequest{Rows: []SparseRow{{Indices: []uint32{1, 1}, Values: []float32{1, 2}}}}, http.StatusBadRequest},
		{"too_big", PredictRequest{Dense: make([][]float32, 101)}, http.StatusRequestEntityTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, _, apiErr := postPredict(t, ts.URL, tc.req)
			if code != tc.code {
				t.Fatalf("got %d (%s), want %d", code, apiErr, tc.code)
			}
		})
	}

	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/models/default/predict", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON returned %d", resp.StatusCode)
	}
}

func TestServeModelAndHealth(t *testing.T) {
	ts, model, ds := newTestServer(t, 3)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz returned %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/models/default")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info ModelStatus
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.NumTrees != model.NumTrees() || info.NumClass != 3 || info.Objective != "softmax" {
		t.Fatalf("model info %+v inconsistent with trained model", info)
	}
	if info.NumFeature != ds.NumFeatures() {
		t.Fatalf("num_feature %d, want %d", info.NumFeature, ds.NumFeatures())
	}
}

// TestServeConcurrentRequests hammers the bounded-concurrency path: many
// more goroutines than MaxInFlight, all must succeed with identical
// results.
func TestServeConcurrentRequests(t *testing.T) {
	ts, _, ds := newTestServer(t, 2)
	feat, val := ds.X.Row(0)
	req := PredictRequest{Rows: []SparseRow{{Indices: feat, Values: val}}}

	code, first, apiErr := postPredict(t, ts.URL, req)
	if code != http.StatusOK {
		t.Fatalf("predict returned %d: %s", code, apiErr)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/models/default/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var out PredictResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if out.Scores[0][0] != first.Scores[0][0] {
				errs <- fmt.Errorf("concurrent score %v, want %v", out.Scores[0][0], first.Scores[0][0])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
