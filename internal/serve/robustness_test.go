package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vero/gbdt"
	"vero/internal/datasets"
	"vero/internal/testutil"
)

// TestReadyzDrain checks the load-balancer handshake: /readyz answers 200
// on a fresh server, flips to 503 after BeginDrain, and in-flight traffic
// keeps being served during the drain window — only routing stops, work
// does not.
func TestReadyzDrain(t *testing.T) {
	srv, err := New(constModel(t, 3), "seed", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("fresh /readyz returned %d, want 200", got)
	}
	if !srv.Ready() {
		t.Fatal("fresh server reports not ready")
	}

	srv.BeginDrain()
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz returned %d, want 503", got)
	}
	// Liveness is orthogonal to readiness: the process is still healthy.
	if got := status("/healthz"); got != http.StatusOK {
		t.Fatalf("draining /healthz returned %d, want 200", got)
	}
	// Requests already routed here must still be answered.
	resp, err := http.Post(ts.URL+"/v1/models/default/predict", "application/json",
		bytes.NewReader([]byte(`{"rows":[{"indices":[],"values":[]}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr PredictResponse
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&pr) != nil {
		t.Fatalf("predict during drain returned %d", resp.StatusCode)
	}
	if pr.Scores[0][0] != 3 {
		t.Fatalf("predict during drain scored %v, want 3", pr.Scores[0][0])
	}

	// Close implies BeginDrain on a fresh server.
	srv2, err := New(constModel(t, 1), "seed", Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv2.Close()
	if srv2.Ready() {
		t.Fatal("closed server still reports ready")
	}
}

// TestAdminSwapProbeRejects swaps in a structurally valid model whose
// margins overflow to +Inf: the probe must reject it with 400 before the
// registry version moves, and the incumbent model must keep serving.
func TestAdminSwapProbeRejects(t *testing.T) {
	srv, err := New(constModel(t, 1), "seed", Options{EnableAdmin: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Two leaves of 1e308 sum past MaxFloat64 on every row.
	leaf := `{"num_class":1,"nodes":[{"feature":-1,"left":-1,"right":-1,"weights":[1e308]}]}`
	data := fmt.Sprintf(`{"num_class":1,"learning_rate":1,"init_score":[0],
		"objective":"square","num_feature":4,"trees":[%s,%s]}`, leaf, leaf)
	path := filepath.Join(t.TempDir(), "overflow.json")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/v1/models/default", "application/json",
		bytes.NewReader([]byte(fmt.Sprintf(`{"path":%q}`, path))))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-finite swap returned %d: %s", resp.StatusCode, buf.Bytes())
	}
	if !strings.Contains(buf.String(), "probe") {
		t.Fatalf("rejection does not mention the probe: %s", buf.Bytes())
	}

	// The incumbent stays at version 1 and keeps answering.
	st, ok := srv.Registry().Status(DefaultModel)
	if !ok || st.Version != 1 {
		t.Fatalf("registry moved to %+v after rejected swap", st)
	}
	resp, err = http.Post(ts.URL+"/v1/models/default/predict", "application/json",
		bytes.NewReader([]byte(`{"rows":[{"indices":[],"values":[]}]}`)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr PredictResponse
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&pr) != nil {
		t.Fatalf("predict after rejected swap returned %d", resp.StatusCode)
	}
	if pr.Scores[0][0] != 1 || pr.Version != 1 {
		t.Fatalf("rejected swap leaked: score %v version %d", pr.Scores[0][0], pr.Version)
	}
}

// probeModel itself must catch scoring panics, not just non-finite
// margins — a nil model is the degenerate case.
func TestProbeModelRecovers(t *testing.T) {
	if err := probeModel(nil); err == nil {
		t.Fatal("probe of nil model succeeded")
	}
}

// endless is a body that never reaches EOF.
type endless struct{}

func (endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestEndlessBodyIsBounded sends a body without end and without a
// Content-Length: the answer is a 413 envelope, and reaching it allocates
// less than twice the body cap — the cap bounds memory, not only the
// answer.
func TestEndlessBodyIsBounded(t *testing.T) {
	srv, err := New(constModel(t, 1), "m", Options{MaxBatchRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	handler := srv.Handler()
	limit := bodyLimit(4)
	post := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/models/default/predict", endless{})
		req.ContentLength = -1
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		return rec
	}

	var before, after runtime.MemStats
	runtime.GC() // empties the scratch pool: the request starts from no buffer
	runtime.GC()
	runtime.ReadMemStats(&before)
	rec := post()
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= uint64(2*limit) {
		t.Fatalf("an endless body allocated %d bytes, cap is %d", grew, limit)
	}
	var envelope apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &envelope); err != nil {
		t.Fatalf("response %q is no envelope: %v", rec.Body.Bytes(), err)
	}
	if rec.Code != http.StatusRequestEntityTooLarge || envelope.Error.Code != "too_large" {
		t.Fatalf("endless body answered %d %+v, want 413 too_large", rec.Code, envelope.Error)
	}

	// A declared length over the cap is refused before a byte is read.
	req := httptest.NewRequest(http.MethodPost, "/v1/models/default/predict", endless{})
	req.ContentLength = limit + 1
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared oversize body answered %d, want 413", rec.Code)
	}
}

// TestRowLimitStopsTheDecode sends MaxBatchRows+1 tiny rows followed by
// bytes no JSON parser would accept: the 413 shows the decoder stopped at
// the row limit and never looked at the remainder (the parent decoded the
// whole body first, so it answered 400 here).
func TestRowLimitStopsTheDecode(t *testing.T) {
	const maxRows = 4
	for _, body := range []string{
		`{"dense":[[1],[1],[1],[1],[1],` + strings.Repeat("@", 1000),
		`{"rows":[{},{},{}],"dense":[[1],[1]` + strings.Repeat("@", 1000),
		`{"dense":[[1],[1]],"rows":[{},{},{"indices":` + strings.Repeat("@", 1000),
	} {
		var sc predictScratch
		_, status, err := sc.decode([]byte(body), maxRows)
		if err == nil || status != http.StatusRequestEntityTooLarge {
			t.Fatalf("%.40q…: status %d, err %v; want 413", body, status, err)
		}
		if len(sc.ends) != maxRows {
			t.Fatalf("%.40q…: decoded %d rows before refusing, want %d", body, len(sc.ends), maxRows)
		}
	}
}

// TestOversizedScratchNotPooled: a request that grew its buffers past the
// retention limit gives them to the collector, not to the next request.
func TestOversizedScratchNotPooled(t *testing.T) {
	small := &predictScratch{buf: make([]byte, 0, 4096)}
	if _, _, err := small.decode([]byte(`{"dense":[[1,2,3]]}`), 8); err != nil {
		t.Fatal(err)
	}
	if !small.release() {
		t.Fatalf("a %d-byte scratch was not pooled", small.footprint())
	}
	for name, sc := range map[string]*predictScratch{
		"body":   {buf: make([]byte, 0, maxRetainedBytes+1)},
		"values": {feat: make([]uint32, 0, maxRetainedBytes/8), val: make([]float32, 0, maxRetainedBytes/8+1)},
	} {
		if sc.release() {
			t.Fatalf("%s: a %d-byte scratch went back to the pool (limit %d)", name, sc.footprint(), maxRetainedBytes)
		}
	}
}

// TestPoisonedScratchNeverScored drives single-row and multi-row traffic
// through micro-batching while every released scratch is overwritten with
// 0xFF (TestMain). A batcher scoring a row after its request returned, or
// a response written from a released buffer, shows as a score that
// differs from the pointer-walk oracle or as a response that does not
// parse. Run with -race.
func TestPoisonedScratchNeverScored(t *testing.T) {
	if !poisonOnRelease {
		t.Fatal("the package's tests must run with poisonOnRelease set")
	}
	ds := testutil.Classification(t, datasets.SyntheticConfig{
		N: 400, D: 15, C: 3, InformativeRatio: 0.4, Density: 0.5, Seed: 17,
	})
	model, _, err := gbdt.Train(ds, gbdt.Options{Workers: 2, Trees: 4, Layers: 4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	oracle := model.Forest()
	srv, err := New(model, "m", Options{
		Workers:     2,
		MaxInFlight: 16,
		Batch:       BatchConfig{Deadline: 200 * time.Microsecond, MaxRows: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	const goroutines, perG = 8, 60
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				first := (g*perG + i) % 390
				n := 1 // single rows coalesce; every fifth request is a batch of its own
				if i%5 == 4 {
					n = 1 + i%9
				}
				var req PredictRequest
				for r := first; r < first+n; r++ {
					feat, val := ds.X.Row(r)
					req.Rows = append(req.Rows, SparseRow{Indices: feat, Values: val})
				}
				body, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/models/default/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var out PredictResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || len(out.Scores) != n {
					t.Errorf("rows %d..%d: status %d, %d scores, err %v", first, first+n, resp.StatusCode, len(out.Scores), err)
					return
				}
				for r := 0; r < n; r++ {
					feat, val := ds.X.Row(first + r)
					want := oracle.PredictRow(feat, val)
					for c := range want {
						if out.Scores[r][c] != want[c] {
							t.Errorf("row %d class %d: served %v, oracle %v", first+r, c, out.Scores[r][c], want[c])
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	snap := srv.Registry().Metrics()[0]
	if snap.Batching == nil || snap.Batching.BatchedRows == 0 {
		t.Fatalf("no row went through the coalescer: %+v", snap.Batching)
	}
}

// TestNonFiniteScoreIs500 serves a model whose margins overflow to +Inf
// (loaded directly, past the admin probe). JSON cannot carry the score,
// so the answer is a whole 500 envelope — the parent had sent the 200
// status line before its encoder found out, and dropped the error.
func TestNonFiniteScoreIs500(t *testing.T) {
	leaf := `{"num_class":1,"nodes":[{"feature":-1,"left":-1,"right":-1,"weights":[1e308]}]}`
	model, err := gbdt.DecodeModel([]byte(fmt.Sprintf(`{"num_class":1,"learning_rate":1,"init_score":[0],
		"objective":"square","num_feature":4,"trees":[%s,%s]}`, leaf, leaf)))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(model, "overflow", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/models/default/predict", "application/json", strings.NewReader(`{"dense":[[1]]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope apiError
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatalf("response is no envelope: %v", err)
	}
	if resp.StatusCode != http.StatusInternalServerError || envelope.Error.Code != "internal" {
		t.Fatalf("non-finite score answered %d %+v, want 500 internal", resp.StatusCode, envelope.Error)
	}
	if snap := srv.Registry().Metrics()[0]; snap.Errors != 1 || snap.Requests != 1 {
		t.Fatalf("metrics %+v, want the request counted as an error", snap)
	}
}

// slowWriter is a client that takes its time with the response.
type slowWriter struct {
	discardWriter
	delay time.Duration
}

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(w.delay)
	return len(p), nil
}

// TestMetriczClockCoversWaitAndWrite pins what /metricz's latency means:
// the clock starts before the wait for admission and stops after the
// response is written, so both show in the histogram.
func TestMetriczClockCoversWaitAndWrite(t *testing.T) {
	const hold = 30 * time.Millisecond
	p50 := func(t *testing.T, srv *Server) float64 {
		t.Helper()
		snap := srv.Registry().Metrics()[0]
		if snap.LatencyMs.Count != 1 {
			t.Fatalf("%d requests in the histogram, want 1", snap.LatencyMs.Count)
		}
		return snap.LatencyMs.P50
	}
	request := func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/v1/models/default/predict", strings.NewReader(`{"dense":[[1]]}`))
	}

	t.Run("admission wait", func(t *testing.T) {
		srv, err := New(constModel(t, 1), "m", Options{MaxInFlight: 1})
		if err != nil {
			t.Fatal(err)
		}
		h, _ := srv.Registry().get(DefaultModel)
		h.inflight <- struct{}{} // the only slot is taken
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Handler().ServeHTTP(&discardWriter{header: http.Header{}}, request())
		}()
		time.Sleep(hold)
		<-h.inflight
		<-done
		if got := p50(t, srv); got < float64(hold/time.Millisecond) {
			t.Fatalf("a request that waited %v for admission was recorded at %v ms", hold, got)
		}
	})
	t.Run("response write", func(t *testing.T) {
		srv, err := New(constModel(t, 1), "m", Options{})
		if err != nil {
			t.Fatal(err)
		}
		w := &slowWriter{discardWriter{header: http.Header{}}, hold}
		srv.Handler().ServeHTTP(w, request())
		if w.status != http.StatusOK {
			t.Fatalf("predict answered %d", w.status)
		}
		if got := p50(t, srv); got < float64(hold/time.Millisecond) {
			t.Fatalf("a response that took %v to write was recorded at %v ms", hold, got)
		}
	})
}
