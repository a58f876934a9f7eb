package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vero/gbdt"
	"vero/internal/datasets"
	"vero/internal/testutil"
)

// fakeClock is a manually advanced clock: timers fire only from Advance,
// so batcher deadline behavior is deterministic under test.
type fakeClock struct {
	mu     sync.Mutex
	now    time.Time
	timers []*fakeTimer
}

type fakeTimer struct {
	c        chan time.Time
	deadline time.Time
	fired    bool
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) NewTimer(d time.Duration) batchTimer {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{c: make(chan time.Time, 1), deadline: c.now.Add(d)}
	c.timers = append(c.timers, t)
	return t
}

func (t *fakeTimer) C() <-chan time.Time { return t.c }
func (t *fakeTimer) Stop() bool          { return true }

// Advance moves the clock and fires every armed timer whose deadline has
// passed.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	for _, t := range c.timers {
		if !t.fired && !t.deadline.After(c.now) {
			t.fired = true
			t.c <- c.now
		}
	}
}

// waitTimers blocks until n timers have been armed (i.e. n batch leaders
// are waiting on their deadline).
func (c *fakeClock) waitTimers(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		got := len(c.timers)
		c.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d timers armed, want %d", got, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// queuedRows polls until the batcher's open batch holds n rows.
func queuedRows(t *testing.T, b *batcher, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		got := 0
		if b.cur != nil {
			got = len(b.cur.feats)
		}
		b.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d rows queued, want %d", got, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// batcherFixture is a batcher over a real trained predictor, primed as if
// a request just arrived so the arrival-gap fast path does not trigger
// (the tests simulate sustained load; the fake clock keeps gaps at zero).
func batcherFixture(t *testing.T, clk clock, cfg BatchConfig) (*batcher, *gbdt.Predictor, *gbdt.Dataset) {
	t.Helper()
	ds := testutil.Classification(t, datasets.SyntheticConfig{
		N: 800, D: 20, C: 2, InformativeRatio: 0.4, Density: 0.4, Seed: 5,
	})
	model, _, err := gbdt.Train(ds, gbdt.Options{Workers: 2, Trees: 4, Layers: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := gbdt.NewPredictor(model, gbdt.PredictorOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	b := newBatcher(pred, cfg, clk, &modelMetrics{})
	primeArrivals(b)
	return b, pred, ds
}

// primeArrivals marks the batcher as having just seen a request, so the
// next enqueue observes a zero arrival gap and queues.
func primeArrivals(b *batcher) {
	b.mu.Lock()
	b.last = b.clk.Now()
	b.mu.Unlock()
}

// enqueueAsync runs enqueue in a goroutine and delivers its result.
type enqueueResult struct {
	margins []float64
	ok      bool
}

func enqueueAsync(b *batcher, feat []uint32, val []float32) <-chan enqueueResult {
	ch := make(chan enqueueResult, 1)
	go func() {
		m, ok := b.enqueue(feat, val)
		ch <- enqueueResult{m, ok}
	}()
	return ch
}

// TestBatcherFlushOnCount pins the count trigger: the request whose row
// fills the batch flushes it, every waiter gets its own row's margins,
// and the flush is accounted as "full" — the deadline timer never fires.
func TestBatcherFlushOnCount(t *testing.T) {
	clk := newFakeClock()
	b, pred, ds := batcherFixture(t, clk, BatchConfig{Deadline: time.Hour, MaxRows: 3})

	var chans []<-chan enqueueResult
	for i := 0; i < 2; i++ {
		feat, val := ds.X.Row(i)
		chans = append(chans, enqueueAsync(b, feat, val))
	}
	queuedRows(t, b, 2)
	// The third row fills the batch; this call flushes and returns.
	feat, val := ds.X.Row(2)
	margins, ok := b.enqueue(feat, val)
	if !ok {
		t.Fatal("filling enqueue was refused")
	}
	if want := pred.PredictRow(feat, val); margins[0] != want[0] {
		t.Fatalf("filler margins %v, want %v", margins, want)
	}
	for i, ch := range chans {
		res := <-ch
		if !res.ok {
			t.Fatalf("waiter %d refused", i)
		}
		feat, val := ds.X.Row(i)
		if want := pred.PredictRow(feat, val); res.margins[0] != want[0] {
			t.Fatalf("waiter %d margins %v, want %v", i, res.margins, want[0])
		}
	}
	if got := b.metrics.batches.Load(); got != 1 {
		t.Fatalf("batches = %d, want 1", got)
	}
	if got := b.metrics.batchedRows.Load(); got != 3 {
		t.Fatalf("batchedRows = %d, want 3", got)
	}
	if got := b.metrics.batchFlush[flushFull].Load(); got != 1 {
		t.Fatalf("flushFull = %d, want 1", got)
	}
	if got := b.metrics.batchFlush[flushDeadline].Load(); got != 0 {
		t.Fatalf("flushDeadline = %d, want 0", got)
	}
}

// TestBatcherFlushOnDeadline pins the deadline trigger: an under-filled
// batch flushes when the leader's timer fires, with the queue wait
// recorded.
func TestBatcherFlushOnDeadline(t *testing.T) {
	clk := newFakeClock()
	b, pred, ds := batcherFixture(t, clk, BatchConfig{Deadline: time.Millisecond, MaxRows: 8})

	var chans []<-chan enqueueResult
	for i := 0; i < 2; i++ {
		feat, val := ds.X.Row(i)
		chans = append(chans, enqueueAsync(b, feat, val))
	}
	clk.waitTimers(t, 1)
	queuedRows(t, b, 2)
	clk.Advance(time.Millisecond)
	for i, ch := range chans {
		res := <-ch
		if !res.ok {
			t.Fatalf("waiter %d refused", i)
		}
		feat, val := ds.X.Row(i)
		if want := pred.PredictRow(feat, val); res.margins[0] != want[0] {
			t.Fatalf("waiter %d margins %v, want %v", i, res.margins, want[0])
		}
	}
	if got := b.metrics.batchFlush[flushDeadline].Load(); got != 1 {
		t.Fatalf("flushDeadline = %d, want 1", got)
	}
	if got := b.metrics.batchedRows.Load(); got != 2 {
		t.Fatalf("batchedRows = %d, want 2", got)
	}
	snap := b.metrics.snapshot("m", 1, true)
	if snap.Batching.QueueWaitMs.Count != 2 {
		t.Fatalf("queue wait count = %d, want 2", snap.Batching.QueueWaitMs.Count)
	}
	if snap.Batching.Factor != 2 {
		t.Fatalf("batching factor = %v, want 2", snap.Batching.Factor)
	}
}

// TestBatcherInlineFastPath pins the single-request fast path: when the
// queue is empty and the previous request arrived more than a deadline
// ago (or never), enqueue declines instead of making a lone request wait
// out a deadline no companion will beat.
func TestBatcherInlineFastPath(t *testing.T) {
	clk := newFakeClock()
	b, _, ds := batcherFixture(t, clk, BatchConfig{Deadline: time.Millisecond, MaxRows: 8})
	feat, val := ds.X.Row(0)

	// Sparse traffic: the last request is two deadlines in the past.
	clk.Advance(2 * time.Millisecond)
	if _, ok := b.enqueue(feat, val); ok {
		t.Fatal("sparse-traffic request was queued; want inline fast path")
	}
	if got := b.metrics.batchInline.Load(); got != 1 {
		t.Fatalf("batchInline = %d, want 1", got)
	}
	if got := b.metrics.batches.Load(); got != 0 {
		t.Fatalf("batches = %d, want 0", got)
	}

	// The inline request still counts as an arrival: a request right on
	// its heels queues (and, alone at the deadline, flushes as a batch of
	// one).
	done := enqueueAsync(b, feat, val)
	clk.waitTimers(t, 1)
	clk.Advance(time.Millisecond)
	if res := <-done; !res.ok {
		t.Fatal("request within the deadline gap was refused")
	}
	if got := b.metrics.batchedRows.Load(); got != 1 {
		t.Fatalf("batchedRows = %d, want 1", got)
	}

	// A fresh batcher has seen no arrivals at all: first request inline.
	b2 := newBatcher(b.pred, b.cfg, clk, &modelMetrics{})
	if _, ok := b2.enqueue(feat, val); ok {
		t.Fatal("first-ever request was queued; want inline fast path")
	}
}

// TestBatcherCloseDrains pins shutdown: Close scores and answers every
// queued row exactly once (flush cause "drain") and later enqueues fall
// back to inline scoring.
func TestBatcherCloseDrains(t *testing.T) {
	clk := newFakeClock()
	b, pred, ds := batcherFixture(t, clk, BatchConfig{Deadline: time.Hour, MaxRows: 8})

	var chans []<-chan enqueueResult
	for i := 0; i < 3; i++ {
		feat, val := ds.X.Row(i)
		chans = append(chans, enqueueAsync(b, feat, val))
	}
	queuedRows(t, b, 3)
	b.Close()
	for i, ch := range chans {
		res := <-ch
		if !res.ok {
			t.Fatalf("drained waiter %d refused", i)
		}
		feat, val := ds.X.Row(i)
		if want := pred.PredictRow(feat, val); res.margins[0] != want[0] {
			t.Fatalf("drained waiter %d margins %v, want %v", i, res.margins, want[0])
		}
	}
	if got := b.metrics.batchFlush[flushDrain].Load(); got != 1 {
		t.Fatalf("flushDrain = %d, want 1", got)
	}
	feat, val := ds.X.Row(4)
	if _, ok := b.enqueue(feat, val); ok {
		t.Fatal("enqueue after Close was accepted")
	}
	if b.Close(); b.metrics.batchFlush[flushDrain].Load() != 1 {
		t.Fatal("second Close flushed again")
	}
}

// TestBatcherCloseRacesDeadlineFlush races Close against the leader's
// deadline firing at the same instant. Whoever wins, the batch must be
// claimed and scored exactly once, the waiter answered exactly once, and
// the flush attributed to exactly one cause. Run with -race.
func TestBatcherCloseRacesDeadlineFlush(t *testing.T) {
	pred, err := gbdt.NewPredictor(constModel(t, 2), gbdt.PredictorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		clk := newFakeClock()
		m := &modelMetrics{}
		b := newBatcher(pred, BatchConfig{Deadline: time.Millisecond, MaxRows: 8}, clk, m)
		primeArrivals(b)
		ch := enqueueAsync(b, nil, nil)
		clk.waitTimers(t, 1)
		queuedRows(t, b, 1)

		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); clk.Advance(time.Millisecond) }()
		go func() { defer wg.Done(); b.Close() }()
		wg.Wait()

		select {
		case res := <-ch:
			if !res.ok {
				t.Fatalf("iter %d: queued row refused during shutdown", i)
			}
			if res.margins[0] != 2 {
				t.Fatalf("iter %d: margins %v, want [2]", i, res.margins)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("iter %d: queued request hung across Close/deadline race", i)
		}
		if got := m.batches.Load(); got != 1 {
			t.Fatalf("iter %d: batch scored %d times, want exactly once", i, got)
		}
		dl := m.batchFlush[flushDeadline].Load()
		dr := m.batchFlush[flushDrain].Load()
		if dl+dr != 1 {
			t.Fatalf("iter %d: flush causes deadline=%d drain=%d, want exactly one", i, dl, dr)
		}
	}
}

// TestBatcherCloseRacesEnqueues fires a burst of enqueues concurrently
// with Close: every request must get exactly one outcome — scored through
// the drained batch, or refused to inline — and none may hang.
func TestBatcherCloseRacesEnqueues(t *testing.T) {
	pred, err := gbdt.NewPredictor(constModel(t, 5), gbdt.PredictorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		clk := newFakeClock()
		m := &modelMetrics{}
		b := newBatcher(pred, BatchConfig{Deadline: time.Hour, MaxRows: 100}, clk, m)
		primeArrivals(b)

		const burst = 8
		start := make(chan struct{})
		results := make(chan enqueueResult, burst)
		for g := 0; g < burst; g++ {
			go func() {
				<-start
				margins, ok := b.enqueue(nil, nil)
				results <- enqueueResult{margins, ok}
			}()
		}
		close(start)
		b.Close()

		answered := 0
		for g := 0; g < burst; g++ {
			select {
			case res := <-results:
				if res.ok {
					if res.margins[0] != 5 {
						t.Fatalf("iter %d: margins %v, want [5]", i, res.margins)
					}
					answered++
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("iter %d: %d of %d requests hung across Close", i, burst-g, burst)
			}
		}
		if got := m.batchedRows.Load(); got != int64(answered) {
			t.Fatalf("iter %d: %d rows batched but %d requests answered", i, got, answered)
		}
		if got := m.batches.Load(); got > 1 {
			t.Fatalf("iter %d: %d batches after Close, want at most one", i, got)
		}
	}
}

// TestBatcherEnqueueAfterClose pins the post-shutdown contract: enqueue on
// a closed batcher returns (nil, false) immediately — the caller falls
// back to inline scoring — rather than parking on a batch no flusher will
// ever claim.
func TestBatcherEnqueueAfterClose(t *testing.T) {
	pred, err := gbdt.NewPredictor(constModel(t, 1), gbdt.PredictorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	b := newBatcher(pred, BatchConfig{Deadline: time.Hour, MaxRows: 4}, clk, &modelMetrics{})
	b.Close()
	for i := 0; i < 3; i++ {
		primeArrivals(b) // even under sustained-load arrival gaps, closed wins
		select {
		case res := <-enqueueAsync(b, nil, nil):
			if res.ok || res.margins != nil {
				t.Fatalf("enqueue %d after Close accepted: %+v", i, res)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("enqueue %d after Close hung", i)
		}
	}
}

// TestBatcherHotSwapPinsVersion pins version isolation: rows queued on
// one version are scored by that version's predictor even when a swap
// lands before their batch flushes — the swap drains the outgoing queue.
func TestBatcherHotSwapPinsVersion(t *testing.T) {
	opts := Options{
		MaxInFlight: 8,
		Batch:       BatchConfig{Deadline: time.Hour, MaxRows: 4},
		clock:       newFakeClock(),
	}
	srv, err := New(constModel(t, 1.0), "v1", opts)
	if err != nil {
		t.Fatal(err)
	}
	h1, _ := srv.Registry().get(DefaultModel)
	if h1.batcher == nil {
		t.Fatal("batching configured but handle has no batcher")
	}
	primeArrivals(h1.batcher)
	ch := enqueueAsync(h1.batcher, nil, nil)
	queuedRows(t, h1.batcher, 1)

	if _, _, err := srv.Registry().Swap(DefaultModel, "v2", constModel(t, 2.0)); err != nil {
		t.Fatal(err)
	}
	res := <-ch
	if !res.ok {
		t.Fatal("queued request dropped across swap")
	}
	wantOld := h1.pred.PredictRow(nil, nil)[0]
	if res.margins[0] != wantOld {
		t.Fatalf("queued row scored %v, want old version's %v", res.margins[0], wantOld)
	}
	h2, _ := srv.Registry().get(DefaultModel)
	if h2.batcher == h1.batcher {
		t.Fatal("new version shares the old version's batcher")
	}
	if h2.version != 2 {
		t.Fatalf("post-swap version %d, want 2", h2.version)
	}
	if got := h1.pred.PredictRow(nil, nil)[0]; got == h2.pred.PredictRow(nil, nil)[0] {
		t.Fatalf("test models indistinguishable (both score %v)", got)
	}
	if got := h1.metrics.batchFlush[flushDrain].Load(); got != 1 {
		t.Fatalf("swap did not drain the outgoing queue: flushDrain = %d", got)
	}
}

// TestBatchingStress is the serve-tier race test: predict goroutines
// hammer two models through real HTTP while swap and delete/reload
// goroutines churn the registry, with micro-batching on a real clock.
// Every request must get exactly one well-formed response, and the
// /metricz batching counters must balance. Run with -race.
func TestBatchingStress(t *testing.T) {
	ds := testutil.Classification(t, datasets.SyntheticConfig{
		N: 400, D: 15, C: 2, InformativeRatio: 0.4, Density: 0.5, Seed: 13,
	})
	model, _, err := gbdt.Train(ds, gbdt.Options{Workers: 2, Trees: 3, Layers: 4, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewMulti([]ModelSpec{
		{Name: "stable", Source: "a", Model: model},
		{Name: "churn", Source: "b", Model: model},
	}, Options{
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

	const (
		predictG   = 8
		perG       = 40
		swapG      = 2
		perSwapper = 15
	)
	var responses, errors atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < predictG; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := "stable"
			if g%2 == 1 {
				name = "churn"
			}
			for i := 0; i < perG; i++ {
				feat, val := ds.X.Row((g*perG + i) % 400)
				body, _ := json.Marshal(PredictRequest{Rows: []SparseRow{{Indices: feat, Values: val}}})
				resp, err := http.Post(ts.URL+"/v1/models/"+name+"/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var out PredictResponse
				decErr := json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				switch {
				case resp.StatusCode == http.StatusOK:
					if decErr != nil || len(out.Scores) != 1 {
						t.Errorf("malformed OK response: err=%v scores=%d", decErr, len(out.Scores))
						return
					}
					responses.Add(1)
				case resp.StatusCode == http.StatusNotFound:
					// churn model momentarily deleted — still exactly one
					// response for the request.
					errors.Add(1)
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
					return
				}
			}
		}(g)
	}
	for g := 0; g < swapG; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perSwapper; i++ {
				if g == 0 {
					if _, _, err := srv.Registry().Swap("churn", "swap", model); err != nil {
						t.Error(err)
						return
					}
				} else {
					// Delete then immediately re-register.
					if err := srv.Registry().Delete("churn"); err == nil {
						if _, _, err := srv.Registry().Swap("churn", "reload", model); err != nil {
							t.Error(err)
							return
						}
					}
				}
				time.Sleep(time.Millisecond)
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if got := responses.Load() + errors.Load(); got != predictG*perG {
		t.Fatalf("%d responses for %d requests", got, predictG*perG)
	}

	// Counter balance on the stable model (the churned name's counters are
	// shared per-name but its handles come and go): every successful
	// request's row was scored exactly once — through a batch or inline —
	// and each flush has exactly one recorded cause.
	var mr MetricsResponse
	resp, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, m := range mr.Models {
		if m.Model != "stable" {
			continue
		}
		b := m.Batching
		if b == nil {
			t.Fatal("stable model reports no batching section")
		}
		if m.Errors != 0 {
			t.Fatalf("stable model reports %d errors", m.Errors)
		}
		if b.BatchedRows+b.Inline != m.Rows {
			t.Fatalf("batched %d + inline %d != rows %d", b.BatchedRows, b.Inline, m.Rows)
		}
		if b.Batches != b.FlushFull+b.FlushDeadline+b.FlushDrain {
			t.Fatalf("batches %d != flush causes %d+%d+%d", b.Batches, b.FlushFull, b.FlushDeadline, b.FlushDrain)
		}
		if b.QueueWaitMs.Count != b.BatchedRows {
			t.Fatalf("queue waits %d != batched rows %d", b.QueueWaitMs.Count, b.BatchedRows)
		}
		if m.Requests != predictG/2*perG {
			t.Fatalf("stable requests = %d, want %d", m.Requests, predictG/2*perG)
		}
		return
	}
	t.Fatal("stable model missing from /metricz")
}

// TestErrorEnvelope pins the stable JSON error envelope for every predict
// failure mode: {"error":{"code":..., "message":...}} with the expected
// status and machine-readable code.
func TestErrorEnvelope(t *testing.T) {
	srv, err := New(constModel(t, 1.0), "m", Options{MaxBatchRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name       string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"malformed json", "/v1/models/default/predict", `{"rows": [`, http.StatusBadRequest, "bad_request"},
		{"not json", "/v1/models/default/predict", `hello`, http.StatusBadRequest, "bad_request"},
		{"unknown field", "/v1/models/default/predict", `{"rowz": []}`, http.StatusBadRequest, "bad_request"},
		{"empty request", "/v1/models/default/predict", `{}`, http.StatusBadRequest, "bad_request"},
		{"mismatched row arrays", "/v1/models/default/predict", `{"rows":[{"indices":[1,2],"values":[0.5]}]}`, http.StatusBadRequest, "bad_request"},
		{"duplicate feature", "/v1/models/default/predict", `{"rows":[{"indices":[1,1],"values":[0.5,0.5]}]}`, http.StatusBadRequest, "bad_request"},
		{"too many rows", "/v1/models/default/predict", `{"dense":[[1],[1],[1],[1],[1]]}`, http.StatusRequestEntityTooLarge, "too_large"},
		{"unknown model", "/v1/models/nope/predict", `{"dense":[[1]]}`, http.StatusNotFound, "not_found"},
		{"admin disabled", "/v1/models/m", `{"path":"x"}`, http.StatusForbidden, "forbidden"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			// Decode generically to pin the envelope's shape, not just the
			// struct mapping.
			var raw map[string]json.RawMessage
			if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
				t.Fatalf("error response is not a JSON object: %v", err)
			}
			inner, ok := raw["error"]
			if !ok || len(raw) != 1 {
				t.Fatalf("envelope keys %v, want exactly [error]", keys(raw))
			}
			var body ErrorBody
			if err := json.Unmarshal(inner, &body); err != nil {
				t.Fatalf("error body is not {code,message}: %v", err)
			}
			if body.Code != tc.wantCode {
				t.Fatalf("code %q, want %q", body.Code, tc.wantCode)
			}
			if body.Message == "" {
				t.Fatal("empty error message")
			}
		})
	}
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
