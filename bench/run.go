package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"vero/gbdt"
	"vero/internal/serve"
	"vero/internal/tree"
)

// How a run's --seconds are spent. The run is cut into rounds — the
// workload's Rounds at runSeconds, in proportion at another length — and
// every round goes once through the whole pipe: one repetition of cold
// ingest → warm load → train → encode, which takes as long as it takes,
// then a slice of offline prediction and a slice of serving traffic. The
// slices have a fixed length, a share of --seconds split evenly over the
// rounds, so how much traffic a run measures does not depend on how fast it
// trains. A metric is the median over all rounds' samples — except the two
// whose operation takes milliseconds and is repeated dozens of times a
// round, the load for training and the predict chunk: those report the
// run's fastest repetition (predictLoop says why). The host this was fitted
// on changes speed for seconds at a time (two vCPUs that are sometimes two
// cores and sometimes two threads of one); interleaving the stages lets
// each of them see every such stretch, where one long block per stage would
// hand a whole metric to one of them.
const (
	minRounds    = 2
	shareServe   = 0.40 // of --seconds: closed-loop traffic
	sharePredict = 0.10 // of --seconds: the offline Predictor.PredictRows loop
	shareWarmup  = 0.10 // of each load phase, unmeasured, before it

	minPredictPasses = 2   // passes per round of the predict loop
	predictChunk     = 512 // rows a timed PredictRows call

	setupReps    = 3 // set-ups per run; setup_s is their median
	untracedRuns = 3 // all-workloads mode: untraced runs per workload
)

// runOpts are one run's arguments.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	scale   float64
	workdir string
	spans   string // where a traced run writes its spans; "" picks a file in workdir
	log     io.Writer
}

func (o runOpts) rounds(w workload) int {
	return max(minRounds, int(math.Round(float64(w.Rounds)*o.seconds/runSeconds)))
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// metricValue is one reported number; Samples are the repetitions or
// windows it is the median of (kept in the record file, not in the result
// line).
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// runResult is one run of one workload.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Hash is the trained model's prediction hash; TailPct the percentile
	// serve_p99_ms holds (0.99, or the highest the run's sample supports);
	// Notes carry failed checks and skipped gates. None of them is part of
	// the driver's result line.
	Hash    string   `json:"hash,omitempty"`
	TailPct float64  `json:"tail_pct,omitempty"`
	Notes   []string `json:"notes,omitempty"`
}

//go:embed golden.json
var goldenJSON []byte

// goldenHashes are the prediction hashes every workload must train to at
// seed 1, scale 1, on amd64 — where Go never fuses a multiply-add, so the
// arithmetic is the same on every machine.
func goldenHashes() (map[string]string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench/golden.json: %w", err)
	}
	return g, nil
}

const goldenSeed = 1

// checkGolden holds a seed-1 hash against bench/golden.json.
func checkGolden(c *checks, res *runResult, w workload, o runOpts, hash string) error {
	switch {
	case o.seed != goldenSeed || o.scale != 1:
		return nil
	case runtime.GOARCH != "amd64":
		res.Notes = append(res.Notes, "golden hash check skipped: on "+runtime.GOARCH+" Go may fuse multiply-adds")
		return nil
	}
	golden, err := goldenHashes()
	if err != nil {
		return err
	}
	c.check(golden[w.Name] == hash, "prediction hash %s differs from bench/golden.json (%s)", hash, golden[w.Name])
	return nil
}

// runWorkload performs one run: the end-to-end metrics with tracing off,
// or — with o.trace — the traced repetition and the layer probes.
func runWorkload(w workload, o runOpts) (*runResult, error) {
	w = w.scaled(o.scale)
	dir, err := os.MkdirTemp(o.workdir, w.Name+"-")
	if err != nil {
		return nil, fmt.Errorf("work dir: %w", err)
	}
	defer os.RemoveAll(dir)
	res := &runResult{Metrics: make(map[string]metricValue)}
	c := &checks{}
	if o.trace {
		err = runTraced(w, o, dir, res, c)
	} else {
		err = runEndToEnd(w, o, dir, res, c)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	res.Attempted, res.Failed = c.attempted, c.failed
	res.Notes = append(res.Notes, c.notes...)
	res.Correct = c.failed == 0
	return res, nil
}

// checkRep applies the per-repetition correctness gate.
func checkRep(c *checks, w workload, rep int, r, first *pipeRep) {
	c.check(r.hash == first.hash, "rep %d trained a different model than rep 0 (%s vs %s)", rep, r.hash, first.hash)
	c.check(r.accuracy >= w.MinAccuracy, "rep %d accuracy %.4f below the floor %.2f", rep, r.accuracy, w.MinAccuracy)
}

// servedModel returns the forest the workload serves and its encoding:
// the synthetic one when the workload has one, else the trained one.
func servedModel(in *inputs, first *pipeRep) (*tree.Forest, []byte) {
	if in.forest != nil {
		return in.forest, in.forestEnc
	}
	return first.forest, first.enc
}

func runEndToEnd(w workload, o runOpts, dir string, res *runResult, c *checks) error {
	put := func(name string, samples []float64) {
		for _, d := range endToEnd {
			if d.Name == name {
				res.Metrics[name] = metricValue{Value: median(samples), Unit: d.Unit, Samples: samples}
				return
			}
		}
		panic("unknown end-to-end metric " + name)
	}

	// Set-up: generate the inputs from the seed, several times.
	var in *inputs
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		settle()
		t0 := time.Now()
		var err error
		if in, err = prepareInputs(w, o.seed, dir); err != nil {
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	put("setup_s", setupS)

	rounds := o.rounds(w)
	predictSlice := seconds(sharePredict * o.seconds / float64(rounds))
	serveSlice := seconds(shareServe * o.seconds / float64(rounds))
	var (
		first                  *pipeRep
		oracle                 *tree.Forest
		load                   traffic
		coldS, trainS, peakMiB []float64
		fastestLoadS           = math.Inf(1)
		fastestRowsPerS        float64
	)
	for round := 0; round < rounds; round++ {
		// Nothing of the round before is alive while this one trains: the
		// predictor and the server exist from the end of a round's training
		// to the end of the round, so every repetition's heap starts the same.
		r, err := runPipeRep(w, in, round, nil, "")
		if err != nil {
			return err
		}
		if first == nil {
			first = r
		}
		checkRep(c, w, round, r, first)
		coldS, trainS = append(coldS, r.coldS), append(trainS, r.trainS)
		peakMiB = append(peakMiB, float64(r.peakHeap)/(1<<20))
		fastestLoadS = min(fastestLoadS, r.warmS)

		// The round's model, loaded once the way veroserve loads it.
		var enc []byte
		oracle, enc = servedModel(in, r)
		model, err := gbdt.DecodeModel(enc)
		if err != nil {
			return fmt.Errorf("load model: %w", err)
		}

		// Offline batch prediction.
		rowsPerS, err := predictLoop(c, in, model, oracle, round == 0, predictSlice)
		if err != nil {
			return err
		}
		fastestRowsPerS = max(fastestRowsPerS, rowsPerS)

		// Serving: a slice of closed-loop traffic.
		sess, err := startServe(w, in, model, nil, &load)
		if err != nil {
			return err
		}
		sess.slice(serveSlice)
		sess.stop()
	}
	put("ingest_cold_s", coldS)
	put("ingest_warm_s", []float64{fastestLoadS})
	put("train_s", trainS)
	put("train_peak_heap_mib", peakMiB)
	put("predict_rows_per_s", []float64{fastestRowsPerS})
	res.Hash = first.hash
	if err := checkGolden(c, res, w, o, first.hash); err != nil {
		return err
	}
	sv, err := load.stats(c, w, in, oracle)
	if err != nil {
		return err
	}
	put("serve_rps", sv.rps)
	put("serve_p50_ms", sv.p50)
	put("serve_p99_ms", sv.tail)
	res.TailPct = sv.tailPct
	if sv.tailPct != 0.99 {
		res.Notes = append(res.Notes, fmt.Sprintf("serve_p99_ms is the p%.0f: windows of %d latency samples do not support a p99", sv.tailPct*100, sv.windowN))
	}
	fmt.Fprintf(o.log, "%s: %d rounds, accuracy %.4f, hash %.12s; %d requests, latency at p%.0f from windows of %d\n",
		w.Name, rounds, first.accuracy, first.hash, sv.sent, sv.tailPct*100, sv.windowN)
	for _, d := range endToEnd {
		m := res.Metrics[d.Name]
		fmt.Fprintf(o.log, "  %-22s %12.6g %-7s %d samples, %.4g to %.4g\n", d.Name, m.Value, m.Unit, len(m.Samples), slices.Min(m.Samples), slices.Max(m.Samples))
	}
	return nil
}

// predictLoop scores the evaluation rows through a gbdt.Predictor in
// chunks of predictChunk rows — at least minPredictPasses passes over them,
// then until d is spent — and returns the rows per second of the fastest
// chunk. The fitting host's memory system is shared with neighbours and
// flips, every few hundred milliseconds, between a state where such a loop
// runs at full speed and one where it runs at half of it. How much of a
// slice falls in either state is chance, so the median chunk is one state's
// figure in one run and the other's in the next (28 to 54 % interquartile
// spread over ten runs; the median over rounds of each round's fastest
// chunk still 5 to 38 %), while the fastest chunk of a whole run is the
// undisturbed state's — and that is the figure a code change moves. With
// verify the predictor's output is first held against the oracle's.
func predictLoop(c *checks, in *inputs, model *gbdt.Model, oracle *tree.Forest, verify bool, d time.Duration) (float64, error) {
	// One goroutine: two busy threads run anywhere from full speed to half
	// of it on a host whose two vCPUs are sometimes two threads of one core;
	// one thread does not care. The default, parallel predictor is the traced
	// run's gbdt.predict_parallel_rows_per_s.
	pred, err := gbdt.NewPredictor(model, gbdt.PredictorOptions{Workers: 1})
	if err != nil {
		return 0, fmt.Errorf("predictor: %w", err)
	}
	if verify {
		c.check(sameBits(pred.PredictRows(in.evalFeat, in.evalVal), oracleMargins(oracle, in.evalFeat, in.evalVal)),
			"Predictor.PredictRows differs from the pointer-walk oracle")
	}
	runtime.GC()
	best := 0.0
	for start, pass := time.Now(), 0; pass < minPredictPasses || time.Since(start) < d; pass++ {
		for lo := 0; lo < len(in.evalFeat); lo += predictChunk {
			hi := min(lo+predictChunk, len(in.evalFeat))
			t0 := time.Now()
			pred.PredictRows(in.evalFeat[lo:hi], in.evalVal[lo:hi])
			best = max(best, float64(hi-lo)/time.Since(t0).Seconds())
		}
	}
	return best, nil
}

// serveStats are the serving figures of a run.
type serveStats struct {
	rps, p50, tail    []float64 // per-window samples of the closed loop
	openP50, openTail []float64 // per-window samples of the open loop
	tailPct           float64   // the percentile tail holds: 0.99, or the highest a window supports
	windowN           int       // latency samples a window
	sent, ok          int
	failed            int
	verified          int
	lateP99Ms         float64
}

// traffic is the load a run has driven, over however many servers.
type traffic struct {
	closed []phaseResult // the measured closed-loop slices
	opened []phaseResult // the measured open-loop passes (traced run only)
}

// serveSession is one server, started the way cmd/veroserve starts it, and
// the load generator that drives the workload's traffic at it.
type serveSession struct {
	w      workload
	srv    *server
	client *http.Client
	gen    *loadgen
	tr     *tracer
	span   int
	sent   int
	before *serve.MetricsSnapshot
	into   *traffic
}

// startServe starts a server for the model; the phases measured against it
// are added to into.
func startServe(w workload, in *inputs, model *gbdt.Model, tr *tracer, into *traffic) (*serveSession, error) {
	srv, err := startServer(model, serve.Options{})
	if err != nil {
		return nil, err
	}
	s := &serveSession{w: w, srv: srv, client: newHTTPClient(closedClients()), tr: tr, into: into}
	s.span = tr.begin("serve", 0)
	s.gen = &loadgen{
		clients: closedClients(), bodies: len(in.bodies), clk: realClock{},
		send:        httpSender(s.client, srv.predictURL(), in.bodies),
		verifyEvery: 100, tr: tr, spanParent: s.span, spanEvery: 64,
	}
	if s.before, err = srv.metricz(s.client); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func warmup(d time.Duration) time.Duration { return time.Duration(float64(d) * shareWarmup) }

// slice drives closed-loop traffic for d. An unmeasured warm-up comes
// first, so connections exist and caches are filled.
func (s *serveSession) slice(d time.Duration) {
	s.gen.closed(warmup(d))
	runtime.GC()
	p := s.gen.closed(d - warmup(d))
	s.sent += p.sent
	s.into.closed = append(s.into.closed, p)
}

// openPass drives the workload's open-loop rate for d.
func (s *serveSession) openPass(d time.Duration) {
	open := *s.gen
	open.clients = openWorkers()
	open.open(warmup(d), s.w.OpenRate)
	runtime.GC()
	p := open.open(d-warmup(d), s.w.OpenRate)
	s.sent += p.sent
	s.into.opened = append(s.into.opened, p)
}

// stop shuts the server down and waits for it; safe on a nil session.
func (s *serveSession) stop() {
	if s == nil || s.srv == nil {
		return
	}
	s.tr.end(s.span, int64(s.sent))
	s.client.CloseIdleConnections()
	s.srv.stop()
	s.srv = nil
}

// stats turns the phases into the serving figures and verifies the kept
// responses against the oracle.
func (t *traffic) stats(c *checks, w workload, in *inputs, oracle *tree.Forest) (*serveStats, error) {
	st := &serveStats{}
	var pooled []sample
	for _, p := range t.closed {
		pooled = append(pooled, p.samples...)
		st.rps = append(st.rps, rateSamples(p)...)
	}
	windows := sliceWindows * len(t.closed)
	st.p50, _, _ = latencySamples(pooled, 0.50, windows)
	st.tail, st.tailPct, st.windowN = latencySamples(pooled, 0.99, windows)
	for _, p := range t.opened {
		p50, _, _ := latencySamples(p.samples, 0.50, sliceWindows)
		tail, _, _ := latencySamples(p.samples, 0.99, sliceWindows)
		st.openP50, st.openTail = append(st.openP50, p50...), append(st.openTail, tail...)
		st.lateP99Ms = max(st.lateP99Ms, latenessP99(p))
	}
	for _, p := range append(append([]phaseResult{}, t.closed...), t.opened...) {
		st.sent += p.sent
		st.failed += p.failed
		st.ok += len(p.samples)
		c.attempted += p.sent
		c.failed += p.failed
		if p.failed > 0 {
			c.notes = append(c.notes, fmt.Sprintf("%d of %d requests failed", p.failed, p.sent))
		}
		verifyCaptures(c, p.captures, oracle, in, w.RowsPerReq)
		st.verified += len(p.captures)
	}
	if len(st.rps) == 0 || len(st.p50) == 0 {
		return nil, fmt.Errorf("serving: no request succeeded (%d sent)", st.sent)
	}
	return st, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// runTraced is the traced run: untraced and traced repetitions of the pipe
// side by side (their difference is the tracing overhead), the layer
// probes, and a traced serving stage. It reports every per-layer metric.
func runTraced(w workload, o runOpts, dir string, res *runResult, c *checks) error {
	in, err := prepareInputs(w, o.seed, dir)
	if err != nil {
		return err
	}
	tr := newTracer(w.Name)
	out := make(map[string]float64)

	// One full traced repetition, then overhead pairs: the warm load and
	// the training repeated untraced and traced in turn on the same cache
	// image. The first repetition pays first-touch costs, so it stays out of
	// the overhead figure.
	const pairs = 2
	var plainS, tracedS []float64
	var first, traced *pipeRep
	for rep := 0; rep <= 2*pairs; rep++ {
		t, vbin := tr, ""
		if rep > 0 {
			vbin = first.vbin
			if rep%2 == 1 {
				t = nil
			}
		}
		r, err := runPipeRep(w, in, rep, t, vbin)
		if err != nil {
			return err
		}
		if first == nil {
			first = r
		}
		checkRep(c, w, rep, r, first)
		switch {
		case rep == 0:
		case t == nil:
			plainS = append(plainS, r.trainS)
		default:
			tracedS = append(tracedS, r.trainS)
			traced = r
		}
	}
	res.Hash = first.hash
	out["bench.trace_overhead_share"] = median(tracedS)/median(plainS) - 1
	trainLayerMetrics(out, traced)

	oracle, enc := servedModel(in, first)
	env := &probeEnv{
		w: w, in: in, tr: tr, seed: o.seed, vbin: traced.vbin, served: oracle, enc: enc, out: out,
		quick:  min(1, o.seconds/runSeconds),
		budget: time.Duration(min(1, o.seconds/runSeconds) * float64(120*time.Millisecond)),
	}
	if err := env.runProbes(); err != nil {
		return err
	}
	if err := env.batchingPass(seconds(0.08 * o.seconds)); err != nil {
		return err
	}

	model, err := gbdt.DecodeModel(enc)
	if err != nil {
		return fmt.Errorf("load model: %w", err)
	}
	settle()
	var load traffic
	sess, err := startServe(w, in, model, tr, &load)
	if err != nil {
		return err
	}
	defer sess.stop()
	sess.slice(seconds(0.15 * o.seconds))
	sess.openPass(seconds(0.15 * o.seconds))
	after, err := sess.srv.metricz(sess.client)
	if err != nil {
		return err
	}
	sess.stop()
	sv, err := load.stats(c, w, in, oracle)
	if err != nil {
		return err
	}
	out["serve.metricz_p50_ms"] = after.LatencyMs.P50
	out["serve.metricz_p99_ms"] = after.LatencyMs.P99
	out["serve.rejected"] = float64(after.Rejected - sess.before.Rejected)
	out["serve.errors"] = float64(after.Errors - sess.before.Errors)
	out["loadgen.sent"] = float64(sv.sent)
	out["loadgen.ok"] = float64(sv.ok)
	out["loadgen.failed"] = float64(sv.failed)
	out["loadgen.verified"] = float64(sv.verified)
	out["loadgen.late_p99_ms"] = sv.lateP99Ms
	out["serve.open_p50_ms"] = median(sv.openP50)
	out["serve.open_p99_ms"] = median(sv.openTail)

	for _, d := range perLayer {
		v, ok := out[d.Name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(out) != len(perLayer) {
		return fmt.Errorf("%d per-layer values measured, catalogue has %d", len(out), len(perLayer))
	}

	spans := o.spans
	if spans == "" {
		spans = filepath.Join(o.workdir, "spans-"+w.Name+".jsonl")
	}
	if err := tr.writeJSONL(spans); err != nil {
		return err
	}
	fmt.Fprintf(o.log, "%s: traced run, %d spans written to %s\n", w.Name, len(tr.spans), spans)
	tr.summarize(o.log)
	return nil
}
