package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"vero/gbdt"
	"vero/internal/cluster"
	"vero/internal/cluster/tcptransport"
	"vero/internal/datasets"
	"vero/internal/histogram"
	"vero/internal/ingest"
	"vero/internal/partition"
	"vero/internal/serve"
	"vero/internal/sketch"
	"vero/internal/sparse"
	"vero/internal/tree"
)

// The layer probes: each times calls into one layer's public functions on
// this workload's own data, from outside the program. They run only in the
// traced repetition and fill the per-layer table.

// probeEnv is what the probes share.
type probeEnv struct {
	w      workload
	in     *inputs
	tr     *tracer
	seed   int64
	budget time.Duration // wall-clock one timing probe may loop for
	quick  float64       // 0..1: scales fixed iteration counts for short runs
	vbin   string
	served *tree.Forest // the model the workload serves
	enc    []byte       // its Encode bytes
	out    map[string]float64
}

// timed runs fn at least twice and until the probe budget is spent, and
// returns the median seconds per call.
func (e *probeEnv) timed(name string, count int64, fn func() error) (float64, error) {
	sp := e.tr.begin("probe."+name, 0)
	defer func() { e.tr.end(sp, count) }()
	var secs []float64
	start := time.Now()
	for len(secs) < 2 || time.Since(start) < e.budget {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

func (e *probeEnv) iters(n int) int { return max(int(float64(n)*e.quick), 20) }

// runProbes runs every layer probe.
func (e *probeEnv) runProbes() error {
	for _, p := range []func() error{e.ingestProbes, e.dataProbes, e.transportProbes, e.treeProbes, e.serveProbes} {
		settle()
		if err := p(); err != nil {
			return err
		}
	}
	return nil
}

// ingestProbes splits the cold and warm ingest into their stages.
func (e *probeEnv) ingestProbes() error {
	iopts := ingest.Options{NumClass: e.w.C, Q: splitsQ}
	rows := 0
	parseS, err := e.timed("ingest.parse", int64(e.w.N), func() error {
		f, err := os.Open(e.in.libsvm)
		if err != nil {
			return err
		}
		defer f.Close()
		rows = 0
		return ingest.ScanBlocks(f, iopts, func(b *ingest.Block) error { rows += b.NumRows(); return nil })
	})
	if err != nil {
		return err
	}
	e.out["ingest.parse_rows_per_s"] = float64(rows) / parseS

	var cold *datasets.Dataset
	ingestS, err := e.timed("ingest.ingest", int64(e.w.N), func() error {
		cold, err = ingest.IngestFile(e.in.libsvm, iopts)
		return err
	})
	if err != nil {
		return err
	}
	e.out["ingest.sketch_bin_s"] = ingestS - parseS

	tmp := filepath.Join(e.in.dir, "probe.vbin")
	if e.out["ingest.write_cache_s"], err = e.timed("ingest.write_cache", cold.NNZ(), func() error {
		return ingest.WriteCacheFile(tmp, cold, cold.Prebin)
	}); err != nil {
		return err
	}
	cold = nil
	if e.out["ingest.read_cache_s"], err = e.timed("ingest.read_cache", int64(e.w.N), func() error {
		_, err := ingest.ReadCacheFile(e.vbin)
		return err
	}); err != nil {
		return err
	}
	if e.out["ingest.read_shard_s"], err = e.timed("ingest.read_shard", int64(e.w.N), func() error {
		errs := make([]error, 2)
		eachRank(2, func(rank int) { _, errs[rank] = ingest.ReadCacheShard(e.vbin, datasets.ShardRows, rank, 2) })
		return errors.Join(errs...)
	}); err != nil {
		return err
	}
	openS, err := e.timed("ingest.map_open", 1, func() error {
		mc, err := ingest.MapCacheFile(e.vbin)
		if err != nil {
			return err
		}
		return mc.Close()
	})
	if err != nil {
		return err
	}
	e.out["ingest.map_open_ms"] = openS * 1e3
	st, err := os.Stat(e.vbin)
	if err != nil {
		return fmt.Errorf("probe ingest.cache_bytes: %w", err)
	}
	e.out["ingest.cache_bytes"] = float64(st.Size())

	mc, err := ingest.MapCacheFile(e.vbin)
	if err != nil {
		return fmt.Errorf("probe ingest.stream: %w", err)
	}
	defer mc.Close()
	const chunk = 64 << 10
	instBuf, binBuf := make([]uint32, chunk), make([]uint16, chunk)
	streamS, err := e.timed("ingest.stream", mc.NNZ(), func() error {
		for col := 0; col < mc.Cols(); col++ {
			lo, hi := mc.ColRange(col)
			for ; lo < hi; lo += chunk {
				if _, _, err := mc.Entries(lo, min(lo+chunk, hi), instBuf, binBuf); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.out["ingest.stream_mentries_per_s"] = float64(mc.NNZ()) / streamS / 1e6

	rng := rand.New(rand.NewSource(e.seed))
	lookups := e.iters(100000)
	cols, insts := make([]int, lookups), make([]uint32, lookups)
	for i := range cols {
		cols[i], insts[i] = rng.Intn(mc.Cols()), uint32(rng.Intn(mc.Rows()))
	}
	lookupS, err := e.timed("ingest.lookup", int64(lookups), func() error {
		for i := range cols {
			lo, hi := mc.ColRange(cols[i])
			if _, _, err := mc.LookupInst(lo, hi, insts[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.out["ingest.lookup_ns"] = lookupS / float64(lookups) * 1e9

	// The streamed transformation needs the mapped view, so it sits here.
	pb := mc.Dataset().Prebin
	topts := partition.Options{Q: splitsQ, SketchEps: pb.SketchEps, Splits: pb.Splits, FeatCount: pb.FeatCount}
	if e.out["partition.transform_streamed_s"], err = e.timed("partition.transform_streamed", mc.NNZ(), func() error {
		_, err := partition.TransformStreamed(cluster.New(4, cluster.Gigabit()), mc, mc.Dataset().Labels, topts)
		return err
	}); err != nil {
		return err
	}
	return nil
}

// dataProbes time the sketch, the transformation and the histogram
// kernels on the dataset as training sees it: materialized from the cache.
func (e *probeEnv) dataProbes() error {
	ds, err := ingest.ReadCacheFile(e.vbin)
	if err != nil {
		return fmt.Errorf("data probes: %w", err)
	}
	pb := ds.Prebin
	n, d := ds.NumInstances(), ds.NumFeatures()

	vals := ds.X.Val[:min(len(ds.X.Val), 200000)]
	sketchS, err := e.timed("sketch.add", int64(len(vals)), func() error {
		sk := sketch.New(ingest.DefaultSketchEps)
		for _, v := range vals {
			sk.Add(float64(v))
		}
		sk.CandidateSplits(splitsQ)
		return nil
	})
	if err != nil {
		return err
	}
	e.out["sketch.add_ns"] = sketchS / float64(len(vals)) * 1e9

	topts := partition.Options{Q: splitsQ, SketchEps: pb.SketchEps, Splits: pb.Splits, FeatCount: pb.FeatCount}
	var repartition int64
	if e.out["partition.transform_s"], err = e.timed("partition.transform", ds.NNZ(), func() error {
		cl := cluster.New(4, cluster.Gigabit())
		_, err := partition.Transform(cl, ds.X, ds.Labels, topts)
		p := cl.Stats().Phase("transform.repartition")
		repartition = p.TotalBytes()
		return err
	}); err != nil {
		return err
	}
	e.out["partition.repartition_bytes"] = float64(repartition)

	binner := &sparse.Binner{Splits: pb.Splits}
	csr, err := binner.BinCSR(ds.X)
	if err != nil {
		return fmt.Errorf("data probes: %w", err)
	}
	csc := csr.ToCSC()
	nnz := float64(csr.NNZ())
	rng := rand.New(rand.NewSource(e.seed))
	all := make([]uint32, n)
	for i := range all {
		all[i] = uint32(i)
	}
	nodeOf := make([]int32, n) // every instance on the root
	for _, c := range []int{1, 5} {
		suffix := ""
		if c == 5 {
			suffix = "_c5"
		}
		grad, hess := make([]float64, n*c), make([]float64, n*c)
		for i := range grad {
			grad[i], hess[i] = rng.NormFloat64(), rng.Float64()
		}
		layout := histogram.Layout{NumFeat: d, MaxBins: binner.MaxNumBins(), NumClass: c}
		h := histogram.New(layout)
		rowS, err := e.timed("histogram.rowscan"+suffix, int64(nnz), func() error {
			h.Reset()
			h.RowScan(all, 0, csr.RowPtr, csr.Feat, csr.Bin, grad, hess, 0)
			return nil
		})
		if err != nil {
			return err
		}
		e.out["histogram.rowscan"+suffix+"_ns_per_entry"] = rowS / nnz * 1e9

		totalG, totalH := make([]float64, c), make([]float64, c)
		for i := 0; i < n; i++ {
			for k := 0; k < c; k++ {
				totalG[k] += grad[i*c+k]
				totalH[k] += hess[i*c+k]
			}
		}
		numBins := make([]int, d)
		for f := range numBins {
			numBins[f] = binner.NumBins(f)
		}
		finder := histogram.Finder{Lambda: 1}
		findS, err := e.timed("histogram.findbest"+suffix, int64(d), func() error {
			finder.FindBest(h, totalG, totalH, numBins)
			return nil
		})
		if err != nil {
			return err
		}
		e.out["histogram.findbest"+suffix+"_us"] = findS * 1e6
		if c != 1 {
			continue
		}

		stride := layout.FloatsPerSide()
		gdst, hdst := make([]float64, stride), make([]float64, stride)
		slot := []int32{0}
		routedS, err := e.timed("histogram.colscan_routed", int64(nnz), func() error {
			for col := 0; col < d; col++ {
				insts, bins := csc.Col(col)
				histogram.ColumnScanRouted(gdst, hdst, stride, layout, col, insts, bins, nodeOf, slot, grad, hess, 0)
			}
			return nil
		})
		if err != nil {
			return err
		}
		e.out["histogram.colscan_routed_ns_per_entry"] = routedS / nnz * 1e9
		nodeS, err := e.timed("histogram.colscan_node", int64(nnz), func() error {
			for col := 0; col < d; col++ {
				insts, bins := csc.Col(col)
				h.ColumnScanNode(col, insts, bins, nodeOf, 0, grad, hess)
			}
			return nil
		})
		if err != nil {
			return err
		}
		e.out["histogram.colscan_node_ns_per_entry"] = nodeS / nnz * 1e9
		other := h.Clone()
		subS, err := e.timed("histogram.sub", int64(stride), func() error {
			h.Sub(other)
			return nil
		})
		if err != nil {
			return err
		}
		e.out["histogram.sub_ns_per_cell"] = subS / float64(stride) * 1e9
	}
	return nil
}

// transportProbes measure the socket backend's latency (alpha) and
// bandwidth (beta) terms on a two-rank loopback mesh of their own.
func (e *probeEnv) transportProbes() error {
	lns, peers, err := loopbackListeners(2)
	if err != nil {
		return err
	}
	sp := e.tr.begin("probe.tcptransport", 0)
	defer func() { e.tr.end(sp, 2) }()
	tps := make([]*tcptransport.Transport, 2)
	errs := make([]error, 2)
	t0 := time.Now()
	eachRank(2, func(rank int) {
		tps[rank], errs[rank] = tcptransport.Connect(tcptransport.Config{
			Rank: rank, Peers: peers, Listener: lns[rank], DialTimeout: 10 * time.Second, OpTimeout: 20 * time.Second,
		})
	})
	e.out["tcptransport.connect_ms"] = time.Since(t0).Seconds() * 1e3
	defer func() {
		for _, tp := range tps {
			if tp != nil {
				tp.Close()
			}
		}
	}()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("probe tcptransport: %w", err)
	}

	// Both ranks run the same fixed sequence of collectives; rank 0 times
	// each one.
	lockstep := func(n int, op func(tp *tcptransport.Transport) error) ([]float64, error) {
		secs := make([]float64, n)
		eachRank(2, func(rank int) {
			for i := 0; i < n && errs[rank] == nil; i++ {
				t0 := time.Now()
				errs[rank] = op(tps[rank])
				if rank == 0 {
					secs[i] = time.Since(t0).Seconds()
				}
			}
		})
		return secs, errors.Join(errs...)
	}
	small := [2][]float64{make([]float64, 8), make([]float64, 8)}
	secs, err := lockstep(e.iters(2000), func(tp *tcptransport.Transport) error {
		return tp.AllReduce("probe.allreduce", small[tp.Rank()])
	})
	if err != nil {
		return fmt.Errorf("probe tcptransport: %w", err)
	}
	e.out["tcptransport.allreduce_8_us"] = median(secs) * 1e6

	const floats = 1 << 20
	big := [2][]float64{make([]float64, floats), make([]float64, floats)}
	bounds := []int{0, floats / 2, floats}
	before := tps[0].PayloadBytesSent() + tps[1].PayloadBytesSent()
	secs, err = lockstep(4, func(tp *tcptransport.Transport) error { // 8 MiB a rank and round: four are plenty
		return tp.ReduceScatter("probe.reducescatter", big[tp.Rank()], bounds)
	})
	if err != nil {
		return fmt.Errorf("probe tcptransport: %w", err)
	}
	moved := tps[0].PayloadBytesSent() + tps[1].PayloadBytesSent() - before
	var total float64
	for _, s := range secs {
		total += s
	}
	e.out["tcptransport.reducescatter_mib_per_s"] = float64(moved) / (1 << 20) / total

	block := [2][]byte{make([]byte, 64<<10), make([]byte, 64<<10)}
	secs, err = lockstep(e.iters(400), func(tp *tcptransport.Transport) error {
		return tp.Broadcast("probe.broadcast", block[tp.Rank()], 0)
	})
	if err != nil {
		return fmt.Errorf("probe tcptransport: %w", err)
	}
	e.out["tcptransport.broadcast_64k_us"] = median(secs) * 1e6
	return nil
}

// treeProbes time the four inference engines on the served model, one
// goroutine, over the evaluation rows.
func (e *probeEnv) treeProbes() error {
	feat, val := e.in.evalFeat, e.in.evalVal
	rows := float64(len(feat))
	k := e.served.NumClass

	decodeS, err := e.timed("tree.decode", int64(len(e.enc)), func() error {
		_, err := tree.DecodeForest(e.enc)
		return err
	})
	if err != nil {
		return err
	}
	e.out["tree.decode_ms"] = decodeS * 1e3
	var flat *tree.FlatForest
	compileS, err := e.timed("tree.compile", int64(e.served.NumTrees()), func() error {
		flat = tree.Compile(e.served)
		return nil
	})
	if err != nil {
		return err
	}
	e.out["tree.compile_ms"] = compileS * 1e3
	e.out["tree.nodes"] = float64(flat.NumNodes())

	out := make([]float64, len(feat)*k)
	rowS, err := e.timed("tree.row", int64(rows), func() error {
		for i := range feat {
			flat.PredictRowInto(feat[i], val[i], out[i*k:(i+1)*k])
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.out["tree.row_ns"] = rowS / rows * 1e9
	blockS, err := e.timed("tree.block", int64(rows), func() error {
		flat.PredictBlock(feat, val, out, tree.DefaultBlockRows)
		return nil
	})
	if err != nil {
		return err
	}
	e.out["tree.block_rows_per_s"] = rows / blockS
	e.out["tree.binned_block_rows_per_s"] = 0
	if binned, err := flat.CompileBinned(e.served.Splits); err == nil {
		binnedS, err := e.timed("tree.binned_block", int64(rows), func() error {
			binned.PredictBlock(feat, val, out, tree.DefaultBlockRows)
			return nil
		})
		if err != nil {
			return err
		}
		e.out["tree.binned_block_rows_per_s"] = rows / binnedS
	}
	pointerS, err := e.timed("tree.pointer", int64(rows), func() error {
		for i := range feat {
			e.served.PredictRow(feat[i], val[i])
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.out["tree.pointer_rows_per_s"] = rows / pointerS
	return nil
}

// serveProbes take the request apart without a socket: the handler called
// directly, and the JSON work it cannot do without.
func (e *probeEnv) serveProbes() error {
	settle()
	heapBefore := readMem().HeapAlloc
	model, err := gbdt.DecodeModel(e.enc)
	if err != nil {
		return fmt.Errorf("probe serve: %w", err)
	}
	srv, err := startServer(model, serve.Options{})
	if err != nil {
		return err
	}
	defer srv.stop()
	settle()
	e.out["serve.heap_mib"] = float64(int64(readMem().HeapAlloc)-int64(heapBefore)) / (1 << 20)

	// The offline predictor as a caller gets it by default: one worker per
	// processor. predict_rows_per_s pins it to one (see predictLoop).
	pred, err := gbdt.NewPredictor(model, gbdt.PredictorOptions{})
	if err != nil {
		return fmt.Errorf("probe gbdt.predict_parallel: %w", err)
	}
	parallelS, err := e.timed("gbdt.predict_parallel", int64(len(e.in.evalFeat)), func() error {
		pred.PredictRows(e.in.evalFeat, e.in.evalVal)
		return nil
	})
	if err != nil {
		return err
	}
	e.out["gbdt.predict_parallel_rows_per_s"] = float64(len(e.in.evalFeat)) / parallelS

	handler := srv.srv.Handler()
	bodies := e.in.bodies
	path := "/v1/models/" + serve.DefaultModel + "/predict"
	var lastResp []byte
	i := 0
	sp := e.tr.begin("probe.serve.handler", 0)
	var handlerUs []float64
	for start := time.Now(); len(handlerUs) < 50 || time.Since(start) < 2*e.budget; i++ {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(bodies[i%len(bodies)]))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		handlerUs = append(handlerUs, float64(time.Since(t0).Nanoseconds())/1e3)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("probe serve.handler: status %d: %s", rec.Code, rec.Body.String())
		}
		lastResp = rec.Body.Bytes()
	}
	e.tr.end(sp, int64(len(handlerUs)))
	e.out["serve.handler_us_p50"] = median(handlerUs)

	// One client over loopback: what net/http and the socket add.
	client := newHTTPClient(1)
	defer client.CloseIdleConnections()
	gen := &loadgen{clients: 1, bodies: len(bodies), send: httpSender(client, srv.predictURL(), bodies), clk: realClock{}}
	sp = e.tr.begin("probe.serve.loopback", 0)
	phase := gen.closed(4 * e.budget)
	e.tr.end(sp, int64(phase.sent))
	if phase.failed > 0 || len(phase.samples) == 0 {
		return fmt.Errorf("probe serve.loopback: %d of %d requests failed", phase.failed, phase.sent)
	}
	lat := make([]float64, len(phase.samples))
	for i, s := range phase.samples {
		lat[i] = float64(s.latNs) / 1e3
	}
	e.out["serve.http_overhead_us"] = median(lat) - e.out["serve.handler_us_p50"]

	decodeS, err := e.timed("serve.json_decode", 1, func() error {
		var req serve.PredictRequest
		return json.Unmarshal(bodies[0], &req)
	})
	if err != nil {
		return err
	}
	e.out["serve.json_decode_us"] = decodeS * 1e6
	var resp serve.PredictResponse
	if err := json.Unmarshal(lastResp, &resp); err != nil {
		return fmt.Errorf("probe serve.json_encode: %w", err)
	}
	encodeS, err := e.timed("serve.json_encode", 1, func() error {
		_, err := json.Marshal(&resp)
		return err
	})
	if err != nil {
		return err
	}
	e.out["serve.json_encode_us"] = encodeS * 1e6

	loadS, err := e.timed("serve.model_load", 1, func() error {
		m, err := gbdt.DecodeModel(e.enc)
		if err != nil {
			return err
		}
		s, err := serve.New(m, "bench", serve.Options{Logger: discardLogger})
		if err != nil {
			return err
		}
		s.Close()
		return nil
	})
	if err != nil {
		return err
	}
	e.out["serve.model_load_ms"] = loadS * 1e3
	swapS, err := e.timed("serve.swap", 1, func() error {
		_, _, err := srv.srv.Registry().Swap(serve.DefaultModel, "bench", model)
		return err
	})
	if err != nil {
		return err
	}
	e.out["serve.swap_ms"] = swapS * 1e3
	return nil
}

// batchingPass drives single-row requests at a server with cross-request
// micro-batching on — a configuration no end-to-end workload uses, because
// two connections cannot fill a batch — and reads what the coalescer did
// from /metricz.
func (e *probeEnv) batchingPass(d time.Duration) error {
	model, err := gbdt.DecodeModel(e.enc)
	if err != nil {
		return fmt.Errorf("batching pass: %w", err)
	}
	srv, err := startServer(model, serve.Options{Batch: serve.BatchConfig{Deadline: 500 * time.Microsecond}})
	if err != nil {
		return err
	}
	defer srv.stop()
	bodies, err := encodeBodies(e.in.reqFeat, e.in.reqVal, 1, false)
	if err != nil {
		return err
	}
	client := newHTTPClient(closedClients())
	defer client.CloseIdleConnections()
	gen := &loadgen{clients: closedClients(), bodies: len(bodies), send: httpSender(client, srv.predictURL(), bodies), clk: realClock{}}
	sp := e.tr.begin("probe.serve.batching", 0)
	phase := gen.closed(d)
	e.tr.end(sp, int64(phase.sent))
	if phase.failed > 0 {
		return fmt.Errorf("batching pass: %d of %d requests failed", phase.failed, phase.sent)
	}
	snap, err := srv.metricz(client)
	if err != nil {
		return err
	}
	b := snap.Batching
	if b == nil {
		return fmt.Errorf("batching pass: /metricz has no batching section")
	}
	e.out["serve.batch_factor"] = b.Factor
	e.out["serve.queue_wait_p99_ms"] = b.QueueWaitMs.P99
	e.out["serve.inline_share"] = 0
	if total := b.Inline + b.BatchedRows; total > 0 {
		e.out["serve.inline_share"] = float64(b.Inline) / float64(total)
	}
	return nil
}

// trainLayerMetrics reads the counters the program already emits for the
// traced training repetition: cluster.Stats phases, worker busy time,
// measured communication, tree boundaries and allocation counters.
func trainLayerMetrics(out map[string]float64, r *pipeRep) {
	st := r.stats
	var prep, model, measured float64
	var bytes int64
	eq := 1.0
	for _, name := range st.PhaseNames() {
		p := st.Phase(name)
		if strings.HasPrefix(name, "prep.") || strings.HasPrefix(name, "transform.") {
			prep += p.CompSeconds
		}
		model += p.CommSeconds
		measured += p.MeasuredSeconds
		bytes += p.TotalBytes()
		if r.wire > 0 && p.MeasuredBytes != p.TotalBytes() {
			eq = 0
		}
	}
	out["core.prep_s"] = prep
	for _, ph := range []string{"gradient", "histogram", "split", "node", "update"} {
		out["core."+ph+"_s"] = st.Phase("train." + ph).CompSeconds
	}
	out["core.worker_busy_s"] = r.busyS
	out["core.unattributed_s"] = r.trainS - r.busyS - measured
	out["cluster.comm_bytes"] = float64(bytes)
	out["cluster.comm_model_s"] = model
	out["cluster.comm_measured_s"] = measured
	out["cluster.measured_eq_accounted"] = eq
	out["cluster.hist_model_over_measured"] = 0
	if h := st.Phase("train.histogram"); h.MeasuredSeconds > 0 {
		out["cluster.hist_model_over_measured"] = h.CommSeconds / h.MeasuredSeconds
	}
	out["tcptransport.wire_overhead_share"] = 0
	if r.payload > 0 {
		out["tcptransport.wire_overhead_share"] = float64(r.wire)/float64(r.payload) - 1
	}

	if len(r.treeAt) > 0 {
		out["core.first_tree_s"] = r.treeAt[0].Seconds()
		gaps := make([]float64, 0, len(r.treeAt))
		for i := 1; i < len(r.treeAt); i++ {
			gaps = append(gaps, float64((r.treeAt[i]-r.treeAt[i-1]).Nanoseconds())/1e6)
		}
		if len(gaps) == 0 {
			gaps = append(gaps, out["core.first_tree_s"]*1e3)
		}
		sort.Float64s(gaps)
		out["core.tree_ms_p50"] = median(gaps)
		out["core.tree_ms_max"] = gaps[len(gaps)-1]
	}
	out["core.alloc_mib"] = float64(r.mem.allocBytes) / (1 << 20)
	out["core.mallocs"] = float64(r.mem.mallocs)
	out["core.gc_pause_ms"] = float64(r.mem.pauseNs) / 1e6
}
