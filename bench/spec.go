package main

import "slices"

// The benchmark's fixed definitions: the five workloads and the names,
// units, directions and bounds of every metric. BENCHMARK.json at the root
// of the repository is generated from these tables (`-manifest`) and a test
// holds the two equal, so a name exists in exactly one place.

// trainMode selects which data path the training stage runs through.
type trainMode int

const (
	// modeMem trains on the dataset materialized by ReadCacheFile, on the
	// sequential in-process simulation.
	modeMem trainMode = iota
	// modeOOC trains the same engines through the datasets.BlockSource
	// stream of an mmap-backed cache view under a memory budget.
	modeOOC
	// modeTCP trains W ranks as goroutines of this process, each on its
	// row shard of the cache, exchanging histograms over loopback sockets.
	modeTCP
)

// workload is one full pass through the pipe: generate → ingest (cold,
// warm) → train → encode → load → predict → serve. The fields are the
// input properties the system's behaviour depends on.
type workload struct {
	Name string
	Why  string // one line, copied into BENCHMARK.json

	// Training data: datasets.Synthetic with informative ratio 0.2 and
	// label noise 0.05.
	N, D, C int
	Density float64

	// Training stage.
	Mode      trainMode
	Quadrant  int // 2 or 4: the quadrant's reference policy
	Workers   int
	Trees     int
	Layers    int
	MemBudget int64 // modeOOC only
	// MinAccuracy is the correctness floor for the trained model on the
	// first evalRows training rows.
	MinAccuracy float64

	// Served model: the trained one, unless ForestTrees > 0 — then a
	// seeded synthetic forest of full trees of ForestDepth layers over the
	// ingested dataset's candidate-split table.
	ForestTrees int
	ForestDepth int

	// Traffic: RowsPerReq rows in every predict request, optionally asking
	// for probabilities. The end-to-end figures come from a closed loop; the
	// traced run adds an open-loop pass at OpenRate requests per second,
	// about a third of what the closed loop reaches on the fitting host.
	RowsPerReq int
	Proba      bool
	OpenRate   float64

	// Rounds is how many times a run of runSeconds goes through the pipe
	// (see run.go): fewer where one repetition takes longer.
	Rounds int
}

const (
	// evalRows is how many leading rows of the generated dataset are kept
	// (raw values) for the prediction hash, the accuracy floor and the
	// offline predict loop.
	evalRows = 4096
	// requestRows is how many leading rows feed the request bodies.
	requestRows = 8192
	// maxBodies caps the pool of distinct pre-encoded request bodies.
	maxBodies = 1024
	// splitsQ is the candidate-split budget everywhere (the paper's q).
	splitsQ = 20
)

// workloads are fitted to a 2-core host so that one run of one workload
// (set-up, --seconds of measuring, warm-ups) ends in 15 to 25 s; the
// driver's time cap leaves about 28 s per run. train-qd4-mem and
// train-qd4-ooc must keep identical data and hyper-parameters.
var workloads = []workload{
	{
		Name: "train-qd4-mem",
		Why:  "QD4 (Vero) in-memory training on 200k rows, the default path: vertical engine + partition.Transform lead; serves 16-row requests, so JSON dominates the request",
		N:    200000, D: 100, C: 2, Density: 0.2,
		Mode: modeMem, Quadrant: 4, Workers: 4, Trees: 10, Layers: 7, MinAccuracy: 0.75,
		RowsPerReq: 16, OpenRate: 2500, Rounds: 2,
	},
	{
		Name: "train-qd4-ooc",
		Why:  "same data and config as train-qd4-mem through the mmap BlockSource stream under an 8 MiB budget: same layers, other use; the only row where peak heap is the promise",
		N:    200000, D: 100, C: 2, Density: 0.2,
		Mode: modeOOC, Quadrant: 4, Workers: 4, Trees: 10, Layers: 7, MemBudget: 8 << 20, MinAccuracy: 0.75,
		RowsPerReq: 16, OpenRate: 2500, Rounds: 2,
	},
	{
		Name: "train-qd2-tcp",
		Why:  "QD2 reduce-scatter on 5 classes over loopback TCP, 2 ranks on row shards: histograms scale with D*q*C so sockets carry real load; serves softmax probabilities",
		N:    60000, D: 100, C: 5, Density: 0.2,
		Mode: modeTCP, Quadrant: 2, Workers: 2, Trees: 15, Layers: 7, MinAccuracy: 0.35,
		RowsPerReq: 8, Proba: true, OpenRate: 4000, Rounds: 4,
	},
	{
		Name: "serve-single",
		Why:  "online traffic: single-row requests against a 60-tree model; scoring is a few % of a request, admission, JSON and net/http are the rest, so a kernel change must show nothing here",
		N:    20000, D: 200, C: 2, Density: 0.2,
		Mode: modeMem, Quadrant: 4, Workers: 8, Trees: 60, Layers: 6, MinAccuracy: 0.75,
		RowsPerReq: 1, OpenRate: 8000, Rounds: 4,
	},
	{
		Name: "serve-batch-large",
		Why:  "64-row requests against a 1000-tree depth-8 forest whose node image exceeds L2: the blocked kernel is most of a request; training sees a wide sparse 500-feature shape",
		N:    10000, D: 500, C: 2, Density: 0.1,
		Mode: modeMem, Quadrant: 4, Workers: 8, Trees: 30, Layers: 8, MinAccuracy: 0.6,
		ForestTrees: 1000, ForestDepth: 8,
		RowsPerReq: 64, OpenRate: 200, Rounds: 4,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks a workload for smoke runs: rows and synthetic trees by
// scale (with floors that keep every stage meaningful). Results at any
// scale other than 1 are stamped "comparable": false.
func (w workload) scaled(scale float64) workload {
	if scale == 1 {
		return w
	}
	w.N = max(int(float64(w.N)*scale), 1500)
	if w.ForestTrees > 0 {
		w.ForestTrees = max(int(float64(w.ForestTrees)*scale), 8)
	}
	w.Trees = max(int(float64(w.Trees)*scale), 3)
	w.MinAccuracy = 1 / float64(w.C) // a handful of trees on a sliver of the data: chance is the floor
	w.OpenRate = max(w.OpenRate*scale, 100)
	return w
}

// metricDef is one catalogue row.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	// On names the workloads compare mode holds an end-to-end metric's bound
	// on: the ones whose subject the metric is. Empty: all of them.
	On []string
	// Exact marks counts that must repeat exactly between two runs of the
	// same seed (compare mode fails on any difference).
	Exact bool
	// Moves names the end-to-end metric and workload this per-layer
	// number should move ("none" for invariants and unbenchmarked code).
	Moves string
}

// gatedOn reports whether compare mode holds the metric's bound on the
// workload.
func (d metricDef) gatedOn(workload string) bool {
	return len(d.On) == 0 || slices.Contains(d.On, workload)
}

var (
	trainWorkloads = []string{"train-qd4-mem", "train-qd4-ooc", "train-qd2-tcp"}
	serveWorkloads = []string{"serve-single", "serve-batch-large"}
	// The workloads whose load for training reads the whole cache image; on
	// train-qd4-ooc the "load" is a 10 ms MapCacheFile.
	ingestWorkloads = []string{"train-qd4-mem", "train-qd2-tcp"}
)

// endToEnd are the metrics a user of the system sees. The driver's
// contract wants every one of them from every workload, and every workload
// does run the whole pipe, so each reports all nine; compare mode gates a
// metric only on the workloads it is about (On), ISSUE 13's "reported by".
// failed_share (failed/attempted) is reported beside them but is not in this
// list: it is 0 on a healthy run and the contract wants metrics that never
// are; the result line's "failed"/"attempted" carry it.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ingest_cold_s", Unit: "s", Better: "lower", Bound: 0.25, On: ingestWorkloads},
	{Name: "ingest_warm_s", Unit: "s", Better: "lower", Bound: 0.25, On: ingestWorkloads},
	{Name: "train_s", Unit: "s", Better: "lower", Bound: 0.25, On: trainWorkloads},
	{Name: "train_peak_heap_mib", Unit: "MiB", Better: "lower", Bound: 0.20, On: trainWorkloads},
	{Name: "predict_rows_per_s", Unit: "rows/s", Better: "higher", Bound: 0.25, On: serveWorkloads},
	{Name: "serve_rps", Unit: "req/s", Better: "higher", Bound: 0.25, On: serveWorkloads},
	{Name: "serve_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: serveWorkloads},
	{Name: "serve_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: serveWorkloads},
}

// perLayer are the metrics of single layers (this repository's packages),
// all measured from bench/ by timing calls into public functions and
// reading counters the program already emits.
var perLayer = []metricDef{
	{Name: "ingest.parse_rows_per_s", Unit: "rows/s", Better: "higher", Moves: "ingest_cold_s"},
	{Name: "ingest.sketch_bin_s", Unit: "s", Better: "lower", Moves: "ingest_cold_s"},
	{Name: "ingest.write_cache_s", Unit: "s", Better: "lower", Moves: "ingest_cold_s"},
	{Name: "ingest.read_cache_s", Unit: "s", Better: "lower", Moves: "ingest_warm_s on mem and serve-*"},
	{Name: "ingest.read_shard_s", Unit: "s", Better: "lower", Moves: "ingest_warm_s on train-qd2-tcp"},
	{Name: "ingest.map_open_ms", Unit: "ms", Better: "lower", Moves: "ingest_warm_s and train_s on train-qd4-ooc"},
	{Name: "ingest.stream_mentries_per_s", Unit: "Mentries/s", Better: "higher", Moves: "train_s on train-qd4-ooc"},
	{Name: "ingest.lookup_ns", Unit: "ns", Better: "lower", Moves: "train_s on train-qd4-ooc"},
	{Name: "ingest.cache_bytes", Unit: "B", Better: "lower", Exact: true, Moves: "none (format invariant)"},
	{Name: "sketch.add_ns", Unit: "ns", Better: "lower", Moves: "ingest_cold_s"},
	{Name: "partition.transform_s", Unit: "s", Better: "lower", Moves: "train_s on mem and serve-*"},
	{Name: "partition.transform_streamed_s", Unit: "s", Better: "lower", Moves: "train_s on train-qd4-ooc"},
	{Name: "partition.repartition_bytes", Unit: "B", Better: "lower", Exact: true, Moves: "none (wire invariant)"},
	{Name: "histogram.rowscan_ns_per_entry", Unit: "ns", Better: "lower", Moves: "train_s on QD4 workloads"},
	{Name: "histogram.rowscan_c5_ns_per_entry", Unit: "ns", Better: "lower", Moves: "train_s on train-qd2-tcp"},
	{Name: "histogram.colscan_routed_ns_per_entry", Unit: "ns", Better: "lower", Moves: "none (guards QD1)"},
	{Name: "histogram.colscan_node_ns_per_entry", Unit: "ns", Better: "lower", Moves: "none (guards QD3)"},
	{Name: "histogram.sub_ns_per_cell", Unit: "ns", Better: "lower", Moves: "train_s"},
	{Name: "histogram.findbest_us", Unit: "us", Better: "lower", Moves: "train_s via core.split_s"},
	{Name: "histogram.findbest_c5_us", Unit: "us", Better: "lower", Moves: "train_s on train-qd2-tcp via core.split_s"},
	{Name: "core.prep_s", Unit: "s", Better: "lower", Moves: "train_s"},
	{Name: "core.gradient_s", Unit: "s", Better: "lower", Moves: "train_s"},
	{Name: "core.histogram_s", Unit: "s", Better: "lower", Moves: "train_s (leads on train-qd2-tcp)"},
	{Name: "core.split_s", Unit: "s", Better: "lower", Moves: "train_s"},
	{Name: "core.node_s", Unit: "s", Better: "lower", Moves: "train_s (leads on QD4 workloads)"},
	{Name: "core.update_s", Unit: "s", Better: "lower", Moves: "train_s"},
	{Name: "core.worker_busy_s", Unit: "s", Better: "lower", Moves: "train_s (most of the wall on the sequential simulation)"},
	{Name: "core.unattributed_s", Unit: "s", Better: "lower", Moves: "train_s (leader-side serial code, GC, allocation)"},
	{Name: "core.first_tree_s", Unit: "s", Better: "lower", Moves: "train_s"},
	{Name: "core.tree_ms_p50", Unit: "ms", Better: "lower", Moves: "train_s"},
	{Name: "core.tree_ms_max", Unit: "ms", Better: "lower", Moves: "train_s (max >> p50: GC or straggler)"},
	{Name: "core.alloc_mib", Unit: "MiB", Better: "lower", Moves: "train_peak_heap_mib, then train_s"},
	{Name: "core.mallocs", Unit: "count", Better: "lower", Moves: "train_peak_heap_mib, then train_s"},
	{Name: "core.gc_pause_ms", Unit: "ms", Better: "lower", Moves: "train_s"},
	{Name: "cluster.comm_bytes", Unit: "B", Better: "lower", Exact: true, Moves: "none (a change is a different algorithm)"},
	{Name: "cluster.comm_model_s", Unit: "s", Better: "lower", Moves: "none (simulated)"},
	{Name: "cluster.comm_measured_s", Unit: "s", Better: "lower", Moves: "train_s on train-qd2-tcp (0 on the simulation)"},
	{Name: "cluster.hist_model_over_measured", Unit: "ratio", Better: "lower", Moves: "none (simulation fidelity; 0 on the simulation)"},
	{Name: "cluster.measured_eq_accounted", Unit: "bool", Better: "higher", Moves: "correctness check"},
	{Name: "tcptransport.connect_ms", Unit: "ms", Better: "lower", Moves: "train_s on train-qd2-tcp"},
	{Name: "tcptransport.allreduce_8_us", Unit: "us", Better: "lower", Moves: "cluster.comm_measured_s, train_s on train-qd2-tcp"},
	{Name: "tcptransport.reducescatter_mib_per_s", Unit: "MiB/s", Better: "higher", Moves: "cluster.comm_measured_s, train_s on train-qd2-tcp"},
	{Name: "tcptransport.broadcast_64k_us", Unit: "us", Better: "lower", Moves: "cluster.comm_measured_s, train_s on train-qd2-tcp"},
	{Name: "tcptransport.wire_overhead_share", Unit: "ratio", Better: "lower", Moves: "none (framing invariant)"},
	{Name: "tree.decode_ms", Unit: "ms", Better: "lower", Moves: "serve.model_load_ms"},
	{Name: "tree.compile_ms", Unit: "ms", Better: "lower", Moves: "serve.model_load_ms"},
	{Name: "tree.nodes", Unit: "count", Better: "lower", Exact: true, Moves: "none"},
	{Name: "tree.row_ns", Unit: "ns", Better: "lower", Moves: "serve_p50_ms on serve-single (a few %)"},
	{Name: "tree.block_rows_per_s", Unit: "rows/s", Better: "higher", Moves: "serve_rps, serve_p50_ms, predict_rows_per_s on serve-batch-large"},
	{Name: "tree.binned_block_rows_per_s", Unit: "rows/s", Better: "higher", Moves: "none today (keep-or-delete decision)"},
	{Name: "tree.pointer_rows_per_s", Unit: "rows/s", Better: "higher", Moves: "none (the oracle)"},
	{Name: "gbdt.predict_parallel_rows_per_s", Unit: "rows/s", Better: "higher", Moves: "none gated: Predictor.PredictRows with default options (a worker per processor); predict_rows_per_s is its one-worker figure"},
	{Name: "serve.handler_us_p50", Unit: "us", Better: "lower", Moves: "serve_rps, serve_p50_ms on serve-single and train-*"},
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower", Moves: "none (net/http and loopback: out of the repository's reach)"},
	{Name: "serve.json_decode_us", Unit: "us", Better: "lower", Moves: "lower bound of the handler's decode stage"},
	{Name: "serve.json_encode_us", Unit: "us", Better: "lower", Moves: "lower bound of the handler's encode stage"},
	{Name: "serve.metricz_p50_ms", Unit: "ms", Better: "lower", Moves: "server-side view of serve_p50_ms (bucket bound)"},
	{Name: "serve.metricz_p99_ms", Unit: "ms", Better: "lower", Moves: "server-side view of serve_p99_ms (bucket bound)"},
	{Name: "serve.open_p50_ms", Unit: "ms", Better: "lower", Moves: "none gated: latency from the due instant at the workload's fixed open-loop rate"},
	{Name: "serve.open_p99_ms", Unit: "ms", Better: "lower", Moves: "none gated: rises before serve_rps falls"},
	{Name: "serve.rejected", Unit: "count", Better: "lower", Moves: "failed"},
	{Name: "serve.errors", Unit: "count", Better: "lower", Moves: "failed"},
	{Name: "serve.batch_factor", Unit: "ratio", Better: "higher", Moves: "none at the default configuration"},
	{Name: "serve.queue_wait_p99_ms", Unit: "ms", Better: "lower", Moves: "none at the default configuration"},
	{Name: "serve.inline_share", Unit: "ratio", Better: "lower", Moves: "none at the default configuration"},
	{Name: "serve.model_load_ms", Unit: "ms", Better: "lower", Moves: "none gated: DecodeModel + serve.New, what veroserve pays per model at start-up or hot-swap"},
	{Name: "serve.swap_ms", Unit: "ms", Better: "lower", Moves: "none (admin path)"},
	{Name: "serve.heap_mib", Unit: "MiB", Better: "lower", Moves: "none (memory cost of the node image)"},
	{Name: "loadgen.sent", Unit: "count", Better: "higher", Moves: "validity of serve_*"},
	{Name: "loadgen.ok", Unit: "count", Better: "higher", Moves: "validity of serve_*"},
	{Name: "loadgen.failed", Unit: "count", Better: "lower", Moves: "failed"},
	{Name: "loadgen.verified", Unit: "count", Better: "higher", Moves: "validity of serve_*"},
	{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower", Moves: "validity of serve.open_*: how late the generator ran"},
	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower", Moves: "must stay below 0.03"},
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 12

// manifest is the shape of BENCHMARK.json, exactly the driver's keys.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestE2E      `json:"end_to_end"`
	PerLayer   []manifestLayer    `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestWorkload{Name: w.Name, Why: w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestE2E{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestLayer{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}
