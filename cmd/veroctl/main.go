// Command veroctl trains, evaluates and applies GBDT models on LibSVM,
// CSV or .vbin-cache files with any of the paper's data-management
// policies.
//
// Usage:
//
//	veroctl train -data train.libsvm -classes 2 -system vero -model model.json
//	veroctl train -data train.csv -format csv -cache .vero-cache -quadrant auto -model model.json
//	veroctl train -data train.libsvm -checkpoint-dir ckpt -checkpoint-every 10 -model model.json
//	veroctl train -data train.vbin -workers host1:9000,host2:9000 -rank 0 -model model.json
//	veroctl train -data train.vbin -workers host1:9000,host2:9000 -rank 0 -shard -quadrant qd2 -model model.json
//	veroctl ingest -data train.libsvm -classes 2 -out train.vbin
//	veroctl eval  -data valid.libsvm -classes 2 -model model.json
//	veroctl predict -data test.libsvm -classes 2 -model model.json
//	veroctl advise -n 1000000 -d 100000 -workers 8
//	veroctl systems
//
// Data files ending in .vbin are loaded as binned binary caches (see
// docs/DATA.md); -cache DIR keeps a .vbin cache per source file so warm
// runs skip parsing and binning entirely.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"vero/gbdt"
	"vero/internal/failpoint"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Arm fault-injection points requested via VERO_FAILPOINTS — the hook
	// the crash-test harness (scripts/crash_smoke.sh) kills training with.
	// Unset, this is a no-op and every point stays a dead branch.
	if err := failpoint.EnableFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "veroctl:", err)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = cmdTrain(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "predict":
		err = cmdPredict(os.Args[2:])
	case "ingest":
		err = cmdIngest(os.Args[2:])
	case "systems":
		for _, s := range gbdt.Systems() {
			fmt.Printf("%-12s %s\n", s, gbdt.DescribeSystem(s))
		}
	case "advise":
		err = cmdAdvise(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "veroctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: veroctl <train|ingest|eval|predict|advise|systems> [flags]
run "veroctl <command> -h" for command flags`)
}

// cmdAdvise implements the paper's future work: recommend a
// data-management policy for a workload and environment (Section 6).
func cmdAdvise(args []string) error {
	fs := flag.NewFlagSet("advise", flag.ExitOnError)
	n := fs.Int64("n", 0, "instances")
	d := fs.Int64("d", 0, "features")
	c := fs.Int64("c", 1, "classes (1 = binary/regression)")
	w := fs.Int64("workers", 8, "workers")
	layers := fs.Int64("layers", 8, "tree layers (L)")
	splits := fs.Int64("splits", 20, "candidate splits (q)")
	nnz := fs.Float64("nnz", 0, "average nonzeros per row (default: dense)")
	tenGig := fs.Bool("10g", false, "10 Gbps network (default 1 Gbps)")
	memGB := fs.Float64("mem", 0, "per-worker memory budget in GB (0 = unlimited)")
	data := fs.String("data", "", "infer shape from a LibSVM file instead")
	classes := fs.Int("classes", 2, "classes for -data")
	fs.Parse(args)

	net := gbdt.Gigabit()
	if *tenGig {
		net = gbdt.TenGigabit()
	}
	var (
		advice gbdt.Advice
		err    error
	)
	if *data != "" {
		ds, rerr := gbdt.ReadLibSVMFile(*data, *classes)
		if rerr != nil {
			return rerr
		}
		advice, err = gbdt.AdviseDataset(ds, int(*w), net)
	} else {
		if *n <= 0 || *d <= 0 {
			return fmt.Errorf("provide -n and -d, or -data")
		}
		advice, err = gbdt.Advise(gbdt.AdvisorWorkload{
			N: *n, D: *d, C: *c, W: *w, L: *layers, Q: *splits,
			NNZPerRow:            *nnz,
			Net:                  net,
			MemoryPerWorkerBytes: int64(*memGB * (1 << 30)),
		})
	}
	if err != nil {
		return err
	}
	fmt.Printf("recommendation: QD%d (%s partitioning + %s-store) -> system %q\n",
		advice.Quadrant, advice.Partitioning, advice.Storage, advice.System)
	fmt.Printf("  modeled comm/tree: horizontal %.4fs, vertical %.4fs\n",
		advice.HorizontalCommSecPerTree, advice.VerticalCommSecPerTree)
	fmt.Printf("  modeled histogram memory/worker: horizontal %.2f GB, vertical %.2f GB\n",
		float64(advice.HorizontalMemBytes)/(1<<30), float64(advice.VerticalMemBytes)/(1<<30))
	fmt.Printf("  why: %s\n", advice.Rationale)
	return nil
}

// ingestFlags registers the shared ingestion flags on fs and returns a
// closure that folds their values (and the class count) into options.
func ingestFlags(fs *flag.FlagSet) func(base gbdt.Options, classes int) (gbdt.Options, error) {
	format := fs.String("format", "", "input format: libsvm (default) or csv")
	cache := fs.String("cache", "", "cache directory: keep a .vbin binned cache per source file")
	chunk := fs.Int("chunk-rows", 0, "ingestion block size in rows (default 4096)")
	workers := fs.Int("parse-workers", 0, "parse worker pool size (default GOMAXPROCS)")
	return func(base gbdt.Options, classes int) (gbdt.Options, error) {
		f, err := gbdt.ParseFormat(*format)
		if err != nil {
			return base, err
		}
		base.Format = f
		base.CacheDir = *cache
		base.ChunkRows = *chunk
		base.NumParseWorkers = *workers
		base.NumClass = classes
		return base, nil
	}
}

// cmdIngest parses a dataset and writes its binned binary cache, either
// to an explicit -out path or into a -cache directory.
func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	data := fs.String("data", "", "input data (LibSVM or CSV)")
	classes := fs.Int("classes", 2, "1=regression, 2=binary, >2=multi-class")
	out := fs.String("out", "", "output .vbin path (default: derive under -cache)")
	splits := fs.Int("splits", 20, "candidate splits per feature (q)")
	finish := ingestFlags(fs)
	fs.Parse(args)
	if *data == "" {
		return fmt.Errorf("-data is required")
	}
	opts, err := finish(gbdt.Options{Splits: *splits}, *classes)
	if err != nil {
		return err
	}
	if *out != "" && opts.CacheDir != "" {
		return fmt.Errorf("-out and -cache are mutually exclusive")
	}
	if *out == "" && opts.CacheDir == "" {
		opts.CacheDir = ".vero-cache"
	}
	start := time.Now()
	ds, status, err := gbdt.IngestFile(*data, opts)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := gbdt.WriteCacheFile(*out, ds, opts); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)
	rate := float64(ds.NumInstances()) / elapsed.Seconds()
	fmt.Printf("ingested %d x %d (%d classes, %d nonzeros) in %v (%s, %.0f rows/s)\n",
		ds.NumInstances(), ds.NumFeatures(), ds.NumClass, ds.X.NNZ(), elapsed.Round(time.Millisecond), status, rate)
	if *out != "" {
		fmt.Printf("cache written to %s\n", *out)
	} else {
		fmt.Printf("cache directory: %s\n", opts.CacheDir)
	}
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	data := fs.String("data", "", "training data (LibSVM)")
	classes := fs.Int("classes", 2, "1=regression, 2=binary, >2=multi-class")
	system := fs.String("system", "vero", "GBDT system (see 'veroctl systems')")
	quadrant := fs.String("quadrant", "", "data-management quadrant: qd1..qd4, or 'auto' to let the advisor choose (overrides -system)")
	workers := fs.String("workers", "8", "simulated worker count, or a comma-separated host:port list naming every rank of a real TCP deployment")
	rank := fs.Int("rank", 0, "this process's rank in the -workers peer list (distributed runs)")
	listen := fs.String("listen", "", "listen address override for this rank, e.g. \":9000\" behind NAT (distributed runs; default: own -workers entry)")
	dialTimeout := fs.Duration("dial-timeout", 0, "mesh establishment timeout, including retries while peers start (distributed runs; default 30s)")
	opTimeout := fs.Duration("op-timeout", 0, "per-frame send/receive deadline inside collectives (distributed runs; default 30s)")
	concurrent := fs.Bool("concurrent", false, "run simulated workers on goroutines (needs ~workers idle cores for timing fidelity)")
	trees := fs.Int("trees", 100, "number of trees (T)")
	layers := fs.Int("layers", 8, "tree layers (L)")
	splits := fs.Int("splits", 20, "candidate splits (q)")
	eta := fs.Float64("eta", 0.3, "learning rate")
	lambda := fs.Float64("lambda", 1.0, "L2 regularization")
	gamma := fs.Float64("gamma", 0.0, "per-leaf penalty")
	model := fs.String("model", "model.json", "output model path")
	ckptDir := fs.String("checkpoint-dir", "", "checkpoint directory: save resumable training state every -checkpoint-every trees and resume from it after a crash")
	ckptEvery := fs.Int("checkpoint-every", 0, "checkpoint period in trees (0 disables checkpointing)")
	outOfCore := fs.Bool("out-of-core", false, "train from an mmap-backed view of the .vbin cache instead of loading the matrix into memory (bit-identical models; needs a .vbin -data path or -cache)")
	shard := fs.Bool("shard", false, "load only this rank's shard of the .vbin cache — its row range (qd1/qd2) or feature group (qd3/qd4) — instead of the full image (distributed runs; needs -quadrant and a .vbin -data path)")
	memBudgetMB := fs.Int64("mem-budget-mb", 64, "out-of-core streaming scratch budget in MiB")
	verbose := fs.Bool("v", false, "per-tree progress")
	finish := ingestFlags(fs)
	fs.Parse(args)
	if *data == "" {
		return fmt.Errorf("-data is required")
	}
	if (*ckptDir == "") != (*ckptEvery == 0) {
		return fmt.Errorf("-checkpoint-dir and -checkpoint-every must be set together")
	}
	simWorkers, dist, err := parseWorkers(*workers, *rank, *listen, *dialTimeout, *opTimeout)
	if err != nil {
		return err
	}
	opts, err := finish(gbdt.Options{
		System: gbdt.System(*system), Workers: simWorkers, Distributed: dist, Concurrent: *concurrent,
		Trees: *trees, Layers: *layers, Splits: *splits,
		LearningRate: *eta, Lambda: *lambda, Gamma: *gamma,
		CheckpointDir: *ckptDir, CheckpointEvery: *ckptEvery,
		OutOfCore: *outOfCore, MemBudget: *memBudgetMB << 20,
	}, *classes)
	if err != nil {
		return err
	}
	policy := *system
	if *quadrant != "" {
		q, err := gbdt.ParseQuadrant(*quadrant)
		if err != nil {
			return err
		}
		opts.Quadrant = q
		policy = q.String()
	}
	ingestStart := time.Now()
	var (
		ds     *gbdt.Dataset
		status gbdt.IngestStatus
	)
	if *shard {
		if dist == nil {
			return fmt.Errorf("-shard needs a distributed deployment: pass a host:port peer list to -workers")
		}
		if *outOfCore {
			return fmt.Errorf("-shard and -out-of-core are distinct memory-reduction strategies; pick one")
		}
		ds, err = gbdt.IngestShard(*data, opts)
		status = gbdt.IngestWarm // shard loads always come from the cache image
	} else {
		ds, status, err = gbdt.IngestFile(*data, opts)
	}
	if err != nil {
		return err
	}
	defer ds.Close() // releases the out-of-core mapping; no-op in memory
	fmt.Printf("ingested %d x %d in %v (%s)\n",
		ds.NumInstances(), ds.NumFeatures(), time.Since(ingestStart).Round(time.Millisecond), status)
	if *verbose {
		opts.OnTree = func(i int, elapsed float64, _ *gbdt.Tree) {
			fmt.Printf("tree %3d  simulated elapsed %.3fs\n", i, elapsed)
		}
	}
	m, report, err := gbdt.Train(ds, opts)
	if err != nil {
		return err
	}
	if report.StartRound > 0 {
		fmt.Printf("resumed from checkpoint at round %d of %d\n", report.StartRound, *trees)
	}
	if report.CheckpointErr != nil {
		fmt.Fprintf(os.Stderr, "veroctl: warning: checkpointing degraded: %v\n", report.CheckpointErr)
	}
	// Every rank trains the bit-identical model; only rank 0 persists it
	// so co-located workers don't race on the output path.
	writeModel := !report.Distributed || report.Rank == 0
	if writeModel {
		enc, err := m.Encode()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*model, enc, 0o644); err != nil {
			return err
		}
	}
	if sel := report.Selection; sel != nil {
		policy = sel.Quadrant.String()
		fmt.Printf("auto-selected %v -> system %q\n  why: %s\n",
			sel.Quadrant, sel.Advice.System, sel.Advice.Rationale)
	}
	fmt.Printf("trained %d trees on %d x %d (%s)\n", m.NumTrees(), ds.NumInstances(), ds.NumFeatures(), policy)
	fmt.Printf("simulated: comp %.3fs  comm %.3fs  prep %.3fs  comm volume %.1f MB\n",
		report.CompSeconds, report.CommSeconds, report.PrepSeconds, float64(report.CommBytes)/(1<<20))
	if report.Distributed {
		printDistributed(report, len(dist.Peers))
	}
	fmt.Printf("peak heap: %.1f MiB\n", float64(report.PeakHeapBytes)/(1<<20))
	if writeModel {
		fmt.Printf("model written to %s\n", *model)
	}
	return nil
}

// parseWorkers interprets -workers: a bare integer is a simulated worker
// count; a comma-separated host:port list is a real deployment's peer
// roster, one entry per rank.
func parseWorkers(spec string, rank int, listen string, dialTimeout, opTimeout time.Duration) (int, *gbdt.DistributedOptions, error) {
	if n, err := strconv.Atoi(strings.TrimSpace(spec)); err == nil {
		return n, nil, nil
	}
	peers := strings.Split(spec, ",")
	for i, p := range peers {
		peers[i] = strings.TrimSpace(p)
		if _, _, err := net.SplitHostPort(peers[i]); err != nil {
			return 0, nil, fmt.Errorf("-workers entry %q: %w", peers[i], err)
		}
	}
	if rank < 0 || rank >= len(peers) {
		return 0, nil, fmt.Errorf("-rank %d out of range for %d peers", rank, len(peers))
	}
	return len(peers), &gbdt.DistributedOptions{
		Peers: peers, Rank: rank, Listen: listen,
		DialTimeout: dialTimeout, OpTimeout: opTimeout,
	}, nil
}

// printDistributed prints the measured transport numbers next to the
// alpha-beta model's predictions, totals first, then per phase. Measured
// bytes must equal accounted minus modeled (charge-only collectives send
// nothing), for the run and every phase; a mismatch means a lost frame.
func printDistributed(report *gbdt.Report, peers int) {
	var modeled int64
	agree := true
	for _, p := range report.Phases {
		modeled += p.ModeledBytes
		agree = agree && p.MeasuredBytes == p.AccountedBytes-p.ModeledBytes
	}
	check := "bytes agree"
	if !agree || report.MeasuredCommBytes != report.CommBytes-modeled {
		check = "BYTE MISMATCH"
	}
	fmt.Printf("distributed: rank %d of %d peers\n", report.Rank, peers)
	fmt.Printf("measured: comm %.3fs  payload %d B of %d B accounted, %d B modeled (%s)  wire %d B incl. framing\n",
		report.MeasuredCommSeconds, report.MeasuredCommBytes, report.CommBytes, modeled, check,
		report.WireBytes)
	fmt.Printf("%-22s %14s %14s %14s %12s %12s\n", "phase", "accounted B", "modeled B", "measured B", "model s", "measured s")
	for _, p := range report.Phases {
		fmt.Printf("%-22s %14d %14d %14d %12.4f %12.4f\n",
			p.Phase, p.AccountedBytes, p.ModeledBytes, p.MeasuredBytes, p.ModelSeconds, p.MeasuredSeconds)
	}
}

func loadModelAndData(fs *flag.FlagSet, args []string) (*gbdt.Model, *gbdt.Dataset, error) {
	data := fs.String("data", "", "data file (LibSVM, CSV or .vbin)")
	classes := fs.Int("classes", 2, "1=regression, 2=binary, >2=multi-class")
	model := fs.String("model", "model.json", "model path")
	finish := ingestFlags(fs)
	fs.Parse(args)
	if *data == "" {
		return nil, nil, fmt.Errorf("-data is required")
	}
	enc, err := os.ReadFile(*model)
	if err != nil {
		return nil, nil, err
	}
	m, err := gbdt.DecodeModel(enc)
	if err != nil {
		return nil, nil, err
	}
	opts, err := finish(gbdt.Options{}, *classes)
	if err != nil {
		return nil, nil, err
	}
	// Evaluation and prediction discard candidate splits, so read without
	// the sketch pass.
	ds, _, err := gbdt.ReadDataFile(*data, opts)
	if err != nil {
		return nil, nil, err
	}
	return m, ds, nil
}

func cmdEval(args []string) error {
	m, ds, err := loadModelAndData(flag.NewFlagSet("eval", flag.ExitOnError), args)
	if err != nil {
		return err
	}
	switch {
	case ds.NumClass == 1:
		fmt.Printf("rmse: %.6f\n", gbdt.RMSE(m, ds))
	case ds.NumClass == 2:
		fmt.Printf("auc: %.6f  accuracy: %.6f  logloss: %.6f\n",
			gbdt.AUC(m, ds), gbdt.Accuracy(m, ds), gbdt.LogLoss(m, ds))
	default:
		fmt.Printf("accuracy: %.6f  logloss: %.6f\n", gbdt.Accuracy(m, ds), gbdt.LogLoss(m, ds))
	}
	return nil
}

func cmdPredict(args []string) error {
	m, ds, err := loadModelAndData(flag.NewFlagSet("predict", flag.ExitOnError), args)
	if err != nil {
		return err
	}
	scores := m.Predict(ds)
	stride := len(scores) / ds.NumInstances()
	for i := 0; i < ds.NumInstances(); i++ {
		for k := 0; k < stride; k++ {
			if k > 0 {
				fmt.Print(" ")
			}
			fmt.Printf("%g", scores[i*stride+k])
		}
		fmt.Println()
	}
	return nil
}
