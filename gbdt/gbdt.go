// Package gbdt is the public API of the Vero reproduction: distributed
// gradient-boosted decision trees under the four data-management quadrants
// of "An Experimental Evaluation of Large Scale GBDT Systems" (VLDB 2019).
//
// Training runs on a simulated cluster: workers execute real computation
// while communication is metered byte-exactly and converted to simulated
// time under a configurable network model. The quickstart:
//
//	ds, _ := gbdt.Synthetic(gbdt.SyntheticConfig{N: 10000, D: 100, C: 2,
//	        InformativeRatio: 0.2, Density: 0.2, Seed: 1})
//	train, valid := ds.Split(0.8, 1)
//	model, report, _ := gbdt.Train(train, gbdt.Options{
//	        System: gbdt.SystemVero, Workers: 8, Trees: 20})
//	fmt.Println(report.PerTreeSeconds, gbdt.AUC(model, valid))
package gbdt

import (
	"fmt"
	"io"
	"os"
	"sync"

	"vero/internal/cluster"
	"vero/internal/core"
	"vero/internal/costmodel"
	"vero/internal/datasets"
	"vero/internal/ingest"
	"vero/internal/loss"
	"vero/internal/partition"
	"vero/internal/systems"
	"vero/internal/tree"
)

// Dataset is a feature matrix with labels. Construct one with Synthetic,
// NamedDataset or ReadLibSVM.
type Dataset = datasets.Dataset

// SyntheticConfig parametrizes the paper's synthetic data generator.
type SyntheticConfig = datasets.SyntheticConfig

// Synthetic generates a classification dataset from random linear models
// (Section 5.2 of the paper).
func Synthetic(cfg SyntheticConfig) (*Dataset, error) { return datasets.Synthetic(cfg) }

// SyntheticRegression generates a regression dataset y = x.w + noise.
func SyntheticRegression(n, d int, density, noise float64, seed int64) (*Dataset, error) {
	return datasets.SyntheticRegression(n, d, density, noise, seed)
}

// NamedDataset generates the scaled simulacrum of one of the paper's
// datasets (Table 2 / Section 6): susy, higgs, criteo, epsilon, rcv1,
// synthesis, rcv1-multi, synthesis-multi, gender, age, taste.
func NamedDataset(name string, seed int64) (*Dataset, error) { return datasets.Load(name, seed) }

// DatasetCatalog lists the paper's datasets with their original and
// simulated shapes.
func DatasetCatalog() []datasets.Descriptor { return datasets.Catalog() }

// ReadLibSVM parses LibSVM-format data through the chunked parallel
// parser (ingest.ReadDataset). numClass is 1 for regression, 2 for binary
// classification, >2 for multi-class.
func ReadLibSVM(r io.Reader, numClass int) (*Dataset, error) {
	return ingest.ReadDataset(r, ingest.Options{NumClass: numClass})
}

// ReadLibSVMFile reads a LibSVM file from disk.
func ReadLibSVMFile(path string, numClass int) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("gbdt: %w", err)
	}
	defer f.Close()
	return ReadLibSVM(f, numClass)
}

// WriteLibSVM writes a dataset in LibSVM format.
func WriteLibSVM(w io.Writer, ds *Dataset) error { return datasets.WriteLibSVM(w, ds) }

// System selects one of the evaluated GBDT systems.
type System = systems.System

// The systems of the paper's evaluation.
const (
	SystemXGBoost    = systems.XGBoost
	SystemLightGBM   = systems.LightGBM
	SystemLightGBMFP = systems.LightGBMFP
	SystemDimBoost   = systems.DimBoost
	SystemYggdrasil  = systems.Yggdrasil
	SystemQD3        = systems.QD3Hybrid
	SystemVero       = systems.Vero
)

// Systems returns every available system.
func Systems() []System { return systems.All() }

// DescribeSystem summarizes a system's data-management policy.
func DescribeSystem(s System) string { return systems.Describe(s) }

// Quadrant selects a data-management quadrant of the paper's Figure 1
// directly, instead of going through a named system.
type Quadrant = core.Quadrant

// The four quadrants, plus automatic selection.
const (
	// QD1..QD4 train with the quadrant's reference system policy
	// (XGBoost, LightGBM, optimized QD3, Vero respectively).
	QD1 = core.QD1
	QD2 = core.QD2
	QD3 = core.QD3
	QD4 = core.QD4
	// QuadrantAuto lets the advisor choose the quadrant from the
	// dataset's shape, sparsity and the cluster's network model; the
	// decision and its rationale land in Report.Selection.
	QuadrantAuto = core.QuadrantAuto
)

// ParseQuadrant reads a quadrant from its command-line spelling
// ("qd1".."qd4", a bare digit, or "auto").
func ParseQuadrant(s string) (Quadrant, error) { return core.ParseQuadrant(s) }

// QuadrantSelection records an auto-quadrant decision: the chosen
// quadrant, the advisor workload derived from the dataset, and the full
// recommendation with its rationale.
type QuadrantSelection = core.Selection

// NetworkModel converts communication volume to simulated time.
type NetworkModel = cluster.NetworkModel

// Gigabit is the paper's laboratory network (Section 5.1).
func Gigabit() NetworkModel { return cluster.Gigabit() }

// TenGigabit is the paper's production network (Section 6).
func TenGigabit() NetworkModel { return cluster.TenGigabit() }

// Options configures a training run.
type Options struct {
	// System picks the data-management policy (default SystemVero).
	System System
	// Quadrant, when nonzero, selects the data-management quadrant
	// directly and takes precedence over System: QD1..QD4 train with the
	// quadrant's reference system policy, and QuadrantAuto asks the
	// advisor to choose from the dataset and network (the decision is
	// reported in Report.Selection).
	Quadrant Quadrant
	// Workers is the simulated cluster size W (default 8, the paper's
	// laboratory cluster).
	Workers int
	// Network is the cluster's network model (default Gigabit).
	Network NetworkModel
	// Concurrent runs the simulated workers on goroutines instead of
	// sequentially. Models are bit-identical either way (reductions are
	// order-normalized); timing fidelity requires ~W idle cores, which is
	// why the exactly-measured sequential mode stays the default.
	Concurrent bool
	// Distributed, when non-nil, replaces the in-process simulation with a
	// real TCP worker mesh: this process becomes one rank of the
	// deployment described by the peer list, every collective moves its
	// payload over sockets in the simulation's reduction order, and the
	// trained model is bit-identical to the simulated run. len(Peers)
	// overrides Workers. See docs/DISTRIBUTED.md.
	Distributed *DistributedOptions

	// Trees (T, default 100), Layers (L, default 8) and Splits (q,
	// default 20) follow Section 5.1.
	Trees  int
	Layers int
	Splits int

	LearningRate float64 // default 0.3
	Lambda       float64 // default 1
	Gamma        float64
	MinChildHess float64

	// Objective is "square", "logistic" or "softmax"; inferred from the
	// dataset when empty.
	Objective string
	// NumClass is the class count: 1 for regression, 2 for binary, >2 for
	// multi-class. Zero means infer from the dataset; file-based entry
	// points (IngestFile, TrainFile) default it to 2.
	NumClass int

	// Ingestion options, honored by the file-based entry points
	// (IngestFile, TrainFile) and ignored by Train on an in-memory
	// dataset.

	// Format is the input dialect, FormatLibSVM (default) or FormatCSV.
	Format Format
	// ChunkRows is the ingestion block size in input lines (default
	// 4096): rows are parsed in blocks of this many lines by the parallel
	// parser.
	ChunkRows int
	// NumParseWorkers sizes the ingestion parse pool (default
	// GOMAXPROCS).
	NumParseWorkers int
	// CacheDir, when set, enables the binned binary cache: cold runs
	// write a .vbin image there and warm runs load it directly, skipping
	// parse and bin while producing bit-identical models (docs/DATA.md).
	CacheDir string

	// OutOfCore trains from an mmap-backed view of the .vbin cache
	// instead of materializing the binned matrix in memory: the file-based
	// entry points map the cache image (building it first when the path is
	// not already a .vbin file — CacheDir must then be set), and training
	// streams blocks through scratch bounded by MemBudget. Models are
	// bit-identical to in-memory training. See docs/DATA.md and
	// docs/PERFORMANCE.md.
	OutOfCore bool
	// MemBudget bounds the out-of-core streaming scratch in bytes
	// (default 64 MiB). It sizes block buffers only; the trained model
	// does not depend on it.
	MemBudget int64

	Seed int64

	// CheckpointDir, together with CheckpointEvery > 0, makes training
	// crash-safe: every CheckpointEvery trees the trainer atomically
	// writes resumable state to CheckpointDir/train.vckp, and a rerun with
	// the same options and data resumes from the last checkpoint instead
	// of round zero (Report.StartRound says where it picked up). A
	// checkpoint whose configuration or dataset fingerprint does not match
	// is rejected with an error rather than resumed. See
	// docs/ROBUSTNESS.md.
	CheckpointDir string
	// CheckpointEvery is the checkpoint period in trees; zero disables
	// checkpointing.
	CheckpointEvery int

	// OnTree is invoked after each tree with the cumulative simulated
	// time and the new tree.
	OnTree func(treeIdx int, elapsedSec float64, tr *Tree)
}

// Tree is a single decision tree of a trained model.
type Tree = tree.Tree

// Model is a trained GBDT forest. A model is immutable once trained or
// decoded; prediction compiles the forest into the flat serving engine
// (see Predictor) on first use and is safe for concurrent use.
type Model struct {
	forest   *tree.Forest
	flatOnce sync.Once
	flat     *tree.FlatForest
}

// Forest exposes the underlying forest.
func (m *Model) Forest() *tree.Forest { return m.forest }

// NumTrees returns the number of trees.
func (m *Model) NumTrees() int { return m.forest.NumTrees() }

// flatForest compiles the forest on first use.
func (m *Model) flatForest() *tree.FlatForest {
	m.flatOnce.Do(func() { m.flat = tree.Compile(m.forest) })
	return m.flat
}

// PredictRow returns raw scores (margins) for one sparse row.
func (m *Model) PredictRow(feat []uint32, val []float32) []float64 {
	return m.flatForest().PredictRow(feat, val)
}

// Predict returns raw scores for every instance of ds, row-major with
// stride NumClass, computed in parallel by the flat serving engine. The
// dataset must be materialized: an out-of-core training view holds bin
// indexes on disk, not feature values — read the data with ReadDataFile
// (or train with evaluation on a separate materialized split) to score it.
func (m *Model) Predict(ds *Dataset) []float64 {
	if ds.OutOfCore() {
		panic("gbdt: Predict needs a materialized dataset; out-of-core views are training-only (load the data with ReadDataFile instead)")
	}
	return m.flatForest().PredictCSR(ds.X, 0) // 0: default worker count
}

// Encode serializes the model to JSON.
func (m *Model) Encode() ([]byte, error) { return m.forest.Encode() }

// DecodeModel parses a model serialized with Encode.
func DecodeModel(data []byte) (*Model, error) {
	f, err := tree.DecodeForest(data)
	if err != nil {
		return nil, err
	}
	return &Model{forest: f}, nil
}

// Report summarizes a training run: per-tree simulated time and the
// computation/communication breakdown the paper's figures report.
type Report struct {
	PerTreeSeconds []float64
	// Selection is non-nil when training ran with QuadrantAuto: the
	// advisor's chosen quadrant and rationale.
	Selection   *QuadrantSelection
	CompSeconds float64
	CommSeconds float64
	PrepSeconds float64
	// CommBytes is the total communication volume.
	CommBytes int64
	// HistogramPeakBytes is the largest per-worker histogram memory.
	HistogramPeakBytes int64
	// DataBytes is the largest per-worker data-shard memory.
	DataBytes int64
	// TransformBytes reports the Vero transformation volumes (QD4 only).
	TransformBytes partition.ByteReport
	// StartRound is the boosting round training began at: 0 for a fresh
	// run, k when a checkpoint with k completed trees was resumed.
	StartRound int
	// PeakHeapBytes is the process heap high-water mark sampled at tree
	// boundaries — the number an out-of-core run's MemBudget guarantee is
	// checked against.
	PeakHeapBytes uint64
	// CheckpointErr records a non-fatal checkpoint housekeeping failure
	// (a periodic save that could not be written, or a completed run's
	// checkpoint that could not be removed). The model itself is valid.
	CheckpointErr error

	// Distributed is true when training ran over a real TCP worker mesh
	// (Options.Distributed); the fields below are then populated.
	Distributed bool
	// Rank is this process's rank in the deployment (0 on the simulation).
	Rank int
	// MeasuredCommSeconds is wall-clock spent in transport operations,
	// per phase the slowest rank's, summed over phases — the measured
	// counterpart of CommSeconds' alpha-beta prediction.
	MeasuredCommSeconds float64
	// MeasuredCommBytes is the collective payload volume the deployment
	// put on the wire, summed across ranks: CommBytes minus the modeled
	// bytes of Phases, which charge-only collectives account but never
	// send.
	MeasuredCommBytes int64
	// WireBytes is this rank's raw transmitted volume including frame
	// headers and checksums (the framing overhead above CommBytes' share).
	WireBytes int64
	// Phases is the per-phase accounted-vs-measured communication table.
	Phases []PhaseComm
}

// Train fits a GBDT model to the dataset. With Options.Distributed set it
// trains this rank's share of a real multi-process deployment instead;
// the mesh is closed before returning.
func Train(ds *Dataset, opts Options) (*Model, *Report, error) {
	opts = opts.withDefaults()
	cl, err := connectCluster(opts, meshFingerprint(ds))
	if err != nil {
		return nil, nil, err
	}
	defer cl.Close()
	res, err := runTrain(cl, ds, opts, baseConfig(opts))
	if err != nil {
		return nil, nil, err
	}
	if cl.Distributed() {
		// Replace each rank's local measurements with the deployment-wide
		// record (bytes summed, wall-clock maxed) so every rank reports
		// the same measured-vs-accounted table.
		if err := cl.SyncMeasured(); err != nil {
			return nil, nil, err
		}
	}
	return &Model{forest: res.Forest}, buildReport(cl, res), nil
}

// withDefaults fills the unset cluster options.
func (o Options) withDefaults() Options {
	if o.Distributed != nil {
		o.Workers = len(o.Distributed.Peers)
	}
	if o.Workers == 0 {
		o.Workers = 8
	}
	if o.Network == (NetworkModel{}) {
		o.Network = Gigabit()
	}
	if o.System == "" {
		o.System = SystemVero
	}
	return o
}

// baseConfig translates the options' hyper-parameters to a core config.
func baseConfig(opts Options) core.Config {
	cfg := core.Config{
		Trees:           opts.Trees,
		Layers:          opts.Layers,
		Splits:          opts.Splits,
		LearningRate:    opts.LearningRate,
		Lambda:          opts.Lambda,
		Gamma:           opts.Gamma,
		MinChildHess:    opts.MinChildHess,
		Objective:       opts.Objective,
		NumClass:        opts.NumClass,
		Seed:            opts.Seed,
		MemBudget:       opts.MemBudget,
		CheckpointDir:   opts.CheckpointDir,
		CheckpointEvery: opts.CheckpointEvery,
		OnTree:          opts.OnTree,
	}
	if d := opts.Distributed; d != nil {
		cfg.DistIdentity = distIdentity(d)
	}
	return cfg
}

// runTrain routes to the requested policy: an explicit quadrant trains
// its reference system, QuadrantAuto defers the choice to the trainer's
// advisor hook, and otherwise the named system decides.
func runTrain(cl *cluster.Cluster, ds *Dataset, opts Options, base core.Config) (*core.Result, error) {
	switch {
	case opts.Quadrant == QuadrantAuto:
		base.Quadrant = core.QuadrantAuto
		return core.Train(cl, ds, base)
	case opts.Quadrant != 0:
		s, err := systems.ForQuadrant(opts.Quadrant)
		if err != nil {
			return nil, err
		}
		return systems.Train(cl, ds, s, base)
	default:
		return systems.Train(cl, ds, opts.System, base)
	}
}

// buildReport assembles the public report from the run result and the
// cluster's accumulated statistics.
func buildReport(cl *cluster.Cluster, res *core.Result) *Report {
	_, _, bytes := cl.Stats().Totals()
	measuredSec, measuredBytes := cl.Stats().MeasuredTotals()
	return &Report{
		Distributed:         cl.Distributed(),
		Rank:                cl.Rank(),
		MeasuredCommSeconds: measuredSec,
		MeasuredCommBytes:   measuredBytes,
		WireBytes:           cl.WireBytes(),
		Phases:              phaseComms(cl),
		PerTreeSeconds:      res.PerTreeSeconds,
		Selection:           res.Selection,
		CompSeconds:         res.CompSeconds,
		CommSeconds:         res.CommSeconds,
		PrepSeconds:         res.PrepSeconds,
		CommBytes:           bytes,
		HistogramPeakBytes:  cl.Stats().Mem("histogram").MaxPeak(),
		DataBytes:           cl.Stats().Mem("data").MaxPeak(),
		TransformBytes:      res.TransformBytes,
		StartRound:          res.StartRound,
		PeakHeapBytes:       res.PeakHeapBytes,
		CheckpointErr:       res.CheckpointErr,
	}
}

// Evaluation metrics.

// AUC evaluates a binary model's area under the ROC curve on a dataset.
func AUC(m *Model, ds *Dataset) float64 {
	return loss.AUC(m.Predict(ds), ds.Labels)
}

// Accuracy evaluates classification accuracy (binary threshold at margin
// zero, multi-class by argmax).
func Accuracy(m *Model, ds *Dataset) float64 {
	scores := m.Predict(ds)
	if m.forest.NumClass > 1 {
		return loss.MultiAccuracy(scores, ds.Labels, m.forest.NumClass)
	}
	return loss.BinaryAccuracy(scores, ds.Labels)
}

// RMSE evaluates regression root-mean-square error.
func RMSE(m *Model, ds *Dataset) float64 {
	return loss.RMSE(m.Predict(ds), ds.Labels)
}

// LogLoss evaluates cross-entropy (binary or multi-class).
func LogLoss(m *Model, ds *Dataset) float64 {
	scores := m.Predict(ds)
	if m.forest.NumClass > 1 {
		return loss.MultiLogLoss(scores, ds.Labels, m.forest.NumClass)
	}
	return loss.LogLoss(scores, ds.Labels)
}

// Cost model (Section 3.1).

// CostWorkload is a workload in the paper's notation.
type CostWorkload = costmodel.Workload

// CostReport holds the closed-form memory and communication estimates.
type CostReport = costmodel.Report

// AnalyzeCost evaluates the paper's cost model on a workload.
func AnalyzeCost(w CostWorkload) (CostReport, error) { return costmodel.Analyze(w) }

// AgeExampleWorkload returns the Section 3.1.4 worked example.
func AgeExampleWorkload() CostWorkload { return costmodel.AgeExample() }
