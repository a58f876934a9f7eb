// Package core implements the paper's primary contribution: a distributed
// GBDT trainer parametrized by data-management policy — the four quadrants
// of partitioning scheme x storage pattern (Figure 1):
//
//	QD1  horizontal + column-store   (XGBoost)
//	QD2  horizontal + row-store      (LightGBM, DimBoost)
//	QD3  vertical + column-store     (Yggdrasil)
//	QD4  vertical + row-store        (Vero — this paper)
//
// All quadrants share one histogram-based boosting loop (Section 2.1) and
// differ exactly where the paper says they do: how gradient histograms are
// constructed and exchanged (Section 2.2.1), which node/instance index is
// maintained (Section 3.2), and how node-split placements propagate.
// Training runs on the simulated cluster of internal/cluster, so every
// byte the policies move is accounted and converted to simulated time.
package core

import (
	"fmt"
	"strings"

	"vero/internal/advisor"
	"vero/internal/cluster"
	"vero/internal/datasets"
	"vero/internal/histogram"
	"vero/internal/loss"
	"vero/internal/partition"
	"vero/internal/sparse"
	"vero/internal/tree"
)

// Quadrant selects the data-management policy.
type Quadrant int

// The four quadrants of Figure 1.
const (
	QD1 Quadrant = iota + 1 // horizontal + column-store
	QD2                     // horizontal + row-store
	QD3                     // vertical + column-store
	QD4                     // vertical + row-store (Vero)
)

// QuadrantAuto asks Train to pick among QD1-QD4 itself: prepare derives
// the advisor's workload from the dataset and cluster, applies the
// paper's cost model (Section 3.1) and decision matrix (Table 1), and
// trains with the recommended quadrant's reference policy. The choice and
// its rationale are recorded in Result.Selection.
const QuadrantAuto Quadrant = -1

// String names the quadrant as in the paper.
func (q Quadrant) String() string {
	switch q {
	case QuadrantAuto:
		return "auto"
	case QD1:
		return "QD1 (horizontal+column)"
	case QD2:
		return "QD2 (horizontal+row)"
	case QD3:
		return "QD3 (vertical+column)"
	case QD4:
		return "QD4 (vertical+row)"
	default:
		return fmt.Sprintf("Quadrant(%d)", int(q))
	}
}

// ParseQuadrant reads a quadrant from its command-line spelling: "qd1"
// through "qd4" (or the bare digit), and "auto" for QuadrantAuto.
func ParseQuadrant(s string) (Quadrant, error) {
	switch strings.ToLower(s) {
	case "auto":
		return QuadrantAuto, nil
	case "qd1", "1":
		return QD1, nil
	case "qd2", "2":
		return QD2, nil
	case "qd3", "3":
		return QD3, nil
	case "qd4", "4":
		return QD4, nil
	}
	return 0, fmt.Errorf("core: unknown quadrant %q (want qd1..qd4 or auto)", s)
}

// Vertical reports whether the quadrant partitions by features.
func (q Quadrant) Vertical() bool { return q == QD3 || q == QD4 }

// ConfigureQuadrant specializes cfg to quadrant q's reference policy —
// the policy of the named system occupying that quadrant of Figure 1:
// QD1 all-reduce aggregation (XGBoost), QD2 reduce-scatter (LightGBM
// data-parallel), QD3 hybrid column index (the paper's optimized
// baseline), QD4 the horizontal-to-vertical transformation (Vero). The
// single copy of this mapping serves both internal/systems and the
// auto-quadrant resolution, so the two cannot drift.
func ConfigureQuadrant(q Quadrant, cfg Config) (Config, error) {
	switch q {
	case QD1:
		cfg.Quadrant, cfg.Aggregation = QD1, AggAllReduce
	case QD2:
		cfg.Quadrant, cfg.Aggregation = QD2, AggReduceScatter
	case QD3:
		cfg.Quadrant, cfg.ColumnIndex = QD3, IndexHybrid
	case QD4:
		cfg.Quadrant, cfg.FullCopy = QD4, false
	default:
		return cfg, fmt.Errorf("core: no reference policy for quadrant %v", q)
	}
	return cfg, nil
}

// Aggregation selects how horizontal quadrants aggregate histograms
// (Section 4.1).
type Aggregation int

// Aggregation methods of the systems the paper analyzes.
const (
	// AggAllReduce: histograms all-reduced, a leader finds splits
	// (XGBoost).
	AggAllReduce Aggregation = iota
	// AggReduceScatter: each worker owns a feature shard of the
	// aggregated histograms and finds splits for it (LightGBM).
	AggReduceScatter
	// AggParameterServer: histograms pushed to sharded parameter servers
	// with server-side split finding (DimBoost).
	AggParameterServer
)

// ColumnIndexPlan selects the index for vertical column-store (QD3).
type ColumnIndexPlan int

// QD3 index plans (Sections 3.2.3 and 5.2.2).
const (
	// IndexHybrid combines instance-to-node linear scans for dense
	// columns with node-to-instance binary searches for sparse ones —
	// the paper's optimized QD3 implementation.
	IndexHybrid ColumnIndexPlan = iota
	// IndexColumnWise maintains a node-to-instance index per column, as
	// Yggdrasil does; node splitting must update all columns.
	IndexColumnWise
)

// Config holds every training hyper-parameter. Defaults mirror the paper:
// T=100 trees, L=8 layers, q=20 candidate splits (Section 5.1).
type Config struct {
	Quadrant Quadrant

	Trees  int // T
	Layers int // L, counting the root layer
	Splits int // q

	LearningRate float64
	Lambda       float64
	Gamma        float64
	MinChildHess float64

	// Objective is "square", "logistic" or "softmax"; NumClass matters
	// for softmax only.
	Objective string
	NumClass  int

	// Aggregation applies to QD1/QD2.
	Aggregation Aggregation
	// ColumnIndex applies to QD3.
	ColumnIndex ColumnIndexPlan
	// FullCopy applies to QD4: every worker keeps the entire dataset and
	// splits nodes locally — LightGBM's feature-parallel mode
	// (Appendix D). No placement broadcast is needed, but data memory is
	// multiplied by W.
	FullCopy bool
	// TransformCharge selects the wire variant charged by the QD4
	// horizontal-to-vertical transformation (Table 5).
	TransformCharge partition.Variant
	// SketchEps is the quantile sketch error (default 0.01).
	SketchEps float64

	// MemBudget bounds the resident streaming scratch of an out-of-core
	// run (a dataset served by datasets.BlockSource) in bytes; zero means
	// a 64 MiB default. It only sizes block buffers — models are
	// bit-identical for any budget — so it stays out of the checkpoint
	// config hash.
	MemBudget int64
	// BlockRows and BlockNNZ override the derived out-of-core block
	// sizes (rows per histogram row block, entries per column chunk);
	// mainly for tests pinning block-boundary edge cases. Zero derives
	// both from MemBudget.
	BlockRows int
	BlockNNZ  int

	Seed int64

	// CheckpointDir, with CheckpointEvery > 0, enables crash-safe
	// training: every CheckpointEvery trees the trainer atomically writes
	// resumable state (partial forest, round, config hash, dataset
	// fingerprint) to CheckpointDir/train.vckp, and Train resumes from a
	// matching checkpoint instead of starting over. See checkpoint.go and
	// docs/ROBUSTNESS.md.
	CheckpointDir   string
	CheckpointEvery int
	// DistIdentity, when non-empty, names this rank's slot in a distributed
	// deployment (the façade sets "rank/workers@peers-hash"). It folds into
	// the checkpoint config hash, so a checkpoint written under one
	// deployment shape is rejected — not silently replayed — under another
	// (a W=2 checkpoint at W=4, or rank 1's file fed to rank 0).
	DistIdentity string

	// OnTree, when set, is invoked after each tree with the cumulative
	// simulated time (measured computation + simulated communication)
	// and the tree just trained — the hook the convergence experiments
	// (Figure 11) use to score a validation set incrementally.
	OnTree func(treeIdx int, elapsedSec float64, tr *tree.Tree)
	// ShouldStop, when set, is consulted after each tree (after OnTree);
	// returning true ends training early. Used for early stopping on a
	// validation metric.
	ShouldStop func(treeIdx int) bool
}

func (c *Config) setDefaults() error {
	if c.Quadrant != QuadrantAuto && (c.Quadrant < QD1 || c.Quadrant > QD4) {
		return fmt.Errorf("core: unknown quadrant %d", c.Quadrant)
	}
	if c.Trees == 0 {
		c.Trees = 100
	}
	if c.Layers == 0 {
		c.Layers = 8
	}
	if c.Splits == 0 {
		c.Splits = 20
	}
	if c.Trees < 1 || c.Layers < 2 || c.Splits < 2 || c.Splits > sparse.MaxBins {
		return fmt.Errorf("core: invalid T=%d L=%d q=%d", c.Trees, c.Layers, c.Splits)
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.3
	}
	if c.Lambda == 0 {
		c.Lambda = 1
	}
	if c.SketchEps == 0 {
		c.SketchEps = 0.01
	}
	if c.FullCopy && c.Quadrant != QD4 {
		return fmt.Errorf("core: FullCopy (feature-parallel) requires QD4, got %v", c.Quadrant)
	}
	return nil
}

// Selection records an auto-quadrant decision (Config.Quadrant ==
// QuadrantAuto): the chosen quadrant, the workload the advisor scored,
// and the full recommendation including its human-readable rationale.
type Selection struct {
	Quadrant Quadrant
	Workload advisor.Workload
	Advice   advisor.Recommendation
}

// Result is the outcome of a training run.
type Result struct {
	Forest *tree.Forest
	// Selection is non-nil when the quadrant was chosen by the advisor
	// (Config.Quadrant == QuadrantAuto).
	Selection *Selection
	// PerTreeSeconds is the simulated wall time of each tree:
	// measured computation makespan plus simulated communication.
	PerTreeSeconds []float64
	// Breakdown of total training time.
	CompSeconds float64
	CommSeconds float64
	// PrepSeconds covers data preparation (sketching, binning and, for
	// QD4, the horizontal-to-vertical transformation).
	PrepSeconds float64
	// TransformBytes is the QD4 transformation's byte report (zero for
	// other quadrants).
	TransformBytes partition.ByteReport
	// StartRound is the boosting round training began at: 0 for a fresh
	// run, k when a checkpoint with k completed trees was resumed.
	StartRound int
	// PeakHeapBytes is the heap high-water mark observed at tree
	// boundaries (runtime.MemStats HeapAlloc) — the number the
	// out-of-core memory-budget guarantee is stated against.
	PeakHeapBytes uint64
	// CheckpointErr records the last non-fatal checkpoint housekeeping
	// failure (a failed periodic save, or a failed removal of the
	// checkpoint after a completed run). Training itself succeeded; the
	// caller decides whether a missing checkpoint is worth surfacing.
	CheckpointErr error
}

// Train runs distributed GBDT over the dataset with the given policy. The
// cluster's statistics accumulate the per-phase computation and
// communication record; pass a fresh cluster for a clean report.
func Train(cl *cluster.Cluster, ds *datasets.Dataset, cfg Config) (*Result, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	obj, err := objective(ds, cfg)
	if err != nil {
		return nil, err
	}
	if err := validateShard(cl, ds, cfg); err != nil {
		return nil, err
	}
	var sel *Selection
	if cfg.Quadrant == QuadrantAuto {
		if cfg, sel, err = resolveAuto(cl, ds, cfg, obj); err != nil {
			return nil, err
		}
	}
	t := newTrainer(cl, ds, cfg, obj)
	if t.n == 0 {
		return nil, fmt.Errorf("core: empty dataset")
	}
	if err := t.prepare(); err != nil {
		return nil, err
	}
	var ck *checkpoint
	if path := t.checkpointPath(); path != "" {
		// Fingerprints are derived after auto-quadrant resolution and
		// preparation so they cover the concrete policy and the binner the
		// checkpointed trees were grown against.
		t.ckptConfigHash = t.configHash()
		t.ckptDataFP = t.datasetFingerprint()
		if cl.Distributed() {
			// Distributed resume must agree on one round cluster-wide
			// before replaying anything; a rank with a bad or missing
			// checkpoint drags the mesh to round 0, never a mixed resume.
			if ck, err = t.loadCheckpointDistributed(path); err != nil {
				return nil, err
			}
		} else {
			if ck, err = t.loadCheckpoint(path); err != nil {
				return nil, err
			}
			if ck != nil {
				if err := t.verifyResume(ck.forest); err != nil {
					return nil, err
				}
			}
		}
	}
	res, err := t.run(ck)
	if err != nil {
		return nil, err
	}
	res.Selection = sel
	return res, nil
}

// validateShard rejects dataset/cluster/config combinations a sharded
// (partially materialized) dataset cannot serve. A shard only makes sense
// under the distributed transport — a simulated cluster hosts every
// worker and would train on a fraction of the data — and its axis must
// match the quadrant's partitioning so each rank materialized exactly the
// slice its engine reads.
func validateShard(cl *cluster.Cluster, ds *datasets.Dataset, cfg Config) error {
	sh := ds.Shard
	if sh == nil {
		return nil
	}
	if !cl.Distributed() {
		return fmt.Errorf("core: dataset is a rank shard (%s %d/%d) but the cluster is simulated; sharded loading needs the distributed transport", sh.Kind, sh.Rank, sh.Workers)
	}
	if sh.Workers != cl.Workers() || sh.Rank != cl.Rank() {
		return fmt.Errorf("core: dataset shard is %d/%d but this process is rank %d of %d", sh.Rank, sh.Workers, cl.Rank(), cl.Workers())
	}
	if cfg.Quadrant == QuadrantAuto {
		// The advisor scores the dataset it is handed; a shard would feed it
		// rank-local statistics and ranks could resolve different quadrants.
		return fmt.Errorf("core: auto quadrant selection needs the full dataset; pick a quadrant explicitly for sharded training")
	}
	if cfg.FullCopy {
		return fmt.Errorf("core: FullCopy (feature-parallel) replicates the dataset at every worker and cannot train on a shard")
	}
	switch cfg.Quadrant {
	case QD1, QD2:
		if sh.Kind != datasets.ShardRows {
			return fmt.Errorf("core: %v partitions by rows but the dataset is a %s shard", cfg.Quadrant, sh.Kind)
		}
	case QD3, QD4:
		if sh.Kind != datasets.ShardCols {
			return fmt.Errorf("core: %v partitions by columns but the dataset is a %s shard", cfg.Quadrant, sh.Kind)
		}
	}
	if ds.Prebin == nil || !ds.Prebin.Quantized {
		// The quantile sketch scans the matrix; a shard holds a fraction of
		// it, so candidate splits must ride in from the cache image.
		return fmt.Errorf("core: sharded training needs the cache's candidate splits (a quantized prebin); load shards with ingest.ReadCacheShard")
	}
	return nil
}

// newTrainer assembles an unprepared trainer over the cluster and dataset.
func newTrainer(cl *cluster.Cluster, ds *datasets.Dataset, cfg Config, obj loss.Objective) *trainer {
	return &trainer{
		cl:  cl,
		cfg: cfg,
		ds:  ds,
		obj: obj,
		n:   ds.NumInstances(),
		d:   ds.NumFeatures(),
		c:   obj.NumClass(),
		w:   cl.Workers(),
		finder: histogram.Finder{
			Lambda:       cfg.Lambda,
			Gamma:        cfg.Gamma,
			MinChildHess: cfg.MinChildHess,
		},
		pool: histogram.NewPool(),
	}
}

// objective resolves the loss from config and dataset: square for
// regression datasets, logistic for binary, softmax for multi-class when
// the caller left the objective empty or at the default binary objective.
func objective(ds *datasets.Dataset, cfg Config) (loss.Objective, error) {
	name := cfg.Objective
	numClass := cfg.NumClass
	if numClass == 0 {
		numClass = ds.NumClass
	}
	if name == "" {
		if numClass == 1 {
			name = "square"
		} else {
			name = "logistic"
		}
	}
	if name == "logistic" && numClass > 2 {
		name = "softmax"
	}
	return loss.ByName(name, numClass)
}
