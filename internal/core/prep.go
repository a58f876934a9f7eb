package core

import (
	"fmt"
	"runtime"

	"vero/internal/cluster"
	"vero/internal/datasets"
	"vero/internal/partition"
	"vero/internal/sketch"
	"vero/internal/sparse"
)

// prepare constructs the quadrant's engine and lets it materialize each
// worker's data shard, charging the preparation communication. The row
// ranges of the incoming horizontal layout are shared: every quadrant
// sketches from them, and the vertical quadrants repartition from them.
func (t *trainer) prepare() error {
	t.ranges = partition.HorizontalRanges(t.n, t.w)
	if err := t.initStream(); err != nil {
		return err
	}
	eng, err := newEngine(t)
	if err != nil {
		return err
	}
	t.eng = eng
	return t.eng.prepare()
}

// newEngine picks both axes of the configured policy once: the engine of
// its partitioning, and the storage layout that gives each worker its
// store. Config.Quadrant is concrete here: QuadrantAuto was resolved by
// Train before the trainer was assembled.
func newEngine(t *trainer) (engine, error) {
	cfg, outOfCore := t.cfg, t.ds.OutOfCore()
	switch {
	case cfg.Quadrant == QD1:
		return &horizontalEngine{t: t, open: (*horizontalEngine).openRoutedColumns, onePayload: true}, nil
	case cfg.Quadrant == QD2:
		return &horizontalEngine{t: t, open: (*horizontalEngine).openRows, subtract: true, perNode: !outOfCore}, nil
	case cfg.Quadrant == QD3 && cfg.ColumnIndex == IndexColumnWise && outOfCore:
		return nil, fmt.Errorf("core: the column-wise index (Yggdrasil) materializes whole columns and cannot stream; use the hybrid index for out-of-core QD3")
	case cfg.Quadrant == QD3 && cfg.ColumnIndex == IndexColumnWise:
		return &verticalEngine{t: t, prep: (*verticalEngine).prepareColumns, own: make([]ownIndex, t.w)}, nil
	case cfg.Quadrant == QD3:
		return &verticalEngine{t: t, prep: (*verticalEngine).prepareColumns}, nil
	case cfg.Quadrant == QD4 && cfg.FullCopy && outOfCore:
		return nil, fmt.Errorf("core: feature-parallel full copy replicates the dataset on every worker and cannot stream; disable FullCopy for out-of-core QD4")
	case cfg.Quadrant == QD4 && cfg.FullCopy:
		return &verticalEngine{t: t, prep: (*verticalEngine).prepareFullCopy, replicated: true}, nil
	case cfg.Quadrant == QD4:
		return &verticalEngine{t: t, prep: (*verticalEngine).prepareVero}, nil
	}
	return nil, fmt.Errorf("core: unhandled quadrant %v", cfg.Quadrant)
}

// checkMaxBins caches the binner's widest candidate-split count and
// rejects datasets that admit no split at all.
func (t *trainer) checkMaxBins() error {
	t.maxBins = t.binner.MaxNumBins()
	if t.maxBins < 2 {
		return fmt.Errorf("core: dataset yields %d candidate splits; need >= 2", t.maxBins)
	}
	return nil
}

// usablePrebin returns the dataset's ingestion-derived binning when it
// matches the training configuration. A quantized dataset (values are bin
// representatives reconstructed from a .vbin cache) whose parameters do
// not match is an error: the source values needed to re-sketch are gone,
// so silently re-binning would produce a model that matches no source
// run. A non-quantized mismatch simply falls back to sketching.
func (t *trainer) usablePrebin() (*datasets.Prebin, error) {
	pb := t.ds.Prebin
	if pb.Matches(t.cfg.SketchEps, t.cfg.Splits) {
		return pb, nil
	}
	if pb != nil && pb.Quantized {
		return nil, fmt.Errorf("core: dataset was binned with eps=%v q=%d but training wants eps=%v q=%d; re-ingest the source or match the cache parameters",
			pb.SketchEps, pb.Q, t.cfg.SketchEps, t.cfg.Splits)
	}
	return nil, nil
}

// adoptPrebin installs candidate splits and charges their broadcast. For
// ingestion-derived splits that is the only charge: the sketch build and
// exchange were already paid at ingestion time, which is exactly the
// preparation cost a warm cache removes.
func (t *trainer) adoptPrebin(pb *datasets.Prebin) []int64 {
	t.binner = &sparse.Binner{Splits: pb.Splits}
	t.numBinsGlobal = make([]int, t.d)
	var splitBytes int64
	for f := 0; f < t.d; f++ {
		t.numBinsGlobal[f] = len(pb.Splits[f])
		splitBytes += int64(len(pb.Splits[f])) * 4
	}
	t.cl.Broadcast("prep.sketch", splitBytes)
	return pb.FeatCount
}

// distributedSketch builds worker-local quantile sketches (timed and
// charged like the real systems do), then derives canonical candidate
// splits and per-feature value counts. Canonical means partitioning-
// independent: splits come from one global row-order sketch per feature,
// so every quadrant and every worker count yields bit-identical models —
// the property the paper relies on when comparing quadrants "in the same
// code base". A dataset that arrives with matching ingestion-derived
// splits (datasets.Prebin) skips the sketch pass entirely; the splits are
// identical by construction, so so is the model.
func (t *trainer) distributedSketch() ([]int64, error) {
	pb, err := t.usablePrebin()
	if err != nil {
		return nil, err
	}
	if pb != nil {
		return t.adoptPrebin(pb), nil
	}
	if t.ds.Shard != nil {
		// Unreachable through Train (validateShard requires a quantized
		// prebin), kept as a hard stop for direct callers: sketching a shard
		// would derive splits from a fraction of the values.
		return nil, fmt.Errorf("core: cannot sketch candidate splits from a rank shard; load shards with ingest.ReadCacheShard so the cache's splits ride along")
	}
	local := make([][]*sketch.GK, t.w)
	t.cl.Parallel("prep.sketch", func(w int) {
		local[w] = sketch.Local(t.ds.X, t.ranges[w][0], t.ranges[w][1], t.cfg.SketchEps)
	})
	var sketchBytes int64
	for f := 0; f < t.d; f++ {
		for w := 0; w < t.w; w++ {
			if local[w][f] != nil {
				sketchBytes += int64(local[w][f].NumTuples()) * 16
			}
		}
	}
	t.cl.ChargeComm("prep.sketch", cluster.OpAllReduce, sketchBytes, t.w-1)

	workers := runtime.GOMAXPROCS(0)
	splits, featCount := sketch.Canonical(sparse.TransposeCSR(t.ds.X, workers), t.cfg.SketchEps, t.cfg.Splits, workers)
	return t.adoptPrebin(&datasets.Prebin{Splits: splits, FeatCount: featCount}), nil
}

func binnedCSRBytes(m *sparse.BinnedCSR) int64 {
	return int64(len(m.RowPtr))*8 + int64(m.NNZ())*6
}

func binnedCSCBytes(m *sparse.BinnedCSC) int64 {
	return int64(len(m.ColPtr))*8 + int64(m.NNZ())*6
}
