package gbdt

import (
	"fmt"
	"math"
	"runtime"

	"vero/internal/sparse"
	"vero/internal/tree"
)

// Predictor is the serving-side inference engine: a Model compiled into a
// flattened, cache-friendly forest plus a bounded goroutine pool for batch
// scoring. A Predictor is immutable and safe for concurrent use; build one
// per loaded model and share it across request handlers.
type Predictor struct {
	flat      *tree.FlatForest
	objective string
	workers   int
	blockRows int
}

// PredictorOptions configures NewPredictor.
type PredictorOptions struct {
	// Workers bounds the goroutines used per batch-prediction call
	// (default GOMAXPROCS).
	Workers int
	// BlockRows is the instance-block size PredictRows scores in: every
	// batch, one row included, goes through the one blocked kernel, which
	// descends each tree over a whole block of rows at a time
	// (bit-identical margins to the pointer walk). It is clamped to the
	// compiled block size, tree.DefaultBlockRows unless the forest routes
	// on very many features; 0 selects that size. Predict over a dataset
	// uses the compiled size.
	BlockRows int
}

// NewPredictor compiles the model's forest into the flat inference engine.
// The compiled forest is shared with the model's own Predict path, so
// building a Predictor for a model that is also evaluated in-process costs
// nothing extra.
func NewPredictor(m *Model, opts PredictorOptions) (*Predictor, error) {
	flat := m.flatForest()
	if err := flat.Validate(); err != nil {
		return nil, fmt.Errorf("gbdt: compile predictor: %w", err)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	blockRows := opts.BlockRows
	if blockRows <= 0 {
		blockRows = tree.DefaultBlockRows
	}
	return &Predictor{
		flat:      flat,
		objective: m.forest.Objective,
		workers:   workers,
		blockRows: blockRows,
	}, nil
}

// NumClass returns the per-row score dimensionality (1 for regression and
// binary models, C for multi-class).
func (p *Predictor) NumClass() int { return p.flat.NumClass() }

// NumTrees returns the number of compiled trees.
func (p *Predictor) NumTrees() int { return p.flat.NumTrees() }

// Objective returns the model's training objective ("square", "logistic"
// or "softmax").
func (p *Predictor) Objective() string { return p.objective }

// PredictRow returns raw scores (margins) for one sparse row, given as
// parallel feature-id/value slices sorted by feature id.
func (p *Predictor) PredictRow(feat []uint32, val []float32) []float64 {
	return p.flat.PredictRow(feat, val)
}

// PredictRowInto is PredictRow without the allocation; out must have
// length NumClass.
func (p *Predictor) PredictRowInto(feat []uint32, val []float32, out []float64) {
	p.flat.PredictRowInto(feat, val, out)
}

// Predict returns raw scores for every instance of ds, row-major with
// stride NumClass, scored in parallel by the predictor's worker pool
// through the blocked batch kernel.
func (p *Predictor) Predict(ds *Dataset) []float64 {
	return p.flat.PredictCSR(ds.X, p.workers)
}

// predictRowsChunk is the number of rows one parallel work unit claims.
const predictRowsChunk = 64

// PredictRows scores a batch of independent sparse rows (parallel
// feature-id/value slices per row, each sorted by feature id) with the
// predictor's worker pool, returning margins row-major with stride
// NumClass. This is the batch path behind cmd/veroserve. With one worker,
// or a batch of one chunk, the whole batch is one blocked call on the
// calling goroutine.
func (p *Predictor) PredictRows(feats [][]uint32, vals [][]float32) []float64 {
	n := len(feats)
	k := p.flat.NumClass()
	out := make([]float64, n*k)
	chunk := max(predictRowsChunk, p.blockRows)
	if p.workers <= 1 || n <= chunk {
		p.flat.PredictBlock(feats, vals, out, p.blockRows)
		return out
	}
	sparse.Parallel((n+chunk-1)/chunk, p.workers, func(i int) {
		lo, hi := i*chunk, min((i+1)*chunk, n)
		p.flat.PredictBlock(feats[lo:hi], vals[lo:hi], out[lo*k:hi*k], p.blockRows)
	})
	return out
}

// Probabilities converts raw scores (as returned by Predict or PredictRow,
// row-major with stride NumClass) into per-row probabilities: sigmoid for
// logistic models, softmax for multi-class. For regression models the
// scores are returned unchanged.
func (p *Predictor) Probabilities(scores []float64) []float64 {
	k := p.flat.NumClass()
	out := make([]float64, len(scores))
	switch {
	case p.objective == "softmax" && k > 1:
		for i := 0; i+k <= len(scores); i += k {
			softmaxInto(scores[i:i+k], out[i:i+k])
		}
	case p.objective == "logistic":
		for i, s := range scores {
			out[i] = 1 / (1 + math.Exp(-s))
		}
	default:
		copy(out, scores)
	}
	return out
}

// softmaxInto writes the numerically-stable softmax of row into out.
func softmaxInto(row, out []float64) {
	max := row[0]
	for _, v := range row[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range row {
		e := math.Exp(v - max)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}
