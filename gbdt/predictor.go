package gbdt

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"vero/internal/tree"
)

// Predictor is the serving-side inference engine: a Model compiled into a
// flattened, cache-friendly forest plus a bounded goroutine pool for batch
// scoring. A Predictor is immutable and safe for concurrent use; build one
// per loaded model and share it across request handlers.
type Predictor struct {
	flat      *tree.FlatForest
	binned    *tree.BinnedForest // non-nil when binned inference is on
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
	// uses the compiled size unless Binned is set.
	BlockRows int
	// Binned selects bin-code descent: incoming values are quantized to
	// uint8/uint16 bin indices against the model's candidate splits and
	// every node comparison is an integer compare — bit-identical margins
	// with a smaller node image. Requires a model carrying its candidate
	// splits (Model.HasBins); NewPredictor fails otherwise.
	Binned bool
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
	p := &Predictor{
		flat:      flat,
		objective: m.forest.Objective,
		workers:   workers,
		blockRows: blockRows,
	}
	if opts.Binned {
		binned, err := flat.CompileBinned(m.forest.Splits)
		if err != nil {
			return nil, fmt.Errorf("gbdt: compile binned predictor: %w", err)
		}
		p.binned = binned
	}
	return p, nil
}

// Binned reports whether the predictor scores through bin-code descent.
func (p *Predictor) Binned() bool { return p.binned != nil }

// CodeBits returns the binned engine's code width in bits (8 or 16), or 0
// when binned inference is off.
func (p *Predictor) CodeBits() int {
	if p.binned == nil {
		return 0
	}
	return p.binned.CodeBits()
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
	if p.binned != nil {
		return p.binned.PredictRow(feat, val)
	}
	return p.flat.PredictRow(feat, val)
}

// PredictRowInto is PredictRow without the allocation; out must have
// length NumClass.
func (p *Predictor) PredictRowInto(feat []uint32, val []float32, out []float64) {
	if p.binned != nil {
		p.binned.PredictRowInto(feat, val, out)
		return
	}
	p.flat.PredictRowInto(feat, val, out)
}

// Predict returns raw scores for every instance of ds, row-major with
// stride NumClass, scored in parallel by the predictor's worker pool
// through the blocked batch kernel.
func (p *Predictor) Predict(ds *Dataset) []float64 {
	if p.binned != nil {
		return p.binned.PredictCSRBlocked(ds.X, p.workers, p.blockRows)
	}
	return p.flat.PredictCSR(ds.X, p.workers)
}

// predictRowsChunk is the number of rows one parallel work unit claims.
const predictRowsChunk = 64

// PredictRows scores a batch of independent sparse rows (parallel
// feature-id/value slices per row, each sorted by feature id) with the
// predictor's worker pool, returning margins row-major with stride
// NumClass. This is the batch path behind cmd/veroserve.
func (p *Predictor) PredictRows(feats [][]uint32, vals [][]float32) []float64 {
	n := len(feats)
	k := p.flat.NumClass()
	out := make([]float64, n*k)
	chunk := predictRowsChunk
	if p.blockRows > chunk {
		chunk = p.blockRows
	}
	workers := p.workers
	if max := (n + chunk - 1) / chunk; workers > max {
		workers = max
	}
	if workers <= 1 {
		p.scoreChunk(feats, vals, out, 0, n)
		return out
	}
	next := make(chan int)
	go func() {
		for lo := 0; lo < n; lo += chunk {
			next <- lo
		}
		close(next)
	}()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for lo := range next {
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				p.scoreChunk(feats, vals, out, lo, hi)
			}
		}()
	}
	wg.Wait()
	return out
}

// scoreChunk scores rows [lo, hi) on the calling goroutine through the
// blocked kernel.
func (p *Predictor) scoreChunk(feats [][]uint32, vals [][]float32, out []float64, lo, hi int) {
	k := p.flat.NumClass()
	if p.binned != nil {
		p.binned.PredictBlock(feats[lo:hi], vals[lo:hi], out[lo*k:hi*k], p.blockRows)
		return
	}
	p.flat.PredictBlock(feats[lo:hi], vals[lo:hi], out[lo*k:hi*k], p.blockRows)
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
