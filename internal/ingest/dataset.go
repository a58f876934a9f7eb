package ingest

import (
	"fmt"
	"io"
	"os"
	"runtime"

	"vero/internal/datasets"
	"vero/internal/sketch"
	"vero/internal/sparse"
)

// collector keeps parsed blocks in file order until the scan is done.
type collector struct {
	blocks    []*Block
	rows, nnz int
	cols      int
}

func (c *collector) add(b *Block) error {
	c.blocks = append(c.blocks, b)
	c.rows += b.NumRows()
	c.nnz += len(b.Feat)
	c.cols = max(c.cols, b.Cols)
	return nil
}

// scan parses the input into a collector.
func scan(r io.Reader, opts Options) (*collector, error) {
	c := &collector{}
	if err := ScanBlocks(r, opts, c.add); err != nil {
		return nil, err
	}
	return c, nil
}

// numCols is the dataset's column count. With rows but no stored entries
// it is 1: the reference parser derives cols as maxFeat+1 with maxFeat
// starting at zero, so feature 0 exists.
func (c *collector) numCols() int {
	if c.rows == 0 {
		return 0
	}
	return max(c.cols, 1)
}

// transpose returns the CSC of the collected blocks, transposed on up to
// workers goroutines.
func (c *collector) transpose(workers int) *sparse.CSC {
	runs := make([]sparse.RowRun[float32], len(c.blocks))
	for i, b := range c.blocks {
		runs[i] = sparse.RowRun[float32]{Start: b.Start, RowPtr: b.RowPtr, Feat: b.Feat, Val: b.Val}
	}
	return sparse.TransposeRuns(runs, c.rows, c.numCols(), workers)
}

// labels concatenates the collected blocks' labels.
func (c *collector) labels() []float32 {
	labels := make([]float32, c.rows)
	for _, b := range c.blocks {
		copy(labels[b.Start:], b.Labels)
	}
	return labels
}

// dataset concatenates the collected blocks into a Dataset named name and
// releases them. Every block is copied to its prefix-sum offsets, the
// blocks dealt to workers goroutines.
func (c *collector) dataset(name string, numClass, workers int) (*datasets.Dataset, error) {
	// An empty matrix's arrays stay nil, as the reference parser's do.
	labels, feat, val := makeOrNil[float32](c.rows), makeOrNil[uint32](c.nnz), makeOrNil[float32](c.nnz)
	rowPtr := make([]int64, c.rows+1)
	base := make([]int64, len(c.blocks))
	for i := 1; i < len(c.blocks); i++ {
		base[i] = base[i-1] + int64(len(c.blocks[i-1].Feat))
	}
	sparse.Parallel(len(c.blocks), workers, func(i int) {
		b, at := c.blocks[i], base[i]
		copy(feat[at:], b.Feat)
		copy(val[at:], b.Val)
		copy(labels[b.Start:], b.Labels)
		for k, p := range b.RowPtr[1:] {
			rowPtr[b.Start+1+k] = at + p
		}
	})
	c.blocks = nil
	x, err := sparse.NewCSR(c.rows, c.numCols(), rowPtr, feat, val)
	if err != nil {
		return nil, fmt.Errorf("ingest: assemble: %w", err)
	}
	task := datasets.TaskRegression
	switch {
	case numClass == 2:
		task = datasets.TaskBinary
	case numClass > 2:
		task = datasets.TaskMulti
	}
	return &datasets.Dataset{Name: name, X: x, Labels: labels, NumClass: numClass, Task: task}, nil
}

// makeOrNil is make([]T, n), except that n == 0 gives nil.
func makeOrNil[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, n)
}

// prebin derives the prebin of a transposed matrix: sketch.Canonical's
// candidate splits and counts, the columns dealt to workers goroutines.
func prebin(c *sparse.CSC, eps float64, q, workers int) *datasets.Prebin {
	splits, count := sketch.Canonical(c, eps, q, workers)
	return &datasets.Prebin{SketchEps: eps, Q: q, Splits: splits, FeatCount: count}
}

// ReadDataset parses the input through the chunked parallel pipeline and
// returns the in-memory dataset, without deriving bins. It is the one
// LibSVM parser; FuzzIngestLibSVM holds it bit for bit (same matrix, same
// labels, same acceptance) to a single-threaded reference parser kept in
// the tests.
func ReadDataset(r io.Reader, opts Options) (*datasets.Dataset, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	c, err := scan(r, opts)
	if err != nil {
		return nil, err
	}
	return c.dataset(string(opts.Format), opts.NumClass, opts.Workers)
}

// Ingest parses the input and derives per-feature quantile sketches from
// it, returning a dataset with a Prebin attached: candidate splits
// identical to what the trainer's canonical sketch pass would derive with
// the same (SketchEps, Q). Training the result skips the sketch phase.
func Ingest(r io.Reader, opts Options) (*datasets.Dataset, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	ds, err := ReadDataset(r, opts)
	if err != nil {
		return nil, err
	}
	ds.Prebin = prebin(sparse.TransposeCSR(ds.X, opts.Workers), opts.SketchEps, opts.Q, opts.Workers)
	return ds, nil
}

// IngestFile is Ingest over a file.
func IngestFile(path string, opts Options) (*datasets.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	defer f.Close()
	return Ingest(f, opts)
}

// Prebinned derives a Prebin for an already-materialized dataset by the
// same canonical pass ingestion runs: one sketch per feature, values
// inserted in global row order. It is how datasets that never passed
// through a file (synthetic generators) get cached.
func Prebinned(ds *datasets.Dataset, sketchEps float64, q int) *datasets.Prebin {
	workers := runtime.GOMAXPROCS(0)
	return prebin(sparse.TransposeCSR(ds.X, workers), sketchEps, q, workers)
}
