package ingest

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"

	"vero/internal/datasets"
	"vero/internal/sketch"
	"vero/internal/sparse"
)

// collector keeps parsed blocks in file order and concatenates them
// once, at exact size, when the scan is done.
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

// dataset concatenates the collected blocks into a Dataset named name.
func (c *collector) dataset(name string, numClass int) (*datasets.Dataset, error) {
	cols := c.cols
	if c.rows == 0 {
		cols = 0
	} else if cols == 0 {
		// Rows but no stored entries: the reference parser derives cols as
		// maxFeat+1 with maxFeat starting at zero, so feature 0 exists.
		cols = 1
	}
	// Grow leaves an empty matrix's arrays nil, as the reference parser does.
	labels, feat, val := slices.Grow([]float32(nil), c.rows), slices.Grow([]uint32(nil), c.nnz), slices.Grow([]float32(nil), c.nnz)
	rowPtr := make([]int64, 1, c.rows+1)
	for i, b := range c.blocks {
		base := int64(len(feat))
		for _, p := range b.RowPtr[1:] {
			rowPtr = append(rowPtr, base+p)
		}
		feat = append(feat, b.Feat...)
		val = append(val, b.Val...)
		labels = append(labels, b.Labels...)
		c.blocks[i] = nil
	}
	x, err := sparse.NewCSR(c.rows, cols, rowPtr, feat, val)
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

// eachColumn runs fn once for every column of colPtr on up to workers
// goroutines, dealt in contiguous runs of about equal nnz (sketching and
// binning a column cost time linear in its entries), and returns when all
// have finished. What fn writes per column cannot depend on the dealing.
func eachColumn(colPtr []int64, workers int, fn func(f int)) {
	cols := len(colPtr) - 1
	workers = min(workers, cols)
	var wg sync.WaitGroup
	lo := 0
	for w := 1; w <= workers; w++ {
		hi := cols
		if w < workers {
			target := colPtr[cols] * int64(w) / int64(workers)
			hi = max(lo, sort.Search(cols, func(f int) bool { return colPtr[f] >= target }))
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for f := lo; f < hi; f++ {
				fn(f)
			}
		}(lo, hi)
		lo = hi
	}
	wg.Wait()
}

// columnPass derives the prebin of a transposed matrix: per feature, GK
// over the column, then its candidate splits and count. A column of a CSC
// keeps global row order, which is sketch.Canonical's insertion order, and
// a sketch depends on no other feature, so the columns are sketched in
// parallel and the prebin equals the serial pass's bit for bit.
func columnPass(csc *sparse.CSC, opts Options) *datasets.Prebin {
	pb := &datasets.Prebin{
		SketchEps: opts.SketchEps,
		Q:         opts.Q,
		Splits:    make([][]float32, csc.Cols()),
		FeatCount: make([]int64, csc.Cols()),
	}
	eachColumn(csc.ColPtr, opts.Workers, func(f int) {
		_, vals := csc.Col(f)
		if sk := sketch.Column(vals, opts.SketchEps); sk != nil && sk.Count() > 0 {
			pb.Splits[f] = sk.CandidateSplits(opts.Q)
			pb.FeatCount[f] = sk.Count()
		}
	})
	return pb
}

// ReadDataset parses the input through the chunked parallel pipeline and
// returns the in-memory dataset, without deriving bins. The result is
// bit-identical to the single-threaded reference parser for LibSVM input
// (datasets.ReadLibSVM): same matrix, same labels.
func ReadDataset(r io.Reader, opts Options) (*datasets.Dataset, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	c := &collector{}
	if err := ScanBlocks(r, opts, c.add); err != nil {
		return nil, err
	}
	return c.dataset(string(opts.Format), opts.NumClass)
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
	ds.Prebin = columnPass(ds.X.ToCSC(), opts)
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
	return columnPass(ds.X.ToCSC(), Options{SketchEps: sketchEps, Q: q, Workers: runtime.GOMAXPROCS(0)})
}
