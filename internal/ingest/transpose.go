package ingest

import (
	"sort"
	"sync"
	"sync/atomic"

	"vero/internal/sparse"
)

// columns is a matrix in column-major form, every column in global row
// order: the one transposition a cold ingest makes, read by the column
// pass and written as the image's instance section.
type columns struct {
	// colPtr has one entry per column plus one; column f occupies
	// [colPtr[f], colPtr[f+1]) of inst and val.
	colPtr []int64
	inst   []uint32
	val    []float32
}

// numCols returns the number of columns.
func (c *columns) numCols() int { return len(c.colPtr) - 1 }

// col returns column f's values, in row order.
func (c *columns) col(f int) []float32 { return c.val[c.colPtr[f]:c.colPtr[f+1]] }

// rowRun is a run of consecutive rows of a row-major matrix: row start+i
// holds feat[rowPtr[i]:rowPtr[i+1]] and the matching entries of val. A
// parsed block is one run; a slice of a CSR's rows is another.
type rowRun struct {
	start  int
	rowPtr []int64
	feat   []uint32
	val    []float32
}

func (r rowRun) nnz() int64 { return r.rowPtr[len(r.rowPtr)-1] - r.rowPtr[0] }

// csrRuns cuts x into up to n runs of consecutive rows of about equal nnz.
func csrRuns(x *sparse.CSR, n int) []rowRun {
	runs := make([]rowRun, 0, n)
	lo := 0
	for i := 1; i <= n && lo < x.Rows(); i++ {
		hi := x.Rows()
		if i < n {
			target := int64(x.NNZ()) * int64(i) / int64(n)
			hi = lo + sort.Search(x.Rows()-lo, func(k int) bool { return x.RowPtr[lo+k] >= target })
		}
		if hi > lo {
			runs = append(runs, rowRun{start: lo, rowPtr: x.RowPtr[lo : hi+1], feat: x.Feat, val: x.Val})
		}
		lo = hi
	}
	return runs
}

// transpose builds the column-major form of the matrix with cols columns
// whose rows the runs hold, in order, on up to workers goroutines.
//
// The runs are dealt in contiguous groups of about equal nnz. Each group
// counts its entries per column; per column, the counts' prefix sums in
// group order place every group's entries after those of the groups
// before it, so when the groups then scatter in parallel, every column
// holds its entries in global row order, whatever the dealing. The
// bookkeeping is one uint32 per column per group: it grows with the
// workers, not with the runs.
func transpose(runs []rowRun, cols, workers int) *columns {
	groups := dealRuns(runs, workers)
	pos := make([][]uint32, len(groups))
	parallel(len(groups), len(groups), func(g int) {
		cnt := make([]uint32, cols)
		for _, r := range groups[g] {
			for _, f := range r.feat[r.rowPtr[0]:r.rowPtr[len(r.rowPtr)-1]] {
				cnt[f]++
			}
		}
		pos[g] = cnt
	})
	colPtr := make([]int64, cols+1)
	for f := 0; f < cols; f++ {
		n := uint32(0)
		for _, p := range pos {
			p[f], n = n, n+p[f]
		}
		colPtr[f+1] = colPtr[f] + int64(n)
	}
	nnz := colPtr[cols]
	c := &columns{colPtr: colPtr, inst: make([]uint32, nnz), val: make([]float32, nnz)}
	parallel(len(groups), len(groups), func(g int) {
		next := pos[g]
		for _, r := range groups[g] {
			for i := 0; i+1 < len(r.rowPtr); i++ {
				row := uint32(r.start + i)
				for k := r.rowPtr[i]; k < r.rowPtr[i+1]; k++ {
					f := r.feat[k]
					p := colPtr[f] + int64(next[f])
					next[f]++
					c.inst[p] = row
					c.val[p] = r.val[k]
				}
			}
		}
	})
	return c
}

// transposeCSR is transpose over x's rows.
func transposeCSR(x *sparse.CSR, workers int) *columns {
	return transpose(csrRuns(x, workers), x.Cols(), workers)
}

// dealRuns splits runs into up to n contiguous groups of about equal nnz.
func dealRuns(runs []rowRun, n int) [][]rowRun {
	var total int64
	for _, r := range runs {
		total += r.nnz()
	}
	groups := make([][]rowRun, 0, n)
	var seen int64
	g, lo := 0, 0
	for i, r := range runs {
		// A run joins the group its middle entry falls in.
		if total > 0 {
			if w := min(int((2*seen+r.nnz())*int64(n)/(2*total)), n-1); w > g {
				groups, g, lo = append(groups, runs[lo:i]), w, i
			}
		}
		seen += r.nnz()
	}
	return append(groups, runs[lo:])
}

// parallel runs fn(i) for every i in [0, n) on up to workers goroutines
// and returns when all calls have returned.
func parallel(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}
