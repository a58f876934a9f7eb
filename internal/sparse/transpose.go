package sparse

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Payload is what a transposition carries per entry: a raw value or a bin.
type Payload interface{ float32 | uint16 }

// RowRun is a run of consecutive rows of a row-major matrix: row Start+i
// holds Feat[RowPtr[i]:RowPtr[i+1]] and the matching entries of Val. A
// parsed block is one run; a slice of a CSR's rows is another.
type RowRun[T Payload] struct {
	Start  int
	RowPtr []int64
	Feat   []uint32
	Val    []T
}

func (r RowRun[T]) nnz() int64 { return r.RowPtr[len(r.RowPtr)-1] - r.RowPtr[0] }

// csrRuns cuts the rows of a row-major matrix into up to n runs of
// consecutive rows of about equal nnz.
func csrRuns[T Payload](rowPtr []int64, feat []uint32, val []T, n int) []RowRun[T] {
	rows := len(rowPtr) - 1
	runs := make([]RowRun[T], 0, n)
	lo := 0
	for i := 1; i <= n && lo < rows; i++ {
		hi := rows
		if i < n {
			target := int64(len(feat)) * int64(i) / int64(n)
			hi = lo + sort.Search(rows-lo, func(k int) bool { return rowPtr[lo+k] >= target })
		}
		if hi > lo {
			runs = append(runs, RowRun[T]{Start: lo, RowPtr: rowPtr[lo : hi+1], Feat: feat, Val: val})
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
func transpose[T Payload](runs []RowRun[T], cols, workers int) (colPtr []int64, inst []uint32, val []T) {
	groups := dealRuns(runs, workers)
	pos := make([][]uint32, len(groups))
	Parallel(len(groups), len(groups), func(g int) {
		cnt := make([]uint32, cols)
		for _, r := range groups[g] {
			for _, f := range r.Feat[r.RowPtr[0]:r.RowPtr[len(r.RowPtr)-1]] {
				cnt[f]++
			}
		}
		pos[g] = cnt
	})
	colPtr = make([]int64, cols+1)
	for f := 0; f < cols; f++ {
		n := uint32(0)
		for _, p := range pos {
			p[f], n = n, n+p[f]
		}
		colPtr[f+1] = colPtr[f] + int64(n)
	}
	nnz := colPtr[cols]
	inst, val = make([]uint32, nnz), make([]T, nnz)
	Parallel(len(groups), len(groups), func(g int) {
		next := pos[g]
		for _, r := range groups[g] {
			for i := 0; i+1 < len(r.RowPtr); i++ {
				row := uint32(r.Start + i)
				for k := r.RowPtr[i]; k < r.RowPtr[i+1]; k++ {
					f := r.Feat[k]
					p := colPtr[f] + int64(next[f])
					next[f]++
					inst[p] = row
					val[p] = r.Val[k]
				}
			}
		}
	})
	return colPtr, inst, val
}

// dealRuns splits runs into up to n contiguous groups of about equal nnz.
func dealRuns[T Payload](runs []RowRun[T], n int) [][]RowRun[T] {
	var total int64
	for _, r := range runs {
		total += r.nnz()
	}
	groups := make([][]RowRun[T], 0, n)
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

// TransposeRuns returns the CSC of the rows×cols matrix whose rows the
// runs hold, in order, transposed on up to workers goroutines.
func TransposeRuns(runs []RowRun[float32], rows, cols, workers int) *CSC {
	colPtr, inst, val := transpose(runs, cols, workers)
	return &CSC{rows: rows, cols: cols, ColPtr: colPtr, Inst: inst, Val: val}
}

// TransposeCSR returns the CSC of m, transposed on up to workers
// goroutines.
func TransposeCSR(m *CSR, workers int) *CSC {
	return TransposeRuns(csrRuns(m.RowPtr, m.Feat, m.Val, workers), m.rows, m.cols, workers)
}

// ToCSC transposes a BinnedCSR into BinnedCSC form, O(nnz), on the
// calling goroutine: its callers run inside a cluster's Parallel bodies,
// whose busy time is the simulated computation.
func (m *BinnedCSR) ToCSC() *BinnedCSC {
	colPtr, inst, bin := transpose(csrRuns(m.RowPtr, m.Feat, m.Bin, 1), m.cols, 1)
	return &BinnedCSC{rows: m.rows, cols: m.cols, ColPtr: colPtr, Inst: inst, Bin: bin}
}

// Parallel runs fn(i) for every i in [0, n) on up to workers goroutines
// and returns when all calls have returned. With one worker it runs them
// on the calling goroutine.
func Parallel(n, workers int, fn func(i int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
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

// EachColumn runs fn once for every column of colPtr on up to workers
// goroutines, dealt in contiguous runs of about equal nnz (sketching and
// binning a column cost time linear in its entries), and returns when all
// have finished. What fn writes per column cannot depend on the dealing.
func EachColumn(colPtr []int64, workers int, fn func(f int)) {
	cols := len(colPtr) - 1
	workers = min(workers, cols)
	bounds := make([]int, workers+1)
	bounds[workers] = cols
	for w := 1; w < workers; w++ {
		target := colPtr[cols] * int64(w) / int64(workers)
		bounds[w] = max(bounds[w-1], sort.Search(cols, func(f int) bool { return colPtr[f] >= target }))
	}
	Parallel(workers, workers, func(w int) {
		for f := bounds[w]; f < bounds[w+1]; f++ {
			fn(f)
		}
	})
}
