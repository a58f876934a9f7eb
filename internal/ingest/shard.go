package ingest

import (
	"fmt"
	"math"
	"runtime"
	"slices"

	"vero/internal/datasets"
	"vero/internal/partition"
	"vero/internal/sparse"
)

// shardChunk bounds the scratch of one shard-materialization read, so
// loading a shard never stages more than a fixed slice of the entry
// sections no matter how large the cache is.
const shardChunk = 32 << 10

// ReadCacheShard opens a .vbin cache and materializes only rank's shard
// of it: the rank's row range (ShardRows, horizontal quadrants) or its
// balanced feature group (ShardCols, vertical quadrants). The shard
// bounds derive deterministically from (rank, workers, kind) via
// partition.HorizontalRanges / partition.GroupColumnsBalanced, so every
// rank of a deployment carves the same image identically.
//
// The returned dataset keeps the global n×d shape — X holds entries only
// inside the shard, while labels and the quantized Prebin stay full (the
// objective's init score and every engine's split tables need them) — and
// carries a datasets.Shard describing the slice, including the global
// entry counts communication charges must be derived from. Reads go
// through the mapped view, so only the shard's pages (plus the metadata
// and a binary-search trail) are ever touched: a rank materializes
// O(nnz/W) entries of an image no single rank could hold.
func ReadCacheShard(path string, kind datasets.ShardKind, rank, workers int) (*datasets.Dataset, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("ingest: shard load: worker count %d", workers)
	}
	if rank < 0 || rank >= workers {
		return nil, fmt.Errorf("ingest: shard load: rank %d outside deployment of %d", rank, workers)
	}
	if kind != datasets.ShardRows && kind != datasets.ShardCols {
		return nil, fmt.Errorf("ingest: shard load: unknown shard kind %q", kind)
	}
	m, err := MapCacheFile(path)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return shardFromView(m, kind, rank, workers)
}

// shardFromView materializes the part of an open cache view that kind
// selects: rank's row range, its feature group, or — kind "" — the whole
// image, whose dataset carries no Shard. It is the one place .vbin columns
// are transposed into rows (see transposeView).
func shardFromView(m *MappedCache, kind datasets.ShardKind, rank, workers int) (*datasets.Dataset, error) {
	rows, cols := m.Rows(), m.Cols()
	sel := make([]int, cols)
	for j := range sel {
		sel[j] = j
	}
	rowLo, rowHi := 0, rows
	var shard *datasets.Shard
	if kind != "" {
		shard = &datasets.Shard{
			Kind:        kind,
			Rank:        rank,
			Workers:     workers,
			Fingerprint: m.Fingerprint(),
			GlobalNNZ:   m.NNZ(),
		}
	}
	switch kind {
	case datasets.ShardRows:
		r := partition.HorizontalRanges(rows, workers)[rank]
		rowLo, rowHi = r[0], r[1]
	case datasets.ShardCols:
		groups := partition.GroupColumnsBalanced(m.featCount, workers)
		sel = groups[rank]
		// GroupNNZ[src][dst]: entries in horizontal range src belonging to
		// feature group dst — the cell counts of the QD4 transformation,
		// derived from the column index alone so every rank computes the
		// identical volumes without touching remote shards.
		shard.GroupNNZ = make([][]int64, workers)
		for s, r := range partition.HorizontalRanges(rows, workers) {
			var err error
			if shard.GroupNNZ[s], err = partition.RangeGroupNNZ(m, r[0], r[1], groups); err != nil {
				return nil, err
			}
		}
	}
	x, err := transposeView(m, sel, rowLo, rowHi)
	if err != nil {
		return nil, err
	}
	ds := m.Dataset()
	ds.X = x
	ds.Blocks = nil
	ds.Shard = shard
	return ds, nil
}

// The warm transposition cuts the selected rows into blocks whose output
// fits in cache. A block holds about blockEntries entries, so its window
// of the output (feat and val, 8 bytes an entry, plus the rows' offsets)
// stays within a typical L2 cache, but never fewer than blockSweep entries
// per column of the image: every block steps each selected column's
// cursor once, and on wide images that sweep, not the cache, sets the
// block size.
const (
	blockEntries = 16 << 10
	blockSweep   = 32
)

// blockRows is the rows per block of the warm transposition for an image
// of the given shape.
func blockRows(rows, cols int, nnz int64) int {
	b := rows
	if nnz > 0 {
		target := max(float64(blockEntries), blockSweep*float64(cols))
		b = int(math.Ceil(target * float64(rows) / float64(nnz)))
	}
	return max(1, min(b, rows))
}

// transposeView transposes the entries of the columns sel (ascending) in
// rows [rowLo, rowHi) of m into a row-major CSR of m's full shape. Row i
// holds its selected entries in ascending feature order, each bin replaced
// by its representative splits[f][b] (NaN for a feature binned without
// splits, i.e. a NaN-only column).
//
// The rows are cut into blocks of blockRows rows, and runtime.GOMAXPROCS
// workers each own a contiguous run of blocks. A worker finds where its
// first row starts in every selected column once, then walks its blocks in
// order, and within a block the columns in order, advancing one cursor per
// column past the block's entries. The count pass tallies each row's
// entries straight into rowPtr; after its prefix sum, the fill pass repeats
// the walk and writes every entry at its row's cursor. A block's writes
// stay inside its window of the output, and the bookkeeping is two cursors
// per selected column per worker, never per block. Reads go through
// Entries with per-worker scratch, so the pread fallback runs the same
// code as the mapping. If several blocks fail, the error of the lowest one
// is returned; every worker has returned by then.
func transposeView(m *MappedCache, sel []int, rowLo, rowHi int) (*sparse.CSR, error) {
	rows := m.Rows()
	size := blockRows(rows, m.Cols(), m.NNZ())
	blocks := (rowHi - rowLo + size - 1) / size
	t := &viewTransposition{
		m: m, sel: sel, lo: rowLo, hi: rowHi, size: size,
		winScale: float64(size) / float64(max(rows, 1)),
		rowPtr:   make([]int64, rows+1),
	}
	w := min(runtime.GOMAXPROCS(0), blocks)
	ws := make([]blockWorker, w)
	errs := make([]error, w)
	run := func(pass func(*blockWorker) error) error {
		sparse.Parallel(w, w, func(i int) { errs[i] = pass(&ws[i]) })
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	for i := range ws {
		ws[i].first, ws[i].last = i*blocks/w, (i+1)*blocks/w
	}
	if err := run(t.count); err != nil {
		return nil, err
	}
	for i := 0; i < rows; i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}
	t.feat = make([]uint32, t.rowPtr[rows])
	t.val = make([]float32, t.rowPtr[rows])
	if err := run(t.fill); err != nil {
		return nil, err
	}
	x, err := sparse.NewCSR(rows, m.Cols(), t.rowPtr, t.feat, t.val)
	if err != nil {
		return nil, corruptf("%v", err)
	}
	return x, nil
}

// viewTransposition is one transposeView in flight.
type viewTransposition struct {
	m      *MappedCache
	sel    []int // selected columns, ascending
	lo, hi int   // selected rows
	size   int   // rows per block
	// winScale turns a column's entry count into its expected entries in
	// one block. A read takes that many plus two standard deviations, so
	// it rarely stops short of the block's end and the pread fallback
	// stages little beyond it.
	winScale float64

	rowPtr []int64
	feat   []uint32
	val    []float32
}

// blockWorker is one worker's run of blocks [first, last) and its state.
type blockWorker struct {
	first, last int
	// start[k] is the first entry of column sel[k] at or after the
	// worker's first row; cur[k] is the column's cursor during a pass.
	start, cur []int64
	instBuf    []uint32
	binBuf     []uint16
}

// count is the count pass: rowPtr[i+1] becomes row i's entry count.
func (t *viewTransposition) count(w *blockWorker) error {
	first := t.lo + w.first*t.size
	w.start = make([]int64, len(t.sel))
	w.cur = make([]int64, len(t.sel))
	w.instBuf = make([]uint32, min(t.size, shardChunk))
	w.binBuf = make([]uint16, min(t.size, shardChunk))
	for k, j := range t.sel {
		lo, hi := t.m.ColRange(j)
		if first > 0 {
			var err error
			if lo, err = t.m.SearchInst(lo, hi, uint32(first)); err != nil {
				return err
			}
		}
		w.start[k] = lo
	}
	return t.sweep(w, func(int, int) {}, func(_ int, insts []uint32, _ []uint16) error {
		rowPtr := t.rowPtr
		for _, i := range insts {
			rowPtr[i+1]++
		}
		return nil
	})
}

// fill is the fill pass: every entry is written at its row's cursor, the
// cursors of a block's rows kept in next.
func (t *viewTransposition) fill(w *blockWorker) error {
	next := make([]int64, t.size)
	var lo int
	begin := func(blo, bhi int) {
		lo = blo
		copy(next, t.rowPtr[blo:bhi])
	}
	return t.sweep(w, begin, func(k int, insts []uint32, bins []uint16) error {
		j, s := t.sel[k], t.m.splits[t.sel[k]]
		feat, val, next, lo := t.feat, t.val, next, lo
		bins = bins[:len(insts)]
		for e, i := range insts {
			r := int(i) - lo
			p := next[r]
			feat[p] = uint32(j)
			if b := bins[e]; int(b) < len(s) {
				val[p] = s[b]
			} else if len(s) == 0 && b == 0 {
				val[p] = float32(math.NaN())
			} else {
				return corruptf("bin %d of feature %d out of range (%d bins)", b, j, len(s))
			}
			next[r] = p + 1
		}
		return nil
	})
}

// sweep walks w's blocks in row order and, within a block, the selected
// columns in order, handing visit the entries of column sel[k] that lie in
// the block. begin runs first in every block, with the block's rows. The
// cursors start at w.start and end past the worker's last row.
func (t *viewTransposition) sweep(w *blockWorker, begin func(lo, hi int), visit func(k int, insts []uint32, bins []uint16) error) error {
	copy(w.cur, w.start)
	for b := w.first; b < w.last; b++ {
		lo := t.lo + b*t.size
		hi := min(lo+t.size, t.hi)
		begin(lo, hi)
		for k, j := range t.sel {
			colLo, colHi := t.m.ColRange(j)
			e := float64(float64(colHi-colLo) * t.winScale) // rounded: never a fused multiply-add
			n := min(int64(hi-lo), int64(e+2*math.Sqrt(e))+16, shardChunk)
			p := w.cur[k]
			for p < colHi {
				insts, bins, err := t.m.Entries(p, min(p+n, colHi), w.instBuf, w.binBuf)
				if err != nil {
					return err
				}
				// Instances ascend within a column: the block's come first.
				in := len(insts)
				if int(insts[in-1]) >= hi {
					in, _ = slices.BinarySearch(insts, uint32(hi))
				}
				if err := visit(k, insts[:in], bins[:in]); err != nil {
					return err
				}
				p += int64(in)
				if in < len(insts) {
					break
				}
			}
			w.cur[k] = p
		}
	}
	return nil
}
