package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"vero/internal/bitmap"
	"vero/internal/datasets"
	"vero/internal/histogram"
	"vero/internal/sparse"
)

// Column access for every engine, and what only an out-of-core run has.
//
// The column-store quadrants (QD1, QD3) read their columns through a
// colStream whether the columns are a materialized sparse.BinnedCSC
// (memColumns: zero-copy, one chunk per range, never an error) or the
// mapped .vbin image of a datasets.BlockSource (chunked reads into
// per-worker scratch): one histogram pass and one placement pass serve
// both. Still streamed-only, all for the row-store quadrants (QD2, QD4)
// over the mapped image — which is column-major, so no row store exists
// to scan: blockScan builds a layer's histograms from the column segments
// of one row block at a time, and colStream.place splits a node by merging
// its ascending instance list against the split column. Resident scratch
// is bounded by Config.MemBudget.
//
// The invariant every chunked or mapped path preserves is bit-identity
// with the materialized engines: chunking a sequential scan never reorders
// the additions flowing into any single accumulator, a histogram cell
// (node, feature, bin) receives its additions in ascending instance order
// whether the node's rows or the feature's column drive the scan, and
// aggregation inputs and reduction order are unchanged — so the trained
// forest's encoded bytes match the in-memory run for any block size.

// defaultMemBudget bounds resident streaming scratch when Config.MemBudget
// is unset.
const defaultMemBudget int64 = 64 << 20

// minDerivedChunk floors the derived column-chunk size so a tiny budget
// cannot degrade scans to per-entry reads; explicit Config.BlockNNZ
// overrides may go all the way down to one entry (the block-boundary
// tests do).
const minDerivedChunk = 256

// maxBlockRows caps the derived row-block size. The budget would allow
// far more 2-byte slots, but a block's columns all route through the same
// rows' slots and gradients, and those stay cache-resident only for a
// bounded block: on the 200k x 100 benchmark image 16Ki-row blocks train
// ~8 % faster than one whole-range block and ~20 % faster than 2Ki-row
// ones (per-block column searches).
const maxBlockRows = 1 << 14

// streamSizes is the per-worker scratch sizing of an out-of-core run.
type streamSizes struct {
	chunk     int   // entries per column-chunk read
	blockRows int   // rows per histogram row block
	perWorker int64 // budget share charged to a worker's data gauge
}

// sizeStream derives the streaming scratch sizes from the configuration;
// explicit BlockNNZ/BlockRows override the derived sizes (tests use them
// to pin block-boundary edge cases).
func sizeStream(w int, cfg Config) streamSizes {
	budget := cfg.MemBudget
	if budget <= 0 {
		budget = defaultMemBudget
	}
	// A column-chunk entry costs 6 bytes of scratch (uint32 instance +
	// uint16 bin); a quarter of the budget serves the column chunks. A row
	// block costs one 2-byte build-node slot per row (blockScan.slot): up
	// to another quarter, though maxBlockRows keeps it to 32 KiB a worker
	// in practice. The rest is headroom for histograms and trainer state,
	// so whole-run peak heap stays under the budget rather than matching
	// it.
	s := streamSizes{
		chunk:     max(int(budget/4/int64(w)/6), minDerivedChunk),
		blockRows: max(int(min(budget/4/int64(w)/2, maxBlockRows)), 1),
		perWorker: budget / int64(w),
	}
	if cfg.BlockNNZ > 0 {
		s.chunk = cfg.BlockNNZ
	}
	if cfg.BlockRows > 0 {
		s.blockRows = cfg.BlockRows
	}
	return s
}

// readErr latches the first block-read failure of a run. Read failures
// are sticky: the failing scan stops, and the trainer aborts the run at
// the next tree boundary with a descriptive error instead of crashing
// mid-scan.
type readErr struct{ err atomic.Pointer[error] }

// fail records the first error; later ones are dropped.
func (r *readErr) fail(err error) { r.err.CompareAndSwap(nil, &err) }

// get returns the latched error, if any.
func (r *readErr) get() error {
	if p := r.err.Load(); p != nil {
		return *p
	}
	return nil
}

// memColumns serves a materialized binned column matrix through the
// datasets.BlockSource methods: Entries is a zero-copy subslice that
// ignores the scratch, and nothing ever fails.
type memColumns struct{ m *sparse.BinnedCSC }

func (c memColumns) Rows() int  { return c.m.Rows() }
func (c memColumns) Cols() int  { return c.m.Cols() }
func (c memColumns) NNZ() int64 { return int64(c.m.NNZ()) }

func (c memColumns) ColRange(col int) (lo, hi int64) { return c.m.ColPtr[col], c.m.ColPtr[col+1] }

func (c memColumns) Entries(lo, hi int64, _ []uint32, _ []uint16) ([]uint32, []uint16, error) {
	return c.m.Inst[lo:hi], c.m.Bin[lo:hi], nil
}

func (c memColumns) SearchInst(lo, hi int64, inst uint32) (int64, error) {
	pos, _ := slices.BinarySearch(c.m.Inst[lo:hi], inst)
	return lo + int64(pos), nil
}

func (c memColumns) LookupInst(lo, hi int64, inst uint32) (uint16, bool, error) {
	pos, ok := slices.BinarySearch(c.m.Inst[lo:hi], inst)
	if !ok {
		return 0, false, nil
	}
	return c.m.Bin[lo+int64(pos)], true, nil
}

// Fingerprint is empty: a materialized dataset is fingerprinted from its
// matrix (datasetFingerprint), never through this view.
func (c memColumns) Fingerprint() string { return "" }

// colStream is one worker's reader over a column store: which source
// column sits behind each of the worker's feature slots, the source rows
// the worker covers, and — for a mapped source — the scratch one chunk of
// entries is read into.
type colStream struct {
	src          datasets.BlockSource
	cols         []int // feature slot -> source column
	rowLo, rowHi int   // source rows covered
	chunk        int   // entries per read
	inst         []uint32
	bins         []uint16
	errs         *readErr
}

// mappedColumns returns a reader over the out-of-core dataset's block
// source for one worker's columns and rows, with its own chunk scratch.
func (t *trainer) mappedColumns(cols []int, rowLo, rowHi int) *colStream {
	return &colStream{
		src: t.ds.Blocks, cols: cols, rowLo: rowLo, rowHi: rowHi,
		chunk: t.sizes.chunk,
		inst:  make([]uint32, t.sizes.chunk),
		bins:  make([]uint16, t.sizes.chunk),
		errs:  &t.reads,
	}
}

// openColumns returns worker w's reader over its column store and sets the
// worker's data gauge: out-of-core, the mapped image restricted to the
// given source columns and rows; otherwise the matrix build materializes
// for the worker, read whole. This is the one place the column-store
// quadrants learn where their columns live.
func (t *trainer) openColumns(w int, cols []int, rowLo, rowHi int, build func() (*sparse.BinnedCSC, error)) (*colStream, error) {
	gauge := t.cl.Stats().Mem("data")
	if t.ds.OutOfCore() {
		gauge.Set(w, t.sizes.perWorker)
		return t.mappedColumns(cols, rowLo, rowHi), nil
	}
	m, err := build()
	if err != nil {
		return nil, err
	}
	gauge.Set(w, binnedCSCBytes(m))
	return &colStream{
		src: memColumns{m}, cols: allFeatures(m.Cols()), rowHi: m.Rows(),
		chunk: math.MaxInt, errs: &t.reads,
	}, nil
}

// failed reports whether a read failure was latched.
func (s *colStream) failed() bool { return s.errs.get() != nil }

// scan streams the entry range [lo, hi) through fn in chunks. When rebase
// is nonzero the instance ids are copied into scratch and shifted down by
// rebase (the horizontal quadrants index per-shard state with shard-local
// ids; the mapped view is read-only, so rebasing must not touch zero-copy
// slices). Returns false after recording a read failure.
func (s *colStream) scan(lo, hi int64, rebase int, fn func(insts []uint32, bins []uint16)) bool {
	for lo < hi {
		n := min(hi-lo, int64(s.chunk))
		ri, rb, err := s.src.Entries(lo, lo+n, s.inst, s.bins)
		if err != nil {
			s.errs.fail(err)
			return false
		}
		if rebase != 0 && len(ri) > 0 {
			buf := s.inst[:len(ri)]
			if &buf[0] != &ri[0] {
				copy(buf, ri)
			}
			for k := range buf {
				buf[k] -= uint32(rebase)
			}
			ri = buf
		}
		fn(ri, rb)
		lo += n
	}
	return true
}

// search wraps SearchInst with sticky error recording; on failure it
// returns hi (an empty residual range).
func (s *colStream) search(lo, hi int64, inst uint32) int64 {
	pos, err := s.src.SearchInst(lo, hi, inst)
	if err != nil {
		s.errs.fail(err)
		return hi
	}
	return pos
}

// colRange returns the entry range of feature slot's column restricted to
// the worker's rows; empty after a read failure.
func (s *colStream) colRange(slot int) (int64, int64) {
	lo, hi, err := datasets.RowSpan(s.src, s.cols[slot], s.rowLo, s.rowHi)
	if err != nil {
		s.errs.fail(err)
	}
	return lo, hi
}

// lookup probes [lo, hi) — a range within one column — for source
// instance inst. On a read failure it reports the instance missing; the
// sticky error aborts the run at the tree boundary, so the garbage
// placement is never observed in a result.
func (s *colStream) lookup(lo, hi int64, inst uint32) (uint16, bool) {
	bin, found, err := s.src.LookupInst(lo, hi, inst)
	if err != nil {
		s.errs.fail(err)
		return 0, false
	}
	return bin, found
}

// probesCheaper is the paper's hybrid cost test (Section 5.2.2): one
// binary search per node instance beats a linear pass over colLen column
// entries when colLen > |node|·(⌈log₂ colLen⌉+1).
func probesCheaper(colLen, nodeLen int) bool {
	return colLen > nodeLen*(bits.Len(uint(colLen))+1)
}

// initStream validates the out-of-core configuration and sizes the
// streaming scratch. Called by prepare before the engine is constructed.
func (t *trainer) initStream() error {
	if !t.ds.OutOfCore() {
		return nil
	}
	if t.ds.Prebin == nil || !t.ds.Prebin.Quantized {
		return fmt.Errorf("core: out-of-core training requires a binned cache view with its prebin (map a .vbin cache)")
	}
	t.sizes = sizeStream(t.w, t.cfg)
	return nil
}

// maxBlockSlots is how many build nodes one blockScan pass can route: a
// slot is a uint16 with 0 reserved for "no build node".
const maxBlockSlots = 1<<16 - 1

// blockScan is the rowStore of a streamed row-store quadrant (QD2, QD4).
// It builds a layer's histograms in one forward pass over the worker's
// columns: per-column cursors advance through the worker's row range one
// row block at a time, the block's rows are marked with the slot of the
// build node they sit on, and each column's segment inside the block
// streams through histogram.ColumnScanBlock. Only the cursors and the
// 2-byte-per-row slot array are resident.
type blockScan struct {
	s         *colStream
	blockRows int

	cur, end []int64  // per-column cursor / end of the restricted range
	slot     []uint16 // block-local: 1 + build-node index of each row, 0 = none
}

// newBlockScan prepares a scan over the reader's columns and rows.
func newBlockScan(s *colStream, blockRows int) *blockScan {
	return &blockScan{
		s: s, blockRows: blockRows,
		cur:  make([]int64, len(s.cols)),
		end:  make([]int64, len(s.cols)),
		slot: make([]uint16, min(blockRows, s.rowHi-s.rowLo)),
	}
}

// build implements rowStore. It stops early after a read failure (latched
// on the reader).
func (b *blockScan) build(hs []*histogram.Hist, lists [][]uint32, grad, hess []float64) {
	for lo := 0; lo < len(hs); lo += maxBlockSlots {
		hi := min(lo+maxBlockSlots, len(hs))
		b.pass(hs[lo:hi], lists[lo:hi], grad, hess)
	}
}

// pass is build for at most maxBlockSlots nodes.
func (b *blockScan) pass(hs []*histogram.Hist, lists [][]uint32, grad, hess []float64) {
	s := b.s
	for i := range s.cols {
		b.cur[i], b.end[i] = s.colRange(i)
	}
	pos := make([]int, len(lists))
	for start := s.rowLo; start < s.rowHi; start += b.blockRows {
		end := min(start+b.blockRows, s.rowHi)
		slot := b.slot[:end-start]
		clear(slot)
		for i, list := range lists {
			k := pos[i]
			for ; k < len(list) && s.rowLo+int(list[k]) < end; k++ {
				slot[s.rowLo+int(list[k])-start] = uint16(i + 1)
			}
			pos[i] = k
		}
		for i := range s.cols {
			segEnd := b.end[i]
			if end < s.rowHi {
				segEnd = s.search(b.cur[i], b.end[i], uint32(end))
			}
			if s.failed() {
				return
			}
			if !s.scan(b.cur[i], segEnd, 0, func(insts []uint32, bins []uint16) {
				histogram.ColumnScanBlock(hs, i, insts, bins, start, slot, grad, hess)
			}) {
				return
			}
			b.cur[i] = segEnd
		}
	}
}

// place implements rowStore from the mapped split column, whose source
// column is the split's global feature id. Instance list and column are
// both ascending, so placement is a two-pointer merge over the column
// range the list spans; where probesCheaper says so, each instance is
// probed instead. On a read failure the remaining instances keep the
// default direction; the sticky error aborts the run at the tree boundary,
// so the garbage placement is never observed.
func (b *blockScan) place(sp histogram.Split, insts []uint32, bm *bitmap.Bitmap) {
	s, base := b.s, uint32(b.s.rowLo)
	for _, inst := range insts {
		bm.SetTo(int(inst), sp.DefaultLeft)
	}
	if len(insts) == 0 {
		return
	}
	lo, hi := s.src.ColRange(sp.Feature)
	lo = s.search(lo, hi, base+insts[0])
	hi = s.search(lo, hi, base+insts[len(insts)-1]+1)
	if s.failed() {
		return
	}
	if probesCheaper(int(hi-lo), len(insts)) {
		for _, inst := range insts {
			if bin, ok := s.lookup(lo, hi, base+inst); ok {
				bm.SetTo(int(inst), int(bin) <= sp.Bin)
			}
		}
		return
	}
	k := 0
	s.scan(lo, hi, 0, func(colInsts []uint32, bins []uint16) {
		for j, ci := range colInsts {
			inst := ci - base
			for k < len(insts) && insts[k] < inst {
				k++
			}
			if k < len(insts) && insts[k] == inst {
				bm.SetTo(int(inst), int(bins[j]) <= sp.Bin)
			}
		}
	})
}

// allFeatures returns [0..d): the identity slot-to-column map of a store
// holding exactly the worker's columns.
func allFeatures(d int) []int {
	cols := make([]int, d)
	for f := range cols {
		cols[f] = f
	}
	return cols
}
