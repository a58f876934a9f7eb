package core

import (
	"slices"

	"vero/internal/bitmap"
	"vero/internal/histogram"
	"vero/internal/partition"
	"vero/internal/sparse"
)

// rowStore is one worker's data in a row-store quadrant (QD2, QD4): how
// the histograms of a layer's build nodes are accumulated from the
// worker's rows, and how a splitting node's instances are placed. Instance
// ids and bit positions are relative to the worker's first row.
//
// The two kinds are different algorithms, not two copies of one: over a
// materialized row store (blockRows) a node's rows are scanned through
// histogram.RowScan and placed by placeSegment's lookup in each row — the
// paper's QD2/QD4 — while the column-major mapped image has no rows to
// scan and is served by blockScan. prepare picks by Dataset.OutOfCore.
type rowStore interface {
	// build accumulates hs[i] over the rows lists[i], ascending — the
	// node-to-instance index's order.
	build(hs []*histogram.Hist, lists [][]uint32, grad, hess []float64)
	// place writes the placement bit (set = left child) of every instance
	// of one splitting node.
	place(sp histogram.Split, insts []uint32, bm *bitmap.Bitmap)
}

// placeSegment is the row-store placement kernel: it places the instances
// insts — all inside one row segment (rowStart, rowPtr, feat, bin) of a
// blockRows block — by finding the split column col in each one's row
// (rows are sorted by feature); an absent value goes the default
// direction.
func placeSegment(insts []uint32, rowStart int, rowPtr []int64, feat []uint32, bin []uint16, col uint32, sp histogram.Split, bm *bitmap.Bitmap) {
	for _, inst := range insts {
		r := int(inst) - rowStart
		lo, hi := rowPtr[r], rowPtr[r+1]
		left := sp.DefaultLeft
		if b, ok := lookupBin(feat[lo:hi], bin[lo:hi], col); ok {
			left = int(b) <= sp.Bin
		}
		bm.SetTo(int(inst), left)
	}
}

// lookupBin binary-searches a sorted sparse row for a feature. The halving
// loop steps by a mask, not a branch on the comparison: where in a row the
// split feature falls is a coin flip to a branch predictor.
func lookupBin(feats []uint32, bins []uint16, f uint32) (uint16, bool) {
	base, n := 0, len(feats)
	if n == 0 {
		return 0, false
	}
	for n > 1 {
		half := n / 2
		var le int
		if feats[base+half] <= f {
			le = 1
		}
		base += half & -le
		n -= half
	}
	if feats[base] == f {
		return bins[base], true
	}
	return 0, false
}

// blockRows is a materialized row store: row blocks covering contiguous
// ascending ranges of the worker's rows, features addressed by slotOf
// (nil: the global feature id), the gradients of row r at base+r in the
// shared vectors. QD2's binned shard is one block with base its first row,
// QD4's transformation shard is its BlockSet's blocks, and the
// feature-parallel full copy is one block over all rows.
type blockRows struct {
	blocks []*partition.Block
	slotOf []int32
	base   int
}

// csrBlock views a binned CSR matrix as one block starting at row 0.
func csrBlock(m *sparse.BinnedCSR) []*partition.Block {
	return []*partition.Block{{RowPtr: m.RowPtr, Feat: m.Feat, Bin: m.Bin}}
}

// eachSegment cuts an ascending instance list at the block boundaries and
// hands every non-empty segment to fn with its block. A node's instance
// list is ascending (the node-to-instance index partitions stably from an
// ascending initial order) and the blocks cover contiguous ascending row
// ranges, so one forward walk resolves every instance's block — no
// per-instance block lookup.
func (r blockRows) eachSegment(insts []uint32, fn func(b *partition.Block, seg []uint32)) {
	for _, b := range r.blocks {
		if len(insts) == 0 {
			return
		}
		end := uint32(b.RowStart + b.NumRows())
		k, _ := slices.BinarySearch(insts, end)
		if k > 0 {
			fn(b, insts[:k])
			insts = insts[k:]
		}
	}
}

// build scans each node's instances through the rows — the paper's
// row-store histogram construction (node-to-instance index + row-store) —
// running the fused row-scan kernel once per block segment.
func (r blockRows) build(hs []*histogram.Hist, lists [][]uint32, grad, hess []float64) {
	for i, h := range hs {
		r.eachSegment(lists[i], func(b *partition.Block, seg []uint32) {
			h.RowScan(seg, b.RowStart, b.RowPtr, b.Feat, b.Bin, grad, hess, r.base)
		})
	}
}

// place runs the placement kernel once per block segment, as build does.
func (r blockRows) place(sp histogram.Split, insts []uint32, bm *bitmap.Bitmap) {
	col := uint32(sp.Feature)
	if r.slotOf != nil {
		col = uint32(r.slotOf[sp.Feature])
	}
	r.eachSegment(insts, func(b *partition.Block, seg []uint32) {
		placeSegment(seg, b.RowStart, b.RowPtr, b.Feat, b.Bin, col, sp, bm)
	})
}
