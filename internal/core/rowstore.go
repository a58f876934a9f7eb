package core

import (
	"vero/internal/bitmap"
	"vero/internal/histogram"
	"vero/internal/index"
	"vero/internal/partition"
	"vero/internal/sparse"
)

// rowStore is one worker's data in a row-store quadrant (QD2, QD4): how
// the histograms of a layer's build nodes are accumulated from the
// worker's rows, and how a splitting node's instances are placed. Instance
// ids and bit positions are relative to the worker's first row.
//
// The two kinds are different algorithms, not two copies of one: over a
// materialized row store (csrRows, shardRows) a node's rows are scanned
// through histogram.RowScan and placed by a lookup in each row — the
// paper's QD2/QD4 — while the column-major mapped image has no rows to
// scan and is served by blockScan. prepare picks by Dataset.OutOfCore.
type rowStore interface {
	// build accumulates hs[i] over the rows lists[i], ascending — the
	// node-to-instance index's order.
	build(hs []*histogram.Hist, lists [][]uint32, grad, hess []float64)
	// place writes the placement bit (set = left child) of every instance
	// of one splitting node.
	place(sp resolvedSplit, insts []uint32, bm *bitmap.Bitmap)
}

// nodeLists returns each node's (ascending) instance list.
func nodeLists(idx *index.NodeToInstance, nodes []*nodeInfo) [][]uint32 {
	lists := make([][]uint32, len(nodes))
	for i, nd := range nodes {
		lists[i] = idx.Instances(nd.id)
	}
	return lists
}

// placeRows places instances by binary-searching each one's row for the
// split column col; an absent value goes the default direction.
func placeRows(row func(i int) ([]uint32, []uint16), col uint32, sp resolvedSplit, insts []uint32, bm *bitmap.Bitmap) {
	for _, inst := range insts {
		left := sp.defaultLeft
		feats, bins := row(int(inst))
		if bin, ok := lookupBin(feats, bins, col); ok {
			left = int(bin) <= sp.bin
		}
		bm.SetTo(int(inst), left)
	}
}

// csrRows is QD2's materialized row shard: all features of the worker's
// rows, whose gradients sit base rows into the shared vectors.
type csrRows struct {
	m    *sparse.BinnedCSR
	base int
}

func (r csrRows) build(hs []*histogram.Hist, lists [][]uint32, grad, hess []float64) {
	for i, h := range hs {
		h.RowScan(lists[i], 0, r.m.RowPtr, r.m.Feat, r.m.Bin, grad, hess, r.base)
	}
}

func (r csrRows) place(sp resolvedSplit, insts []uint32, bm *bitmap.Bitmap) {
	placeRows(r.m.Row, uint32(sp.feature), sp, insts, bm)
}

// shardRows is QD4's materialized shard: the blockified rows of the
// worker's feature group, features addressed by slot within the group.
type shardRows struct {
	data   *partition.BlockSet
	slotOf []int32 // global feature -> slot within its group
}

// build scans each node's instances through the blockified rows — Vero's
// histogram construction (node-to-instance index + row-store). A node's
// instance list is ascending (the node-to-instance index partitions stably
// from an ascending initial order) and the shard's blocks cover contiguous
// ascending row ranges, so the scan runs the fused row-scan kernel once
// per block segment instead of resolving every row through a per-instance
// block lookup.
func (r shardRows) build(hs []*histogram.Hist, lists [][]uint32, grad, hess []float64) {
	for i, h := range hs {
		insts := lists[i]
		k := 0
		for _, b := range r.data.Blocks {
			if k == len(insts) {
				break
			}
			end := b.RowStart + b.NumRows()
			start := k
			for k < len(insts) && int(insts[k]) < end {
				k++
			}
			h.RowScan(insts[start:k], b.RowStart, b.RowPtr, b.Feat, b.Bin, grad, hess, 0)
		}
	}
}

func (r shardRows) place(sp resolvedSplit, insts []uint32, bm *bitmap.Bitmap) {
	placeRows(r.data.Row, uint32(r.slotOf[sp.feature]), sp, insts, bm)
}
