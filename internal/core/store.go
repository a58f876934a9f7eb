package core

import (
	"slices"

	"vero/internal/bitmap"
	"vero/internal/histogram"
	"vero/internal/index"
	"vero/internal/sparse"
	"vero/internal/tree"
)

// store is one worker's data in its storage pattern, the axis of Figure 1
// beside the engines' partitioning: routedColumns (QD1), rows (QD2 and
// QD4), hybridColumns and columnWise (QD3's two index plans) and fullCopy
// (feature-parallel). prep.go picks it once. Each store embeds the
// nodeIndex it reads, and places into the one currency of every quadrant,
// a placement bitmap (set bit = left child) at that index's instance ids.
type store interface {
	// build accumulates hs[i], zeroed on entry, from the worker's
	// instances of nodes[i].
	build(hs []*histogram.Hist, nodes []*nodeInfo)
	// place writes the placement bit of every instance of each splitting
	// node in splits, keyed by the node's id.
	place(splits map[int32]histogram.Split, bm *bitmap.Bitmap)
}

// ownIndex is a store's index of its own (Yggdrasil's column-wise one),
// reset and split by the engine with its nodeIndex.
type ownIndex interface {
	resetIndex()
	splitIndex(children map[int32][2]int32, placement *bitmap.Bitmap)
}

// nodeIndex is which tree node each of a worker's instances sits on, in the
// form its store needs. Instance ids are relative to base, the worker's
// first row in the trainer's gradient vectors.
type nodeIndex interface {
	// reset returns every instance to the root.
	reset()
	// split moves each splitting parent's instances to its (left, right)
	// children as the placement bitmap says.
	split(children map[int32][2]int32, placement *bitmap.Bitmap)
	// sums adds each node's gradient and hessian totals and its instance
	// count into the zeroed acc, 2C+1 entries per node in nodes' order.
	sums(nodes []*nodeInfo, acc []float64)
	// addLeaves adds the learning-rate-scaled leaf weights of the finished
	// tree to the predictions of every instance.
	addLeaves(tr *tree.Tree)
}

// byNode is the node-to-instance index (QD2, and every vertical quadrant
// over all N instances), with QD3's instance-to-node index beside it when
// i2n is set.
type byNode struct {
	t    *trainer
	n2i  *index.NodeToInstance
	i2n  *index.InstanceToNode
	base int
}

func (x *byNode) reset() {
	x.n2i.Reset()
	if x.i2n != nil {
		x.i2n.Reset()
	}
}

func (x *byNode) split(children map[int32][2]int32, placement *bitmap.Bitmap) {
	for parent, ch := range children {
		x.n2i.Split(parent, ch[0], ch[1], placement)
	}
	if x.i2n != nil {
		x.i2n.SplitLayer(children, func(inst uint32) bool { return placement.Get(int(inst)) })
	}
}

func (x *byNode) sums(nodes []*nodeInfo, acc []float64) {
	t, c := x.t, x.t.c
	for i, nd := range nodes {
		insts := x.n2i.Instances(nd.id)
		g, h := acc[i*(2*c+1):], acc[i*(2*c+1)+c:]
		h[c] = float64(len(insts)) // the count follows the C hessians
		if c == 1 {
			var sg, sh float64
			for _, inst := range insts {
				sg += t.grads[x.base+int(inst)]
				sh += t.hessv[x.base+int(inst)]
			}
			g[0] += sg
			h[0] += sh
			continue
		}
		for _, inst := range insts {
			gi := (x.base + int(inst)) * c
			for k := 0; k < c; k++ {
				g[k] += t.grads[gi+k]
				h[k] += t.hessv[gi+k]
			}
		}
	}
}

func (x *byNode) addLeaves(tr *tree.Tree) {
	t := x.t
	eta := t.cfg.LearningRate
	for id := range tr.Nodes {
		n := &tr.Nodes[id]
		if !n.IsLeaf() {
			continue
		}
		for _, inst := range x.n2i.Instances(int32(id)) {
			gi := (x.base + int(inst)) * t.c
			for k := 0; k < t.c; k++ {
				t.preds[gi+k] += float64(eta * n.Weights[k]) // rounded: never a fused multiply-add
			}
		}
	}
}

// byInstance is QD1's instance-to-node index over a worker's rows.
type byInstance struct {
	t    *trainer
	i2n  *index.InstanceToNode
	base int
}

func (x *byInstance) reset() { x.i2n.Reset() }

func (x *byInstance) split(children map[int32][2]int32, placement *bitmap.Bitmap) {
	x.i2n.SplitLayer(children, func(inst uint32) bool { return placement.Get(int(inst)) })
}

func (x *byInstance) sums(nodes []*nodeInfo, acc []float64) {
	t := x.t
	stride := 2*t.c + 1
	slot := slots(nodes)
	for inst, nid := range x.i2n.Assignments() {
		if int(nid) >= len(slot) || slot[nid] < 0 {
			continue
		}
		o := int(slot[nid]) * stride
		gi := (x.base + inst) * t.c
		for k := 0; k < t.c; k++ {
			acc[o+k] += t.grads[gi+k]
			acc[o+t.c+k] += t.hessv[gi+k]
		}
		acc[o+2*t.c]++
	}
}

func (x *byInstance) addLeaves(tr *tree.Tree) {
	t := x.t
	eta := t.cfg.LearningRate
	for inst, nid := range x.i2n.Assignments() {
		leaf := &tr.Nodes[nid]
		gi := (x.base + inst) * t.c
		for k := 0; k < t.c; k++ {
			t.preds[gi+k] += float64(eta * leaf.Weights[k]) // rounded: never a fused multiply-add
		}
	}
}

// slots maps node ids to their position in nodes: a dense table indexed by
// id, -1 for a node not in the list.
func slots(nodes []*nodeInfo) []int32 {
	maxID := int32(0)
	for _, nd := range nodes {
		maxID = max(maxID, nd.id)
	}
	slot := slices.Repeat([]int32{-1}, int(maxID)+1)
	for i, nd := range nodes {
		slot[nd.id] = int32(i)
	}
	return slot
}

// routedColumns is QD1's column store over a worker's row shard. One pass
// over the worker's columns builds every node of a layer at once, routing
// each (instance, bin) entry through the instance-to-node index to its
// node's slot; placement finds each splitting instance's bin by binary
// search on the split column (the column-store node-splitting cost of
// Section 3.2.3).
type routedColumns struct {
	*byInstance // the index it routes through
	cols        *colStream
}

// build expects hs to be consecutive views of one arena, as the horizontal
// engine hands them out: histogram.ColumnScanRouted addresses a layer's
// histograms as one flat buffer.
func (s *routedColumns) build(hs []*histogram.Hist, nodes []*nodeInfo) {
	t, cols := s.t, s.cols
	l := hs[0].Layout
	stride := l.FloatsPerSide()
	ag, ah := hs[0].Grad[:stride*len(hs)], hs[0].Hess[:stride*len(hs)]
	slot := slots(nodes)
	nodeOf := s.i2n.Assignments()
	// Chunking a column preserves the per-accumulator addition order.
	for j := 0; j < len(cols.cols) && !cols.failed(); j++ {
		lo, hi := cols.colRange(j)
		cols.scan(lo, hi, cols.rowLo, func(insts []uint32, bins []uint16) {
			histogram.ColumnScanRouted(ag, ah, stride, l, j, insts, bins, nodeOf, slot, t.grads, t.hessv, s.base)
		})
	}
}

func (s *routedColumns) place(splits map[int32]histogram.Split, bm *bitmap.Bitmap) {
	cols := s.cols
	for inst, nid := range s.i2n.Assignments() {
		sp, ok := splits[nid]
		if !ok {
			continue
		}
		lo, hi := cols.src.ColRange(sp.Feature)
		left := sp.DefaultLeft
		if bin, found := cols.lookup(lo, hi, uint32(cols.rowLo+inst)); found {
			left = int(bin) <= sp.Bin
		}
		bm.SetTo(inst, left)
	}
}

// rows is a row store (QD2, QD4): the rowStore kind prepare picked, driven
// by the node-to-instance index's ascending instance lists.
type rows struct {
	*byNode
	rs rowStore
}

func (s rows) build(hs []*histogram.Hist, nodes []*nodeInfo) {
	lists := make([][]uint32, len(nodes))
	for i, nd := range nodes {
		lists[i] = s.n2i.Instances(nd.id)
	}
	s.rs.build(hs, lists, s.t.grads, s.t.hessv)
}

func (s rows) place(splits map[int32]histogram.Split, bm *bitmap.Bitmap) {
	for parent, sp := range splits {
		s.rs.place(sp, s.n2i.Instances(parent), bm)
	}
}

// hybridColumns is the paper's optimized QD3 plan (Section 5.2.2) over a
// worker's full columns, slot-indexed (slotOf maps a global feature to its
// slot): columns with few values are scanned linearly against the
// instance-to-node index, long ones probed by binary search from the
// node's instance list.
type hybridColumns struct {
	*byNode // with the instance-to-node index
	cols    *colStream
	slotOf  []int32
}

// build runs fused kernels on both arms, but the scan stays per node: the
// linear arm is bound by the per-entry instance-to-node probe (Section
// 3.2.3's column-store index cost), which a multi-node routed pass only
// makes heavier — measured, routing every entry through a node-to-slot
// table costs more than the filter scans it replaces.
func (s *hybridColumns) build(hs []*histogram.Hist, nodes []*nodeInfo) {
	t, cols := s.t, s.cols
	nodeOf := s.i2n.Assignments()
	for i, nd := range nodes {
		h, nodeInsts := hs[i], s.n2i.Instances(nd.id)
		for j := range cols.cols {
			lo, hi := cols.colRange(j)
			colLen := int(hi - lo)
			if colLen == 0 {
				continue
			}
			if cols.failed() {
				return
			}
			if !probesCheaper(colLen, len(nodeInsts)) {
				// Linear scan, filtering by the instance-to-node index.
				cols.scan(lo, hi, 0, func(insts []uint32, binsArr []uint16) {
					h.ColumnScanNode(j, insts, binsArr, nodeOf, nd.id, t.grads, t.hessv)
				})
				continue
			}
			for _, inst := range nodeInsts {
				bin, ok := cols.lookup(lo, hi, inst)
				if !ok {
					continue
				}
				h.AddFlat(j, int(bin), t.grads, t.hessv, int(inst)*t.c)
			}
		}
	}
}

// place: the owner holds the split feature's full column; one linear pass
// with node-membership checks places every present value.
func (s *hybridColumns) place(splits map[int32]histogram.Split, bm *bitmap.Bitmap) {
	for parent, sp := range splits {
		if sp.DefaultLeft {
			for _, inst := range s.n2i.Instances(parent) {
				bm.Set(int(inst))
			}
		}
		lo, hi := s.cols.colRange(int(s.slotOf[sp.Feature]))
		s.cols.scan(lo, hi, 0, func(colInsts []uint32, binsArr []uint16) {
			for k, inst := range colInsts {
				if s.i2n.Node(inst) != parent {
					continue
				}
				bm.SetTo(int(inst), int(binsArr[k]) <= sp.Bin)
			}
		})
	}
}

// columnWise is Yggdrasil's QD3 plan: a node-to-instance index per column
// of the worker's columns (csc) gives each column's node entries directly.
// It places as hybridColumns does.
type columnWise struct {
	*hybridColumns
	csc *sparse.BinnedCSC
	cw  *index.ColumnWise
}

func (s *columnWise) build(hs []*histogram.Hist, nodes []*nodeInfo) {
	t := s.t
	for i, nd := range nodes {
		for j := 0; j < s.csc.Cols(); j++ {
			insts, binsArr := s.csc.Col(j)
			hs[i].ColumnGather(j, s.cw.Entries(j, nd.id), insts, binsArr, t.grads, t.hessv)
		}
	}
}

func (s *columnWise) resetIndex() { s.cw.Reset() }

func (s *columnWise) splitIndex(children map[int32][2]int32, placement *bitmap.Bitmap) {
	instsOf := func(col int) []uint32 {
		insts, _ := s.csc.Col(col)
		return insts
	}
	for parent, ch := range children {
		s.cw.Split(parent, ch[0], ch[1], placement, instsOf)
	}
}

// fullCopy is feature-parallel's store (LightGBM, Appendix D): the whole
// dataset as rows, scanned in full but accumulated only for the features
// worker w owns, and placed over the full rows.
type fullCopy struct {
	rows
	m               *sparse.BinnedCSR
	ownerOf, slotOf []int32
	w               int32
}

func (s *fullCopy) build(hs []*histogram.Hist, nodes []*nodeInfo) {
	t := s.t
	for i, nd := range nodes {
		hs[i].RowScanOwned(s.n2i.Instances(nd.id), s.m.RowPtr, s.m.Feat, s.m.Bin,
			s.ownerOf, s.slotOf, s.w, t.grads, t.hessv)
	}
}
