package histogram

// Flat accumulation kernels. Histogram construction dominates GBDT
// training time (the cost every quadrant of Section 3 is built around), so
// the hot accumulation loops get specialized entry points that work on raw
// gradient arrays instead of routing every (instance, feature) entry
// through AddVec — no per-entry method call, no per-entry gradient
// sub-slicing, and a scalar fast path for NumClass == 1 (binary
// classification and regression, the dominant case) with the histogram
// arrays hoisted out of the loop.
//
// Every kernel preserves the exact per-entry accumulation order of the
// naive per-entry path it replaces: entries are added in the same sequence
// with the same float64 additions, so trained models stay bit-identical
// (the invariant the cross-quadrant property test pins).
//
// Gradient indexing convention: grad and hess are row-major [n*C] arrays
// and an instance's gradient vector starts at (base+inst)*C, where base
// re-bases worker-local instance ids to global rows (horizontal shards) and
// is zero when instance ids are already global (vertical).

// rowVec is the multiclass row kernel: the gradient vectors are sliced
// once per row instead of once per entry.
func (h *Hist) rowVec(feats []uint32, bins []uint16, g, hs []float64) {
	hg, hh := h.Grad, h.Hess
	mb, c := h.MaxBins, h.NumClass
	bins = bins[:len(feats)]
	for k, f := range feats {
		i := (int(f)*mb + int(bins[k])) * c
		for j := 0; j < c; j++ {
			hg[i+j] += g[j]
			hh[i+j] += hs[j]
		}
	}
}

// RowScan is the fused node-to-instance row-store kernel (QD2, QD4):
// it scans a node's instance list against raw CSR storage — rowPtr
// delimits each row's entries in feat/bin — accumulating every row without
// a per-row method call. rowOff re-bases instance ids into rowPtr (a
// shard's first global row, or a block's RowStart); base re-bases them
// into the gradient arrays.
func (h *Hist) RowScan(insts []uint32, rowOff int, rowPtr []int64, feat []uint32, bin []uint16, grad, hess []float64, base int) {
	if h.NumClass == 1 {
		hg, hh := h.Grad, h.Hess
		mb := h.MaxBins
		for _, inst := range insts {
			r := int(inst) - rowOff
			lo, hi := rowPtr[r], rowPtr[r+1]
			fs, bs := feat[lo:hi], bin[lo:hi]
			bs = bs[:len(fs)] // hoist the bin bounds check
			g, hs := grad[base+int(inst)], hess[base+int(inst)]
			for k, f := range fs {
				i := int(f)*mb + int(bs[k])
				hg[i] += g
				hh[i] += hs
			}
		}
		return
	}
	c := h.NumClass
	for _, inst := range insts {
		r := int(inst) - rowOff
		lo, hi := rowPtr[r], rowPtr[r+1]
		gi := (base + int(inst)) * c
		h.rowVec(feat[lo:hi], bin[lo:hi], grad[gi:gi+c], hess[gi:gi+c])
	}
}

// RowScanOwned is RowScan restricted to the feature slots a worker owns:
// full rows are scanned but only entries with ownerOf[f] == owner are
// accumulated, at slot slotOf[f] — the feature-parallel full-copy shape
// (LightGBM feature-parallel, Appendix D).
func (h *Hist) RowScanOwned(insts []uint32, rowPtr []int64, feat []uint32, bin []uint16, ownerOf, slotOf []int32, owner int32, grad, hess []float64) {
	if h.NumClass == 1 {
		hg, hh := h.Grad, h.Hess
		mb := h.MaxBins
		for _, inst := range insts {
			lo, hi := rowPtr[inst], rowPtr[inst+1]
			g, hs := grad[inst], hess[inst]
			for e := lo; e < hi; e++ {
				f := feat[e]
				if ownerOf[f] != owner {
					continue
				}
				i := int(slotOf[f])*mb + int(bin[e])
				hg[i] += g
				hh[i] += hs
			}
		}
		return
	}
	c := h.NumClass
	for _, inst := range insts {
		lo, hi := rowPtr[inst], rowPtr[inst+1]
		gi := int(inst) * c
		g, hs := grad[gi:gi+c], hess[gi:gi+c]
		for e := lo; e < hi; e++ {
			f := feat[e]
			if ownerOf[f] != owner {
				continue
			}
			i := (int(slotOf[f])*h.MaxBins + int(bin[e])) * c
			for j := 0; j < c; j++ {
				h.Grad[i+j] += g[j]
				h.Hess[i+j] += hs[j]
			}
		}
	}
}

// ColumnScanNode is the fused column kernel filtered to one node (the
// QD3 hybrid plan's linear-scan arm): one column's (instance, bin) entries
// are scanned and entries whose instance sits on node are accumulated into
// feature slot col. nodeOf is the raw instance-to-node assignment array.
func (h *Hist) ColumnScanNode(col int, insts []uint32, bins []uint16, nodeOf []int32, node int32, grad, hess []float64) {
	if h.NumClass == 1 {
		hg, hh := h.Grad, h.Hess
		colBase := col * h.MaxBins
		bins = bins[:len(insts)]
		for k, inst := range insts {
			if nodeOf[inst] != node {
				continue
			}
			i := colBase + int(bins[k])
			hg[i] += grad[inst]
			hh[i] += hess[inst]
		}
		return
	}
	c := h.NumClass
	colBase := col * h.MaxBins * c
	bins = bins[:len(insts)]
	for k, inst := range insts {
		if nodeOf[inst] != node {
			continue
		}
		i := colBase + int(bins[k])*c
		gi := int(inst) * c
		for j := 0; j < c; j++ {
			h.Grad[i+j] += grad[gi+j]
			h.Hess[i+j] += hess[gi+j]
		}
	}
}

// ColumnScanBlock is the fused column kernel of the streamed row-store
// quadrants (out-of-core QD2, QD4): one column's (instance, bin) entries
// that fall inside a row block are routed to the histograms of all nodes
// under construction. slot is block-local — slot[inst-rowOff] is 1 + the
// index into hs of the node the row sits on, 0 when that node is not being
// built — so it stays cache-resident while the block's column segments
// stream past it. Instance ids index the gradient arrays directly.
//
// A histogram cell (node, col, bin) receives its additions in ascending
// instance order, the order RowScan adds them in when it walks the node's
// ascending instance list, so the result is bit-identical to the row scan.
func ColumnScanBlock(hs []*Hist, col int, insts []uint32, bins []uint16, rowOff int, slot []uint16, grad, hess []float64) {
	if len(insts) == 0 || len(hs) == 0 {
		return
	}
	bins = bins[:len(insts)]
	if hs[0].NumClass == 1 {
		colBase := col * hs[0].MaxBins
		for k, inst := range insts {
			s := slot[int(inst)-rowOff]
			if s == 0 {
				continue
			}
			h := hs[s-1]
			i := colBase + int(bins[k])
			h.Grad[i] += grad[inst]
			h.Hess[i] += hess[inst]
		}
		return
	}
	c := hs[0].NumClass
	colBase := col * hs[0].MaxBins * c
	for k, inst := range insts {
		s := slot[int(inst)-rowOff]
		if s == 0 {
			continue
		}
		hg, hh := hs[s-1].Grad, hs[s-1].Hess
		i := colBase + int(bins[k])*c
		gi := int(inst) * c
		for j := 0; j < c; j++ {
			hg[i+j] += grad[gi+j]
			hh[i+j] += hess[gi+j]
		}
	}
}

// ColumnGather accumulates the column entries at the given positions —
// the column-wise node-to-instance shape (QD3 with Yggdrasil's index),
// where an index already knows which entry positions belong to the node.
func (h *Hist) ColumnGather(col int, positions []uint32, insts []uint32, bins []uint16, grad, hess []float64) {
	if h.NumClass == 1 {
		hg, hh := h.Grad, h.Hess
		colBase := col * h.MaxBins
		for _, pos := range positions {
			i := colBase + int(bins[pos])
			inst := insts[pos]
			hg[i] += grad[inst]
			hh[i] += hess[inst]
		}
		return
	}
	c := h.NumClass
	colBase := col * h.MaxBins * c
	for _, pos := range positions {
		i := colBase + int(bins[pos])*c
		gi := int(insts[pos]) * c
		for j := 0; j < c; j++ {
			h.Grad[i+j] += grad[gi+j]
			h.Hess[i+j] += hess[gi+j]
		}
	}
}

// AddFlat accumulates one (feat, bin) entry reading the gradient vector at
// flat index gi — AddVec without the caller-side sub-slicing, with the
// C==1 fast path (used by the QD3 hybrid plan's binary-search arm).
func (h *Hist) AddFlat(feat, bin int, grad, hess []float64, gi int) {
	i := (feat*h.MaxBins + bin) * h.NumClass
	if h.NumClass == 1 {
		h.Grad[i] += grad[gi]
		h.Hess[i] += hess[gi]
		return
	}
	for j := 0; j < h.NumClass; j++ {
		h.Grad[i+j] += grad[gi+j]
		h.Hess[i+j] += hess[gi+j]
	}
}

// ColumnScanRouted is the fused instance-to-node column-store kernel
// (QD1): one pass over a column routes every (instance, bin) entry to the
// histogram of the node the instance currently sits on. The destination is a flat arena holding
// the histograms of all nodes under construction — gdst/hdst pack one
// l-shaped histogram per slot, stride floats apart — so an accumulation is
// a single indexed add per side with no per-entry pointer chasing. slot
// maps a node id to its arena slot (-1 or out of range: the node is not
// being built this layer); base re-bases shard-local instance ids into the
// gradient arrays.
//
// Within one destination histogram the entries of column col accumulate in
// column order, exactly as a dedicated per-node scan would add them — and
// since a column's entries touch only that feature slot's bins, arena
// contents fold into per-node histograms by addition over disjoint
// support, keeping the result bit-identical to the unfused path.
func ColumnScanRouted(gdst, hdst []float64, stride int, l Layout, col int, insts []uint32, bins []uint16, nodeOf, slot []int32, grad, hess []float64, base int) {
	if len(insts) == 0 {
		return
	}
	bins = bins[:len(insts)]
	if l.NumClass == 1 {
		colBase := col * l.MaxBins
		for k, inst := range insts {
			nid := nodeOf[inst]
			if int(nid) >= len(slot) {
				continue
			}
			s := slot[nid]
			if s < 0 {
				continue
			}
			i := int(s)*stride + colBase + int(bins[k])
			gi := base + int(inst)
			gdst[i] += grad[gi]
			hdst[i] += hess[gi]
		}
		return
	}
	c := l.NumClass
	colBase := col * l.MaxBins * c
	for k, inst := range insts {
		nid := nodeOf[inst]
		if int(nid) >= len(slot) {
			continue
		}
		s := slot[nid]
		if s < 0 {
			continue
		}
		i := int(s)*stride + colBase + int(bins[k])*c
		gi := (base + int(inst)) * c
		for j := 0; j < c; j++ {
			gdst[i+j] += grad[gi+j]
			hdst[i+j] += hess[gi+j]
		}
	}
}
