package core

import (
	"vero/internal/bitmap"
	"vero/internal/cluster"
	"vero/internal/histogram"
	"vero/internal/index"
	"vero/internal/partition"
	"vero/internal/sparse"
	"vero/internal/tree"
)

// verticalEngine implements the vertical quadrants (QD3: column-store;
// QD4: row-store — Vero). Workers hold complete columns for disjoint
// feature subsets, find local best splits without histogram aggregation,
// and broadcast instance placements as one bitmap per layer (Figure 4(b)).
type verticalEngine struct {
	t *trainer

	groups   [][]int
	ownerOf  []int32             // global feature -> worker
	slotOf   []int32             // global feature -> slot within its group
	rows     []rowStore          // QD4: per-worker blockified shards, or scans of the mapped image
	fullRows *sparse.BinnedCSR   // QD4 FullCopy (feature-parallel)
	cols     []*colStream        // QD3: per-worker full columns (slot-indexed)
	csc      []*sparse.BinnedCSC // QD3 column-wise: the matrices cw's positions address
	numBins  [][]int             // per worker, per slot
	cw       []*index.ColumnWise // QD3 column-wise (Yggdrasil): per worker, over its own columns
	hist     []map[int32]*histogram.Hist
	layout   []histogram.Layout

	// n2i (and QD3's i2n) index all N instances, and every worker of a
	// vertical cluster holds and updates the same one (Section 3: node
	// splitting does not shrink with W). The copies a process would host —
	// all W on the simulation, full-image and out-of-core ranks included —
	// are identical after every layer, so the process holds one: it is
	// written only inside cluster.Replicated steps and read, possibly
	// concurrently, by the per-worker histogram and placement passes.
	n2i *index.NodeToInstance
	i2n *index.InstanceToNode

	// parts holds the per-worker placement bitmaps applyLayer merges,
	// reused (and cleared) layer after layer; wire is the receive buffer of
	// a sharded layer's bitmap broadcasts.
	parts []*bitmap.Bitmap
	wire  []byte

	transformBytes partition.ByteReport
}

// prepare sets up the vertical layout: QD4 runs the paper's
// horizontal-to-vertical transformation, QD3 repartitions raw columns, and
// feature-parallel keeps a full copy per worker.
func (e *verticalEngine) prepare() error {
	t := e.t
	if t.cfg.Quadrant == QD4 && !t.cfg.FullCopy {
		return e.prepareVero()
	}
	featCount, err := t.distributedSketch()
	if err != nil {
		return err
	}
	if err := t.checkMaxBins(); err != nil {
		return err
	}
	e.groups = partition.GroupColumnsBalanced(featCount, t.w)
	e.buildFeatureMaps()
	e.allocWorkers()
	dataGauge := t.cl.Stats().Mem("data")

	if t.cfg.Quadrant == QD3 {
		e.cols = make([]*colStream, t.w)
		columnWise := t.cfg.ColumnIndex == IndexColumnWise
		if columnWise {
			e.csc = make([]*sparse.BinnedCSC, t.w)
			e.cw = make([]*index.ColumnWise, t.w)
		}
		errs := make([]error, t.w)
		binPrep := func(w int) {
			e.initWorker(w)
			// Out of core the worker reads its group's columns off the
			// mapped image (slot i = the group's i-th feature); otherwise
			// they are binned into a matrix of their own.
			e.cols[w], errs[w] = t.openColumns(w, e.groups[w], 0, t.n, func() (*sparse.BinnedCSC, error) {
				subBinner := &sparse.Binner{Splits: make([][]float32, len(e.groups[w]))}
				for slot, f := range e.groups[w] {
					subBinner.Splits[slot] = t.binner.Splits[f]
				}
				binned, err := subBinner.BinCSR(t.ds.X.SelectColumns(e.groups[w]))
				if err != nil {
					return nil, err
				}
				m := binned.ToCSC()
				if columnWise {
					colLens := make([]int, m.Cols())
					for j := range colLens {
						colLens[j] = m.ColNNZ(j)
					}
					e.csc[w], e.cw[w] = m, index.NewColumnWise(colLens)
				}
				return m, nil
			})
			dataGauge.Add(w, int64(t.n)*4) // + broadcast labels
		}
		globalNNZ := t.ds.NNZ()
		if sh := t.ds.Shard; sh != nil {
			// A column shard materialized only this rank's feature group;
			// build hosted-only (applyLayer broadcasts real placement shards
			// instead of deriving the full layer locally) and charge the
			// repartition from the replicated global entry count — the local
			// NNZ differs per rank, and each rank's accounting must equal
			// the simulation's (the socket tests check it through CommBytes).
			t.cl.ParallelLocal("prep.bin", binPrep)
			globalNNZ = sh.GlobalNNZ
		} else {
			t.cl.Parallel("prep.bin", binPrep)
		}
		if err := cluster.FirstError(errs); err != nil {
			return err
		}
		// Vertical repartition of the raw data, shipped as uncompressed
		// key-value pairs (QD3 predates Vero's compact transformation).
		shuffleBytes := globalNNZ * 12 * int64(t.w-1) / int64(t.w)
		t.cl.ChargeComm("prep.repartition", cluster.OpShuffle, shuffleBytes, t.w-1)
		// Labels are broadcast so every worker can compute gradients.
		t.cl.Broadcast("prep.labels", int64(t.n)*4)
		return nil
	}

	// QD4 FullCopy (feature-parallel).
	binned, err := t.binner.BinCSR(t.ds.X)
	if err != nil {
		return err
	}
	e.fullRows = binned
	for w := 0; w < t.w; w++ {
		e.initWorker(w)
		// Feature-parallel's defining cost: the whole dataset on
		// every worker (Appendix D).
		dataGauge.Set(w, binnedCSRBytes(binned)+int64(t.n)*4)
	}
	return nil
}

// allocWorkers allocates the process's indexes and placement bitmaps and
// the per-worker slots initWorker fills.
func (e *verticalEngine) allocWorkers() {
	t, w := e.t, e.t.w
	e.numBins = make([][]int, w)
	e.hist = make([]map[int32]*histogram.Hist, w)
	e.layout = make([]histogram.Layout, w)
	e.n2i = index.NewNodeToInstance(t.n)
	if t.cfg.Quadrant == QD3 {
		e.i2n = index.NewInstanceToNode(t.n)
	}
	e.parts = make([]*bitmap.Bitmap, w)
	for i := range e.parts {
		e.parts[i] = bitmap.New(t.n)
	}
	e.wire = make([]byte, e.parts[0].SizeBytes())
}

// initWorker builds worker w's histogram layout and map and per-slot bin
// counts. Slots of workers this rank does not host stay nil (every access
// runs under ParallelLocal or a nil guard).
func (e *verticalEngine) initWorker(w int) {
	t := e.t
	e.layout[w] = histogram.Layout{NumFeat: len(e.groups[w]), MaxBins: t.maxBins, NumClass: t.c}
	e.hist[w] = make(map[int32]*histogram.Hist)
	numBins := make([]int, len(e.groups[w]))
	for slot, f := range e.groups[w] {
		numBins[slot] = len(t.binner.Splits[f])
	}
	e.numBins[w] = numBins
}

// prepareVero runs the horizontal-to-vertical transformation
// (Section 4.2.1) and adopts its shards. A dataset with matching
// ingestion-derived splits starts the transformation at the grouping
// step: sketching was already paid at ingestion.
func (e *verticalEngine) prepareVero() error {
	t := e.t
	opts := partition.Options{
		Q:         t.cfg.Splits,
		SketchEps: t.cfg.SketchEps,
		Charge:    t.cfg.TransformCharge,
	}
	pb, err := t.usablePrebin()
	if err != nil {
		return err
	}
	if pb != nil {
		opts.Splits, opts.FeatCount = pb.Splits, pb.FeatCount
	}
	var res *partition.Result
	switch sh := t.ds.Shard; {
	case t.ds.OutOfCore():
		// Grouping and wire charges come from the mapped columns; the
		// repartitioned rows stay on disk (res.Shards is nil).
		res, err = partition.TransformStreamed(t.cl, t.ds.Blocks, t.ds.Labels, opts)
	case sh != nil:
		// The rank already holds its feature group: build only its own
		// blockified shard and charge the repartition from the replicated
		// per-group entry matrix.
		res, err = partition.TransformSharded(t.cl, t.ds.X, t.ds.Labels, sh, opts)
	default:
		res, err = partition.Transform(t.cl, t.ds.X, t.ds.Labels, opts)
	}
	if err != nil {
		return err
	}
	t.binner = res.Binner
	e.groups = res.Groups
	e.transformBytes = res.Bytes
	e.buildFeatureMaps()
	t.numBinsGlobal = make([]int, t.d)
	for f := range t.binner.Splits {
		t.numBinsGlobal[f] = len(t.binner.Splits[f])
	}
	if err := t.checkMaxBins(); err != nil {
		return err
	}
	e.allocWorkers()
	e.rows = make([]rowStore, t.w)
	dataGauge := t.cl.Stats().Mem("data")
	for w := 0; w < t.w; w++ {
		var dataBytes int64
		switch {
		case res.Shards == nil:
			// A group's i-th feature is the worker's feature slot i, as in
			// the materialized transformation.
			e.rows[w] = newBlockScan(t.mappedColumns(e.groups[w], 0, t.n), t.sizes.blockRows)
			dataBytes = t.sizes.perWorker
		case res.Shards[w] == nil:
			// Sharded cluster: only the hosted rank's shard was assembled.
			continue
		default:
			blocks := res.Shards[w].Data.Blocks
			e.rows[w] = blockRows{blocks: blocks, slotOf: e.slotOf}
			for _, b := range blocks {
				dataBytes += int64(len(b.RowPtr))*8 + int64(b.NNZ())*6
			}
		}
		e.initWorker(w)
		dataGauge.Set(w, dataBytes+int64(t.n)*4)
	}
	return nil
}

// buildFeatureMaps fills ownerOf and slotOf from groups.
func (e *verticalEngine) buildFeatureMaps() {
	e.ownerOf = make([]int32, e.t.d)
	e.slotOf = make([]int32, e.t.d)
	for i := range e.ownerOf {
		e.ownerOf[i] = -1
	}
	for g, feats := range e.groups {
		for slot, f := range feats {
			e.ownerOf[f] = int32(g)
			e.slotOf[f] = int32(slot)
		}
	}
}

// usesSubtraction implements engine: both vertical quadrants keep
// per-node local histograms, so siblings derive by subtraction.
func (e *verticalEngine) usesSubtraction() bool { return true }

// transformReport implements engine.
func (e *verticalEngine) transformReport() partition.ByteReport { return e.transformBytes }

// computeGradients processes every instance: each worker needs the
// gradients of all instances to build histograms for its feature subset
// (labels were broadcast for exactly this purpose, Section 4.2.1 step 5),
// so the pass is the same at every worker — a replicated step.
func (e *verticalEngine) computeGradients() {
	t := e.t
	t.cl.Replicated(phaseGrad, func() { t.gradRange(0, t.n) })
}

func (e *verticalEngine) resetIndexes() {
	e.n2i.Reset()
	if e.i2n != nil {
		e.i2n.Reset()
	}
	// Nil slots belong to workers this rank does not host (sharded
	// clusters build hosted-only structures).
	for _, idx := range e.cw {
		if idx != nil {
			idx.Reset()
		}
	}
}

func (e *verticalEngine) clearHists() {
	// dropHist releases id on every worker; subtraction can leave worker
	// maps holding different id sets, so sweep each worker's keys.
	for w := range e.hist {
		for id := range e.hist[w] {
			e.dropHist(id)
		}
	}
}

func (e *verticalEngine) dropHist(id int32) {
	g := e.t.cl.Stats().Mem("histogram")
	for w := range e.hist {
		if h, ok := e.hist[w][id]; ok {
			g.Add(w, -e.layout[w].SizeBytes())
			e.t.pool.Put(h)
			delete(e.hist[w], id)
		}
	}
}

// deriveHistograms computes each node's histogram as parent minus built
// sibling, reusing the parent's storage (the parent entry is consumed).
func (e *verticalEngine) deriveHistograms(toDerive []*nodeInfo) {
	e.t.cl.ParallelLocal(phaseHist, func(w int) { subtractSiblings(e.hist[w], toDerive) })
}

// rootTotals sums the gradients of all instances, as every worker would
// from its gradient copy.
func (e *verticalEngine) rootTotals() ([]float64, []float64) {
	t := e.t
	g := make([]float64, t.c)
	h := make([]float64, t.c)
	t.cl.Replicated(phaseGrad, func() { t.sumRows(0, t.n, g, h) })
	return g, h
}

func (e *verticalEngine) buildHistograms(toBuild []*nodeInfo) {
	t := e.t
	mem := t.cl.Stats().Mem("histogram")
	t.cl.ParallelLocal(phaseHist, func(w int) {
		hs := make([]*histogram.Hist, len(toBuild))
		for i := range hs {
			hs[i] = t.pool.Get(e.layout[w])
			mem.Add(w, e.layout[w].SizeBytes())
		}
		switch {
		case t.cfg.Quadrant == QD4 && !t.cfg.FullCopy:
			e.rows[w].build(hs, nodeLists(e.n2i, toBuild), t.grads, t.hessv)
		case t.cfg.Quadrant == QD4: // feature-parallel full copy
			for i, nd := range toBuild {
				e.buildFullCopy(w, nd, hs[i])
			}
		case t.cfg.ColumnIndex == IndexColumnWise:
			for i, nd := range toBuild {
				e.buildColumnWise(w, nd, hs[i])
			}
		default:
			for i, nd := range toBuild {
				e.buildHybrid(w, nd, hs[i])
			}
		}
		for i, nd := range toBuild {
			e.hist[w][nd.id] = hs[i]
		}
	})
}

// buildFullCopy scans full rows but accumulates only the worker's assigned
// features — LightGBM feature-parallel (Appendix D).
func (e *verticalEngine) buildFullCopy(w int, nd *nodeInfo, h *histogram.Hist) {
	t := e.t
	h.RowScanOwned(e.n2i.Instances(nd.id), e.fullRows.RowPtr, e.fullRows.Feat, e.fullRows.Bin,
		e.ownerOf, e.slotOf, int32(w), t.grads, t.hessv)
}

// buildColumnWise reads each column's node entries directly from the
// column-wise node-to-instance index (Yggdrasil's plan).
func (e *verticalEngine) buildColumnWise(w int, nd *nodeInfo, h *histogram.Hist) {
	t := e.t
	cols := e.csc[w]
	cw := e.cw[w]
	for j := 0; j < cols.Cols(); j++ {
		insts, binsArr := cols.Col(j)
		h.ColumnGather(j, cw.Entries(j, nd.id), insts, binsArr, t.grads, t.hessv)
	}
}

// buildHybrid is the paper's optimized QD3 plan (Section 5.2.2): columns
// with few values are scanned linearly against the instance-to-node index;
// long columns are probed by binary search from the node's instance list.
// Both arms run fused kernels, but the scan stays per-node: the linear arm
// is bound by the per-entry instance-to-node probe (Section 3.2.3's
// column-store index cost), which a multi-node routed pass only makes
// heavier — measured, routing every entry through a node-to-slot table
// costs more than the filter scans it replaces.
func (e *verticalEngine) buildHybrid(w int, nd *nodeInfo, h *histogram.Hist) {
	t := e.t
	cols := e.cols[w]
	nodeOf := e.i2n.Assignments()
	nodeInsts := e.n2i.Instances(nd.id)
	for j := range e.groups[w] {
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

// findSplits has each worker find the best split over its own feature
// subset, then exchanges the local bests (Section 2.2.1).
func (e *verticalEngine) findSplits(frontier []*nodeInfo) map[int32]histogram.Split {
	t := e.t
	return t.exchangeSplits(frontier, func(w int, nd *nodeInfo) histogram.Split {
		s := t.finder.FindBest(e.hist[w][nd.id], nd.totalG, nd.totalH, e.numBins[w])
		if s.Valid {
			s.Feature = e.groups[w][s.Feature] // slot -> global id
		}
		return s
	})
}

// applyLayer computes instance placements at the split owners, broadcasts
// them as one N-bit bitmap per layer (Section 3.1.3), and updates the
// indexes from the bitmap. Feature-parallel skips the broadcast: every
// worker evaluates the same placements on its full copy.
func (e *verticalEngine) applyLayer(splits map[int32]histogram.Split, children map[int32][2]int32) {
	t := e.t
	if t.cfg.FullCopy {
		t.cl.Replicated(phaseNode, func() {
			placeAndSplit(blockRows{blocks: csrBlock(e.fullRows)}, e.n2i, e.parts[0], splits, children)
		})
		return
	}

	// Each split's owner fills the placement bits for its node; merging
	// the per-worker bitmaps yields the layer's placement.
	fill := func(w int) {
		bm := e.parts[w]
		bm.Reset()
		for parent := range children {
			sp := splits[parent]
			if e.ownerOf[sp.Feature] == int32(w) {
				e.fillPlacement(w, parent, sp, bm)
			}
		}
	}
	var placement *bitmap.Bitmap
	if t.ds.Shard != nil {
		t.cl.ParallelLocal(phaseNode, fill)
		placement = e.exchangePlacement(splits, children)
	} else {
		// A replicated Parallel even on a distributed cluster (full-image
		// and out-of-core datasets): the vertical engines materialize or
		// map every worker's columns at every rank, so each rank derives
		// the full placement locally and the broadcast is only charged:
		// modeled, nothing touches the wire.
		t.cl.Parallel(phaseNode, fill)
		placement = e.parts[0]
		for w := 1; w < t.w; w++ {
			placement.Or(e.parts[w])
		}
		t.cl.Broadcast(phaseNode, int64(placement.SizeBytes()))
	}

	// Every worker applies the same bitmap to the same index of all N
	// instances: one pass per process. QD3's column-wise indexes cover each
	// worker's own columns and stay per worker.
	t.cl.Replicated(phaseNode, func() {
		for parent, ch := range children {
			e.n2i.Split(parent, ch[0], ch[1], placement)
		}
		if e.i2n != nil {
			e.i2n.SplitLayer(children, func(inst uint32) bool { return placement.Get(int(inst)) })
		}
	})
	if e.cw != nil {
		t.cl.ParallelLocal(phaseNode, func(w int) {
			instsOf := func(col int) []uint32 {
				insts, _ := e.csc[w].Col(col)
				return insts
			}
			for parent, ch := range children {
				e.cw[w].Split(parent, ch[0], ch[1], placement, instsOf)
			}
		})
	}
}

// exchangePlacement merges a layer's placement on a column-sharded
// cluster: a rank holds only its own feature group, so it placed only the
// nodes whose split feature it owns (into parts[rank]). Every owner of a
// splitting node broadcasts its shard — a real data-carrying collective,
// charged against the alpha-beta model — and ranks OR the shards together
// (each instance is routed by exactly one owner). The merged placement,
// and hence every index transition, is bit-identical to the replicated
// path's.
//
// Accounting note: each owner sends the whole n-bit bitmap, so a layer
// with k splitting owners charges k full bitmaps where the replicated
// path charges the paper's single compacted bitmap (Section 3.1.3: n
// bits total, each instance's bit carried by its one router). The
// difference — a few bitmap payloads per run — is real data movement
// and is charged truthfully, so sharded runs account slightly more than
// the full-image model while still training the identical bytes.
func (e *verticalEngine) exchangePlacement(splits map[int32]histogram.Split, children map[int32][2]int32) *bitmap.Bitmap {
	t := e.t
	rank := t.cl.Rank()
	placement := e.parts[rank]
	// The layer's owner set derives from the (replicated) resolved splits,
	// so every rank issues the identical broadcast sequence in ascending
	// rank order.
	owners := make([]bool, t.w)
	for parent := range children {
		owners[e.ownerOf[splits[parent].Feature]] = true
	}
	// The rank's own shard is merged into only after the last broadcast, so
	// its payload is exactly this owner's routing decisions.
	for w := 0; w < t.w; w++ {
		if !owners[w] {
			continue
		}
		if w == rank {
			payload, _ := placement.MarshalBinary() // never fails
			t.cl.BroadcastBytes(phaseNode, payload, w)
			continue
		}
		// A transport failure leaves the payload zeroed; the merge stays
		// well-formed and the trainer aborts at the tree boundary via
		// cl.Err(). The lengths match by construction.
		clear(e.wire)
		t.cl.BroadcastBytes(phaseNode, e.wire, w)
		_ = e.parts[w].UnmarshalBinary(e.wire)
	}
	for w := 0; w < t.w; w++ {
		if owners[w] && w != rank {
			placement.Or(e.parts[w])
		}
	}
	return placement
}

// fillPlacement writes the left/right bits of one splitting node, owned by
// worker w (set bit = left child).
func (e *verticalEngine) fillPlacement(w int, parent int32, sp histogram.Split, bm *bitmap.Bitmap) {
	insts := e.n2i.Instances(parent)
	if e.t.cfg.Quadrant == QD4 {
		e.rows[w].place(sp, insts, bm)
		return
	}
	if sp.DefaultLeft {
		for _, inst := range insts {
			bm.Set(int(inst))
		}
	}
	// QD3: the owner holds the split feature's full column; one linear
	// pass with node-membership checks places every present value.
	cols := e.cols[w]
	lo, hi := cols.colRange(int(e.slotOf[sp.Feature]))
	cols.scan(lo, hi, 0, func(colInsts []uint32, binsArr []uint16) {
		for k, inst := range colInsts {
			if e.i2n.Node(inst) != parent {
				continue
			}
			bm.SetTo(int(inst), int(binsArr[k]) <= sp.Bin)
		}
	})
}

// childStats recomputes the child totals from the gradient vectors through
// the node-to-instance index, as every worker would.
func (e *verticalEngine) childStats(nodes []*nodeInfo) {
	t := e.t
	t.cl.Replicated(phaseNode, func() {
		for _, nd := range nodes {
			insts := e.n2i.Instances(nd.id)
			nd.totalG = make([]float64, t.c)
			nd.totalH = make([]float64, t.c)
			nd.count = len(insts)
			t.sumInsts(insts, 0, nd.totalG, nd.totalH)
		}
	})
}

// updatePredictions applies the leaf weights through the node-to-instance
// index to the predictions of all instances, as every worker would on its
// own prediction copy.
func (e *verticalEngine) updatePredictions(tr *tree.Tree) {
	e.t.cl.Replicated(phaseUpdate, func() { e.t.addLeaves(tr, e.n2i, 0) })
}
