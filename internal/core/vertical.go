package core

import (
	"slices"

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

	// Set by newEngine: the data layout; whether it replicates the data on
	// every worker (feature-parallel), which places with no broadcast; and,
	// for QD3's column-wise index, own, the slots for the stores' indexes.
	prep       func(*verticalEngine) error
	replicated bool
	own        []ownIndex

	groups  [][]int
	ownerOf []int32 // global feature -> worker
	slotOf  []int32 // global feature -> slot within its group
	stores  []store
	owned   []map[int32]histogram.Split // a layer's splits by owner, reused
	numBins [][]int                     // per worker, per slot
	hist    []map[int32]*histogram.Hist
	layout  []histogram.Layout

	// idx (node-to-instance, with QD3's instance-to-node beside it) indexes
	// all N instances, and every worker of a vertical cluster holds and
	// updates the same one (Section 3: node splitting does not shrink with
	// W). The copies a process would host — all W on the simulation,
	// full-image and out-of-core ranks included — are identical after every
	// layer, so the process holds one: it is written only inside
	// cluster.Replicated steps and read, possibly concurrently, by the
	// per-worker histogram and placement passes.
	idx *byNode

	// parts holds the per-worker placement bitmaps applyLayer merges,
	// reused (and cleared) layer after layer; wire is the receive buffer of
	// a sharded layer's bitmap broadcasts.
	parts []*bitmap.Bitmap
	wire  []byte
}

func (e *verticalEngine) prepare() error { return e.prep(e) }

// groupColumns sketches candidate splits and balances the features over
// the workers: the start of every vertical layout but Vero's, whose
// transformation sketches and groups itself.
func (e *verticalEngine) groupColumns() error {
	t := e.t
	featCount, err := t.distributedSketch()
	if err != nil {
		return err
	}
	if err := t.checkMaxBins(); err != nil {
		return err
	}
	e.groups = partition.GroupColumnsBalanced(featCount, t.w)
	e.allocWorkers()
	return nil
}

// prepareColumns is QD3's layout: each worker's feature group as full
// columns, repartitioned from the raw data.
func (e *verticalEngine) prepareColumns() error {
	t := e.t
	if err := e.groupColumns(); err != nil {
		return err
	}
	e.idx.i2n = index.NewInstanceToNode(t.n)
	dataGauge := t.cl.Stats().Mem("data")
	errs := make([]error, t.w)
	binPrep := func(w int) {
		// Out of core the worker reads its group's columns off the mapped
		// image (slot i = the group's i-th feature); otherwise they are
		// binned into a matrix of their own.
		var csc *sparse.BinnedCSC
		cols, err := t.openColumns(w, e.groups[w], 0, t.n, func() (*sparse.BinnedCSC, error) {
			subBinner := &sparse.Binner{Splits: make([][]float32, len(e.groups[w]))}
			for slot, f := range e.groups[w] {
				subBinner.Splits[slot] = t.binner.Splits[f]
			}
			binned, err := subBinner.BinCSR(t.ds.X.SelectColumns(e.groups[w]))
			if err != nil {
				return nil, err
			}
			csc = binned.ToCSC()
			return csc, nil
		})
		if errs[w] = err; err != nil {
			return
		}
		hybrid := &hybridColumns{e.idx, cols, e.slotOf}
		e.stores[w] = hybrid
		if e.own != nil {
			colLens := make([]int, csc.Cols())
			for j := range colLens {
				colLens[j] = csc.ColNNZ(j)
			}
			cw := &columnWise{hybridColumns: hybrid, csc: csc, cw: index.NewColumnWise(colLens)}
			e.stores[w], e.own[w] = cw, cw
		}
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

// prepareFullCopy is feature-parallel's layout: the whole binned dataset on
// every worker, each accumulating only its feature group.
func (e *verticalEngine) prepareFullCopy() error {
	t := e.t
	if err := e.groupColumns(); err != nil {
		return err
	}
	binned, err := t.binner.BinCSR(t.ds.X)
	if err != nil {
		return err
	}
	full := rows{e.idx, blockRows{blocks: csrBlock(binned)}}
	dataGauge := t.cl.Stats().Mem("data")
	for w := 0; w < t.w; w++ {
		e.stores[w] = &fullCopy{rows: full, m: binned, ownerOf: e.ownerOf, slotOf: e.slotOf, w: int32(w)}
		// Feature-parallel's defining cost: the whole dataset on
		// every worker (Appendix D).
		dataGauge.Set(w, binnedCSRBytes(binned)+int64(t.n)*4)
	}
	return nil
}

// allocWorkers derives the feature maps from groups and allocates the
// process's index, the placement bitmaps and each worker's histogram
// layout, map and per-slot bin counts; the layout fills in the stores.
func (e *verticalEngine) allocWorkers() {
	t, w := e.t, e.t.w
	e.ownerOf = slices.Repeat([]int32{-1}, t.d)
	e.slotOf = make([]int32, t.d)
	e.numBins = make([][]int, w)
	e.hist = make([]map[int32]*histogram.Hist, w)
	e.layout = make([]histogram.Layout, w)
	e.owned = make([]map[int32]histogram.Split, w)
	for g, feats := range e.groups {
		e.layout[g] = histogram.Layout{NumFeat: len(feats), MaxBins: t.maxBins, NumClass: t.c}
		e.owned[g] = make(map[int32]histogram.Split)
		e.hist[g] = make(map[int32]*histogram.Hist)
		e.numBins[g] = make([]int, len(feats))
		for slot, f := range feats {
			e.ownerOf[f] = int32(g)
			e.slotOf[f] = int32(slot)
			e.numBins[g][slot] = len(t.binner.Splits[f])
		}
	}
	e.stores = make([]store, w)
	e.idx = &byNode{t: t, n2i: index.NewNodeToInstance(t.n)}
	e.parts = make([]*bitmap.Bitmap, w)
	for i := range e.parts {
		e.parts[i] = bitmap.New(t.n)
	}
	e.wire = make([]byte, e.parts[0].SizeBytes())
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
	t.transform = res.Bytes
	t.numBinsGlobal = make([]int, t.d)
	for f := range t.binner.Splits {
		t.numBinsGlobal[f] = len(t.binner.Splits[f])
	}
	if err := t.checkMaxBins(); err != nil {
		return err
	}
	e.allocWorkers()
	dataGauge := t.cl.Stats().Mem("data")
	for w := 0; w < t.w; w++ {
		var dataBytes int64
		switch {
		case res.Shards == nil:
			// A group's i-th feature is the worker's feature slot i, as in
			// the materialized transformation.
			e.stores[w] = rows{e.idx, newBlockScan(t.mappedColumns(e.groups[w], 0, t.n), t.sizes.blockRows)}
			dataBytes = t.sizes.perWorker
		case res.Shards[w] == nil:
			// Sharded cluster: only the hosted rank's shard was assembled.
			continue
		default:
			blocks := res.Shards[w].Data.Blocks
			e.stores[w] = rows{e.idx, blockRows{blocks: blocks, slotOf: e.slotOf}}
			for _, b := range blocks {
				dataBytes += int64(len(b.RowPtr))*8 + int64(b.NNZ())*6
			}
		}
		dataGauge.Set(w, dataBytes+int64(t.n)*4)
	}
	return nil
}

// usesSubtraction implements engine: the vertical quadrants keep per-node
// local histograms, so siblings derive by subtraction.
func (e *verticalEngine) usesSubtraction() bool { return true }

// computeGradients processes every instance: each worker needs the
// gradients of all instances to build histograms for its feature subset
// (labels were broadcast for exactly this purpose, Section 4.2.1 step 5),
// so the pass is the same at every worker — a replicated step.
func (e *verticalEngine) computeGradients() {
	t := e.t
	t.cl.Replicated(phaseGrad, func() { t.gradRange(0, t.n) })
}

func (e *verticalEngine) resetIndexes() {
	e.idx.reset()
	// Nil slots belong to workers this rank does not host (sharded
	// clusters build hosted-only structures).
	for _, s := range e.own {
		if s != nil {
			s.resetIndex()
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
		e.stores[w].build(hs, toBuild)
		for i, nd := range toBuild {
			e.hist[w][nd.id] = hs[i]
		}
	})
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

// applyLayer has each split's owner place its node through its store,
// broadcasts the placements as one N-bit bitmap per layer (Section 3.1.3),
// and updates the indexes from the bitmap. A replicated layout skips the
// broadcast: every worker evaluates the same placements on its full copy.
func (e *verticalEngine) applyLayer(splits map[int32]histogram.Split, children map[int32][2]int32) {
	t := e.t
	if e.replicated {
		t.cl.Replicated(phaseNode, func() {
			e.stores[0].place(splits, e.parts[0])
			e.idx.split(children, e.parts[0])
		})
		return
	}

	// Each split's owner fills the placement bits for its nodes; merging
	// the per-worker bitmaps yields the layer's placement.
	for _, m := range e.owned {
		clear(m)
	}
	for parent, sp := range splits {
		e.owned[e.ownerOf[sp.Feature]][parent] = sp
	}
	fill := func(w int) {
		e.parts[w].Reset()
		e.stores[w].place(e.owned[w], e.parts[w])
	}
	var placement *bitmap.Bitmap
	if t.ds.Shard != nil {
		t.cl.ParallelLocal(phaseNode, fill)
		placement = e.exchangePlacement()
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
	// instances: one pass per process. Indexes a store keeps of its own
	// (QD3's column-wise ones) cover that worker's columns and stay per
	// worker.
	t.cl.Replicated(phaseNode, func() { e.idx.split(children, placement) })
	if e.own != nil {
		t.cl.ParallelLocal(phaseNode, func(w int) { e.own[w].splitIndex(children, placement) })
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
func (e *verticalEngine) exchangePlacement() *bitmap.Bitmap {
	t := e.t
	rank := t.cl.Rank()
	placement := e.parts[rank]
	// The layer's owner set derives from the (replicated) resolved splits,
	// so every rank issues the identical broadcast sequence in ascending
	// rank order.
	// The rank's own shard is merged into only after the last broadcast, so
	// its payload is exactly this owner's routing decisions.
	for w := 0; w < t.w; w++ {
		if len(e.owned[w]) == 0 {
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
		if len(e.owned[w]) > 0 && w != rank {
			placement.Or(e.parts[w])
		}
	}
	return placement
}

// childStats recomputes the child totals from the gradient vectors through
// the node-to-instance index, as every worker would.
func (e *verticalEngine) childStats(nodes []*nodeInfo) {
	t := e.t
	t.cl.Replicated(phaseNode, func() {
		acc := make([]float64, (2*t.c+1)*len(nodes))
		e.idx.sums(nodes, acc)
		t.setChildStats(nodes, acc)
	})
}

// updatePredictions applies the leaf weights through the node-to-instance
// index to the predictions of all instances, as every worker would on its
// own prediction copy.
func (e *verticalEngine) updatePredictions(tr *tree.Tree) {
	e.t.cl.Replicated(phaseUpdate, func() { e.idx.addLeaves(tr) })
}
