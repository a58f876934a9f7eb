package core

import (
	"vero/internal/bitmap"
	"vero/internal/cluster"
	"vero/internal/histogram"
	"vero/internal/index"
	"vero/internal/sparse"
	"vero/internal/tree"
)

// horizontalEngine implements the horizontal quadrants (QD1, QD2): workers
// hold disjoint row ranges with all features; every worker's store builds
// local histograms for every feature, and they are aggregated across
// workers (Figure 4(a)).
type horizontalEngine struct {
	t *trainer

	// Set by newEngine. open lays out worker w's rows [lo, hi) in the
	// quadrant's storage and sets its data gauge. The flags are where QD1's
	// accounting differs from QD2's, as TestGoldenAccounting pins it: QD1
	// never subtracts and reduces a node's two sides as one payload, QD2
	// one side at a time. In memory QD2 builds node by node, keeping one
	// transient local histogram per worker; a mapped store builds a whole
	// layer in one pass over the data.
	open       func(e *horizontalEngine, w, lo, hi int) (store, nodeIndex, error)
	subtract   bool
	onePayload bool
	perNode    bool

	stores []store
	idx    []nodeIndex
	placed []*bitmap.Bitmap // per-worker placement scratch
	// flatG/flatH are per-worker arenas holding every histogram a worker's
	// store builds in one pass, reused (and re-zeroed) pass after pass.
	flatG, flatH [][]float64
	agg          map[int32]*histogram.Hist // aggregated histograms, by node id
	layout       histogram.Layout
}

// prepare sketches candidate splits and gives each worker its rows in the
// quadrant's storage pattern. ParallelLocal: on a distributed cluster each
// rank builds only its hosted worker's structures — the aggregation path
// (SumHosted) requires the locals' shape to match the hosting.
func (e *horizontalEngine) prepare() error {
	t := e.t
	if _, err := t.distributedSketch(); err != nil {
		return err
	}
	if err := t.checkMaxBins(); err != nil {
		return err
	}
	e.flatG = make([][]float64, t.w)
	e.flatH = make([][]float64, t.w)
	e.layout = histogram.Layout{NumFeat: t.d, MaxBins: t.maxBins, NumClass: t.c}
	e.agg = make(map[int32]*histogram.Hist)
	e.stores = make([]store, t.w)
	e.idx = make([]nodeIndex, t.w)
	e.placed = make([]*bitmap.Bitmap, t.w)
	errs := make([]error, t.w)
	t.cl.ParallelLocal("prep.bin", func(w int) {
		lo, hi := t.ranges[w][0], t.ranges[w][1]
		e.placed[w] = bitmap.New(hi - lo)
		e.stores[w], e.idx[w], errs[w] = e.open(e, w, lo, hi)
	})
	return cluster.FirstError(errs)
}

// openRows is QD2's layout: a row store over the binned shard or — out of
// core — a block scan of the worker's rows of the mapped image, with a
// node-to-instance index.
func (e *horizontalEngine) openRows(w, lo, hi int) (store, nodeIndex, error) {
	t := e.t
	idx := &byNode{t: t, n2i: index.NewNodeToInstance(hi - lo), base: lo}
	dataGauge := t.cl.Stats().Mem("data")
	if t.ds.OutOfCore() {
		dataGauge.Set(w, t.sizes.perWorker)
		return rows{idx, newBlockScan(t.mappedColumns(allFeatures(t.d), lo, hi), t.sizes.blockRows)}, idx, nil
	}
	binned, err := t.binner.BinCSR(t.ds.X.SliceRows(lo, hi))
	if err != nil {
		return nil, nil, err
	}
	dataGauge.Set(w, binnedCSRBytes(binned))
	return rows{idx, blockRows{blocks: csrBlock(binned), base: lo}}, idx, nil
}

// openRoutedColumns is QD1's layout: column views of the row shard with an
// instance-to-node index.
func (e *horizontalEngine) openRoutedColumns(w, lo, hi int) (store, nodeIndex, error) {
	t := e.t
	cols, err := t.openColumns(w, allFeatures(t.d), lo, hi, func() (*sparse.BinnedCSC, error) {
		binned, err := t.binner.BinCSR(t.ds.X.SliceRows(lo, hi))
		if err != nil {
			return nil, err
		}
		return binned.ToCSC(), nil
	})
	if err != nil {
		return nil, nil, err
	}
	idx := &byInstance{t: t, i2n: index.NewInstanceToNode(hi - lo), base: lo}
	return &routedColumns{idx, cols}, idx, nil
}

// usesSubtraction implements engine.
func (e *horizontalEngine) usesSubtraction() bool { return e.subtract }

// computeGradients has each worker process its own row range.
func (e *horizontalEngine) computeGradients() {
	t := e.t
	t.cl.ParallelLocal(phaseGrad, func(w int) { t.gradRange(t.ranges[w][0], t.ranges[w][1]) })
}

func (e *horizontalEngine) resetIndexes() {
	// Non-hosted workers' indexes are nil on a distributed cluster.
	for _, idx := range e.idx {
		if idx != nil {
			idx.reset()
		}
	}
}

func (e *horizontalEngine) clearHists() {
	for id := range e.agg {
		e.dropHist(id)
	}
}

func (e *horizontalEngine) dropHist(id int32) {
	t := e.t
	if h, ok := e.agg[id]; ok {
		g := t.cl.Stats().Mem("histogram")
		for w := 0; w < t.w; w++ {
			g.Add(w, -e.layout.SizeBytes())
		}
		t.pool.Put(h)
		delete(e.agg, id)
	}
}

// deriveHistograms computes each node's histogram as parent minus built
// sibling, reusing the parent's storage (the parent entry is consumed).
// On a distributed cluster every rank derives its own copy; with
// reduce-scatter aggregation the non-owned regions hold local
// contributions on both parent and sibling, so their difference is the
// derived node's local contribution — the invariant every shard reader
// relies on survives subtraction.
func (e *horizontalEngine) deriveHistograms(toDerive []*nodeInfo) {
	// Aggregated histograms are logically replicated: derive once.
	e.t.cl.Replicated(phaseHist, func() { subtractSiblings(e.agg, toDerive) })
}

// flatScratch returns worker w's zeroed arena scratch of n floats per
// side, growing the buffers when a layer needs more histogram slots than
// any before it.
func (e *horizontalEngine) flatScratch(w, n int) (g, h []float64) {
	if cap(e.flatG[w]) < n {
		e.flatG[w] = make([]float64, n)
		e.flatH[w] = make([]float64, n)
	} else {
		e.flatG[w] = e.flatG[w][:n]
		e.flatH[w] = e.flatH[w][:n]
		clear(e.flatG[w])
		clear(e.flatH[w])
	}
	return e.flatG[w], e.flatH[w]
}

func (e *horizontalEngine) rootTotals() ([]float64, []float64) {
	t := e.t
	sum := e.sumWorkers(phaseGrad, 2*t.c, func(w int, acc []float64) {
		t.sumRows(t.ranges[w][0], t.ranges[w][1], acc[:t.c], acc[t.c:])
	})
	return sum[:t.c], sum[t.c:]
}

// sumWorkers has each hosted worker fill a zeroed array of n floats, sums
// the arrays in rank order and all-reduces the sum, charged to phase.
func (e *horizontalEngine) sumWorkers(phase string, n int, fill func(w int, acc []float64)) []float64 {
	t := e.t
	locals := make([][]float64, t.w)
	t.cl.ParallelLocal(phase, func(w int) {
		locals[w] = make([]float64, n)
		fill(w, locals[w])
	})
	sum := make([]float64, n)
	t.cl.SumHosted(locals, sum)
	t.cl.AllReduce(phase, sum)
	return sum
}

// buildHistograms has every worker's store build the nodes' local
// histograms into zeroed views of the worker's arena, and aggregates them
// node by node — the whole layer in one pass, or node by node (perNode).
// Per histogram cell the accumulation order (ascending instances) and the
// aggregation order over workers do not depend on the grouping of the
// nodes, so the result is bit-identical either way.
func (e *horizontalEngine) buildHistograms(toBuild []*nodeInfo) {
	step := len(toBuild)
	if e.perNode {
		step = 1
	}
	for lo := 0; lo < len(toBuild); lo += step {
		e.build(toBuild[lo : lo+step])
	}
}

func (e *horizontalEngine) build(nodes []*nodeInfo) {
	t := e.t
	stride := e.layout.FloatsPerSide()
	locals := make([][]*histogram.Hist, t.w)
	t.cl.ParallelLocal(phaseHist, func(w int) {
		ag, ah := e.flatScratch(w, stride*len(nodes))
		hs := make([]*histogram.Hist, len(nodes))
		for i := range hs {
			hs[i] = &histogram.Hist{Layout: e.layout,
				Grad: ag[i*stride : (i+1)*stride], Hess: ah[i*stride : (i+1)*stride]}
		}
		e.stores[w].build(hs, nodes)
		locals[w] = hs
	})
	gl, hl := make([][]float64, t.w), make([][]float64, t.w)
	mem := t.cl.Stats().Mem("histogram")
	for i, nd := range nodes {
		for w, hs := range locals {
			if hs != nil { // distributed ranks fill only their hosted slot
				gl[w], hl[w] = hs[i].Grad, hs[i].Hess
			}
		}
		// Reduce straight into a pooled histogram: every histogram the
		// trainer releases was drawn from the pool (keeping the free list
		// bounded by the live set). SumHosted folds the workers in rank
		// order from zero, the order every transport reproduces.
		agg := t.pool.Get(e.layout)
		t.cl.SumHosted(gl, agg.Grad)
		t.cl.SumHosted(hl, agg.Hess)
		if e.onePayload {
			e.reduce(agg.Grad, agg.Hess)
		} else {
			e.reduce(agg.Grad)
			e.reduce(agg.Hess)
		}
		e.agg[nd.id] = agg
		for w := 0; w < t.w; w++ {
			mem.Add(w, e.layout.SizeBytes())
		}
	}
}

// reduce runs the configured aggregation collective over histogram sides
// that SumHosted filled with this process's contribution, charged as one
// payload.
// On the simulation the sides already are the global sum, so this only
// charges; on a distributed cluster they come back reduced: fully for
// all-reduce, per owned feature shard for the scatter variants. The
// transport adds rank contributions in rank order from a zeroed base, the
// exact order of the simulation's merge, so the sums are bit-identical.
func (e *horizontalEngine) reduce(sides ...[]float64) {
	t := e.t
	switch t.cfg.Aggregation {
	case AggReduceScatter:
		t.cl.ReduceScatter(phaseHist, e.featureBounds(), sides...)
	case AggParameterServer:
		t.cl.ShardedGather(phaseHist, t.w, e.featureBounds(), sides...)
	default: // AggAllReduce
		t.cl.AllReduce(phaseHist, sides...)
	}
}

// featureBounds maps findSplits' per-worker feature shards (worker w owns
// features [w*per, (w+1)*per) for per = ceil(d/W)) onto element bounds of
// one histogram side, so the scatter collectives deliver exactly the
// region each worker's split search reads.
func (e *horizontalEngine) featureBounds() []int {
	t := e.t
	per := (t.d + t.w - 1) / t.w
	stride := e.layout.MaxBins * e.layout.NumClass
	bounds := make([]int, t.w+1)
	for v := 1; v <= t.w; v++ {
		bounds[v] = min(v*per, t.d) * stride
	}
	return bounds
}

// findSplits locates each frontier node's best split on the aggregated
// histograms, with the work placed where the aggregation method puts it: a
// leader for all-reduce, per-feature-shard workers for reduce-scatter and
// the parameter servers.
func (e *horizontalEngine) findSplits(frontier []*nodeInfo) map[int32]histogram.Split {
	t := e.t
	if t.cfg.Aggregation != AggAllReduce {
		// Each worker searches its feature shard of the aggregated
		// histograms.
		per := (t.d + t.w - 1) / t.w
		return t.exchangeSplits(frontier, func(w int, nd *nodeInfo) histogram.Split {
			lo := min(w*per, t.d)
			return t.finder.FindBestInRange(e.agg[nd.id], nd.totalG, nd.totalH, t.numBinsGlobal, lo, min(lo+per, t.d))
		})
	}
	// All-reduce: the leader scans all features. Every rank recomputes the
	// identical result from the fully reduced histograms; the broadcast
	// below charges the split records the leader would send.
	out := make(map[int32]histogram.Split, len(frontier))
	t.cl.Replicated(phaseSplit, func() {
		for _, nd := range frontier {
			out[nd.id] = t.finder.FindBest(e.agg[nd.id], nd.totalG, nd.totalH, t.numBinsGlobal)
		}
	})
	t.cl.Broadcast(phaseSplit, int64(len(frontier))*splitWireBytes)
	return out
}

// applyLayer has each worker's store place its splitting instances and
// splits its index from the placement; every worker holds all features of
// its rows, so placements are computed locally — no placement broadcast,
// only the (tiny) split records travel.
func (e *horizontalEngine) applyLayer(splits map[int32]histogram.Split, children map[int32][2]int32) {
	t := e.t
	t.cl.Broadcast(phaseNode, int64(len(splits))*splitWireBytes)
	t.cl.ParallelLocal(phaseNode, func(w int) {
		e.stores[w].place(splits, e.placed[w])
		e.idx[w].split(children, e.placed[w])
	})
}

// childStats computes counts and gradient totals of the new children from
// local rows plus one small all-reduce.
func (e *horizontalEngine) childStats(nodes []*nodeInfo) {
	sum := e.sumWorkers(phaseNode, (2*e.t.c+1)*len(nodes), func(w int, acc []float64) { e.idx[w].sums(nodes, acc) })
	e.t.setChildStats(nodes, sum)
}

// updatePredictions adds the finished tree's leaf weights to the raw
// scores of each worker's rows; the leaf weights travel in one small
// broadcast.
func (e *horizontalEngine) updatePredictions(tr *tree.Tree) {
	t := e.t
	t.cl.Broadcast(phaseUpdate, int64(tr.NumLeaves()*t.c)*8)
	t.cl.ParallelLocal(phaseUpdate, func(w int) { e.idx[w].addLeaves(tr) })
}
