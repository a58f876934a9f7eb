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

// horizontalEngine implements the horizontal quadrants (QD1: column-store
// + instance-to-node index; QD2: row-store + node-to-instance index).
// Workers hold disjoint row ranges with all features; histograms are built
// locally for every feature and aggregated across workers (Figure 4(a)).
type horizontalEngine struct {
	t *trainer

	// flatG/flatH are per-worker arena scratch for the routed column-scan
	// kernel: one flat buffer pair holds every histogram a worker builds in
	// a layer, reused (and re-zeroed) layer after layer.
	flatG, flatH [][]float64

	rows []rowStore // QD2: per-worker row shards
	// perNode says QD2 builds and aggregates node by node, keeping one
	// transient local histogram per worker (materialized rows); a mapped
	// store builds the whole layer in one pass over the data instead.
	perNode bool
	placed  []*bitmap.Bitmap // QD2: per-worker placement scratch
	cols    []*colStream     // QD1: per-worker column views of row shards
	n2i     []*index.NodeToInstance
	i2n     []*index.InstanceToNode
	agg     map[int32]*histogram.Hist // aggregated histograms, by node id
	layout  histogram.Layout
}

// prepare sketches candidate splits and gives each worker its row shard
// in the quadrant's storage pattern: binned and materialized, or — out of
// core — a reader over the worker's row range of the mapped image.
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

	cols := allFeatures(t.d)
	errs := make([]error, t.w)
	// binShard materializes worker w's binned row shard.
	binShard := func(w int) (*sparse.BinnedCSR, error) {
		return t.binner.BinCSR(t.ds.X.SliceRows(t.ranges[w][0], t.ranges[w][1]))
	}
	// ParallelLocal: on a distributed cluster each rank builds only its
	// hosted worker's structures — the aggregation path (SumHosted)
	// requires the locals' shape to match the hosting.
	if t.cfg.Quadrant == QD2 {
		e.rows = make([]rowStore, t.w)
		e.n2i = make([]*index.NodeToInstance, t.w)
		e.placed = make([]*bitmap.Bitmap, t.w)
		outOfCore := t.ds.OutOfCore()
		e.perNode = !outOfCore
		dataGauge := t.cl.Stats().Mem("data")
		t.cl.ParallelLocal("prep.bin", func(w int) {
			lo, hi := t.ranges[w][0], t.ranges[w][1]
			e.n2i[w] = index.NewNodeToInstance(hi - lo)
			e.placed[w] = bitmap.New(hi - lo)
			if outOfCore {
				e.rows[w] = newBlockScan(t.mappedColumns(cols, lo, hi), t.sizes.blockRows)
				dataGauge.Set(w, t.sizes.perWorker)
				return
			}
			binned, err := binShard(w)
			if err != nil {
				errs[w] = err
				return
			}
			e.rows[w] = blockRows{blocks: csrBlock(binned), base: lo}
			dataGauge.Set(w, binnedCSRBytes(binned))
		})
		return cluster.FirstError(errs)
	}

	// QD1: column views of the row shards, instance-to-node index.
	e.cols = make([]*colStream, t.w)
	e.i2n = make([]*index.InstanceToNode, t.w)
	t.cl.ParallelLocal("prep.bin", func(w int) {
		lo, hi := t.ranges[w][0], t.ranges[w][1]
		e.i2n[w] = index.NewInstanceToNode(hi - lo)
		e.cols[w], errs[w] = t.openColumns(w, cols, lo, hi, func() (*sparse.BinnedCSC, error) {
			binned, err := binShard(w)
			if err != nil {
				return nil, err
			}
			return binned.ToCSC(), nil
		})
	})
	return cluster.FirstError(errs)
}

// usesSubtraction implements engine: QD1's shared accumulators cannot
// retain per-parent state, so both children always build.
func (e *horizontalEngine) usesSubtraction() bool { return e.t.cfg.Quadrant != QD1 }

// transformReport implements engine: no repartitioning happens.
func (e *horizontalEngine) transformReport() partition.ByteReport { return partition.ByteReport{} }

// computeGradients has each worker process its own row range.
func (e *horizontalEngine) computeGradients() {
	t := e.t
	t.cl.ParallelLocal(phaseGrad, func(w int) { t.gradRange(t.ranges[w][0], t.ranges[w][1]) })
}

func (e *horizontalEngine) resetIndexes() {
	// Non-hosted workers' indexes are nil on a distributed cluster.
	if e.t.cfg.Quadrant == QD1 {
		for _, idx := range e.i2n {
			if idx != nil {
				idx.Reset()
			}
		}
		return
	}
	for _, idx := range e.n2i {
		if idx != nil {
			idx.Reset()
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
	locals := make([][]float64, t.w)
	t.cl.ParallelLocal(phaseGrad, func(w int) {
		acc := make([]float64, 2*t.c)
		t.sumRows(t.ranges[w][0], t.ranges[w][1], acc[:t.c], acc[t.c:])
		locals[w] = acc
	})
	sum := make([]float64, 2*t.c)
	t.cl.SumHosted(locals, sum)
	t.cl.AllReduce(phaseGrad, sum)
	return sum[:t.c], sum[t.c:]
}

// buildHistograms constructs local histograms and aggregates them per the
// configured method.
func (e *horizontalEngine) buildHistograms(toBuild []*nodeInfo) {
	t := e.t
	if t.cfg.Quadrant == QD2 {
		step := len(toBuild)
		if e.perNode {
			step = 1
		}
		for lo := 0; lo < len(toBuild); lo += step {
			e.buildRowStore(toBuild[lo : lo+step])
		}
		return
	}

	// QD1 column-store: one pass over each worker's columns updates all
	// build nodes at once, routing each (instance, bin) entry through the
	// instance-to-node index (the fused column-scan kernel reads the raw
	// assignment array and a dense node-to-slot table). Workers fold their
	// local histograms into shared accumulators right after their pass, so
	// physical memory stays at two layers of histograms instead of W+1
	// (the logical per-worker copies are still charged to the memory
	// gauge).
	maxID := int32(0)
	for _, nd := range toBuild {
		if nd.id > maxID {
			maxID = nd.id
		}
	}
	slot := make([]int32, maxID+1) // node id -> local slot, -1 = not building
	for i := range slot {
		slot[i] = -1
	}
	for i, nd := range toBuild {
		slot[nd.id] = int32(i)
	}
	acc := make([]*histogram.Hist, len(toBuild))
	for i := range acc {
		acc[i] = t.pool.Get(e.layout)
	}
	// merged[w] closes once worker w has folded its partials in; worker
	// w+1 waits for it, so the floating-point reduction order is the
	// worker order regardless of goroutine scheduling.
	merged := make([]chan struct{}, t.w)
	for w := range merged {
		merged[w] = make(chan struct{})
	}
	t.cl.ParallelLocal(phaseHist, func(w int) {
		stride := e.layout.FloatsPerSide()
		ag, ah := e.flatScratch(w, stride*len(toBuild))
		cols := e.cols[w]
		nodeOf := e.i2n[w].Assignments()
		base := t.ranges[w][0]
		// Chunking a column preserves the per-accumulator addition order.
		for j := 0; j < t.d && !cols.failed(); j++ {
			lo, hi := cols.colRange(j)
			cols.scan(lo, hi, cols.rowLo, func(insts []uint32, bins []uint16) {
				histogram.ColumnScanRouted(ag, ah, stride, e.layout, j, insts, bins, nodeOf, slot, t.grads, t.hessv, base)
			})
		}
		// A distributed rank hosts one worker; its predecessor's channel is
		// never closed locally (the reduction below replaces the chain).
		if w > 0 && t.cl.HostsWorker(w-1) {
			<-merged[w-1]
		}
		for i := range acc {
			acc[i].Merge(&histogram.Hist{Layout: e.layout,
				Grad: ag[i*stride : (i+1)*stride], Hess: ah[i*stride : (i+1)*stride]})
		}
		close(merged[w])
	})
	mem := t.cl.Stats().Mem("histogram")
	for i, nd := range toBuild {
		e.reduce(acc[i].Grad, acc[i].Hess)
		e.agg[nd.id] = acc[i]
		for w := 0; w < t.w; w++ {
			mem.Add(w, e.layout.SizeBytes())
		}
	}
}

// buildRowStore builds the given nodes' local histograms — one pass of
// each worker's row store over all of them — and aggregates node by node.
// Per histogram cell the accumulation order (ascending instances) and the
// per-node aggregation order over workers are the same for every kind of
// store and any grouping of the nodes, so the result is bit-identical.
func (e *horizontalEngine) buildRowStore(nodes []*nodeInfo) {
	t := e.t
	locals := make([][]*histogram.Hist, len(nodes))
	for i := range locals {
		locals[i] = make([]*histogram.Hist, t.w)
	}
	t.cl.ParallelLocal(phaseHist, func(w int) {
		hs := make([]*histogram.Hist, len(nodes))
		for i := range hs {
			hs[i] = t.pool.Get(e.layout)
			locals[i][w] = hs[i]
		}
		e.rows[w].build(hs, nodeLists(e.n2i[w], nodes), t.grads, t.hessv)
	})
	for i, nd := range nodes {
		e.aggregate(nd.id, locals[i])
		for _, h := range locals[i] {
			if h != nil { // distributed ranks fill only their hosted slot
				t.pool.Put(h)
			}
		}
	}
}

// reduce runs the configured aggregation collective over histogram sides
// that hold this process's merged contribution — QD1's shared
// accumulators, or a histogram SumHosted filled — charged as one payload.
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

// aggregate reduces per-worker histograms of one node into the aggregated
// map, charging the configured collective.
func (e *horizontalEngine) aggregate(node int32, locals []*histogram.Hist) {
	t := e.t
	gl := make([][]float64, t.w)
	hl := make([][]float64, t.w)
	for w, h := range locals {
		if h != nil {
			gl[w] = h.Grad
			hl[w] = h.Hess
		}
	}
	// Reduce straight into a pooled histogram: every histogram the trainer
	// releases was drawn from the pool (keeping the free list bounded by
	// the live set), and the steady state allocates nothing per node.
	// The sides are reduced one at a time, each its own charge.
	agg := t.pool.Get(e.layout)
	t.cl.SumHosted(gl, agg.Grad)
	e.reduce(agg.Grad)
	t.cl.SumHosted(hl, agg.Hess)
	e.reduce(agg.Hess)
	e.agg[node] = agg
	mem := t.cl.Stats().Mem("histogram")
	for w := 0; w < t.w; w++ {
		mem.Add(w, e.layout.SizeBytes())
	}
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

// applyLayer updates each worker's local node/instance index; every worker
// holds all features of its rows, so placements are computed locally — no
// placement broadcast, only the (tiny) split records travel.
func (e *horizontalEngine) applyLayer(splits map[int32]histogram.Split, children map[int32][2]int32) {
	t := e.t
	t.cl.Broadcast(phaseNode, int64(len(splits))*splitWireBytes)
	if t.cfg.Quadrant == QD2 {
		t.cl.ParallelLocal(phaseNode, func(w int) {
			placeAndSplit(e.rows[w], e.n2i[w], e.placed[w], splits, children)
		})
		return
	}
	// QD1: instance-to-node updated in one pass; each instance's split
	// feature value is found by binary search on its column (the
	// column-store node-splitting cost of Section 3.2.3).
	t.cl.ParallelLocal(phaseNode, func(w int) {
		cols := e.cols[w]
		i2n := e.i2n[w]
		i2n.SplitLayer(children, func(inst uint32) bool {
			sp := splits[i2n.Node(inst)]
			lo, hi := cols.src.ColRange(sp.Feature)
			bin, ok := cols.lookup(lo, hi, uint32(cols.rowLo)+inst)
			if !ok {
				return sp.DefaultLeft
			}
			return int(bin) <= sp.Bin
		})
	})
}

// childStats computes counts and gradient totals of the new children from
// local rows plus one small all-reduce.
func (e *horizontalEngine) childStats(nodes []*nodeInfo) {
	t := e.t
	stride := 2*t.c + 1 // totals + count
	locals := make([][]float64, t.w)
	if t.cfg.Quadrant == QD2 {
		t.cl.ParallelLocal(phaseNode, func(w int) {
			acc := make([]float64, stride*len(nodes))
			for i, nd := range nodes {
				insts := e.n2i[w].Instances(nd.id)
				o := acc[i*stride:]
				t.sumInsts(insts, t.ranges[w][0], o[:t.c], o[t.c:2*t.c])
				o[2*t.c] = float64(len(insts))
			}
			locals[w] = acc
		})
	} else {
		slot := make(map[int32]int, len(nodes))
		for i, nd := range nodes {
			slot[nd.id] = i
		}
		t.cl.ParallelLocal(phaseNode, func(w int) {
			acc := make([]float64, stride*len(nodes))
			i2n := e.i2n[w]
			base := t.ranges[w][0]
			if t.c == 1 {
				for inst, nid := range i2n.Assignments() {
					i, ok := slot[nid]
					if !ok {
						continue
					}
					o := i * stride
					acc[o] += t.grads[base+inst]
					acc[o+1] += t.hessv[base+inst]
					acc[o+2]++
				}
				locals[w] = acc
				return
			}
			for inst := 0; inst < i2n.Len(); inst++ {
				i, ok := slot[i2n.Node(uint32(inst))]
				if !ok {
					continue
				}
				o := i * stride
				gi := (base + inst) * t.c
				for k := 0; k < t.c; k++ {
					acc[o+k] += t.grads[gi+k]
					acc[o+t.c+k] += t.hessv[gi+k]
				}
				acc[o+2*t.c]++
			}
			locals[w] = acc
		})
	}
	sum := make([]float64, stride*len(nodes))
	t.cl.SumHosted(locals, sum)
	t.cl.AllReduce(phaseNode, sum)
	for i, nd := range nodes {
		o := i * stride
		nd.totalG = append([]float64(nil), sum[o:o+t.c]...)
		nd.totalH = append([]float64(nil), sum[o+t.c:o+2*t.c]...)
		nd.count = int(sum[o+2*t.c])
	}
}

// updatePredictions adds the finished tree's leaf weights to the raw
// scores of each worker's rows; the leaf weights travel in one small
// broadcast.
func (e *horizontalEngine) updatePredictions(tr *tree.Tree) {
	t := e.t
	t.cl.Broadcast(phaseUpdate, int64(tr.NumLeaves()*t.c)*8)
	if t.cfg.Quadrant == QD2 {
		t.cl.ParallelLocal(phaseUpdate, func(w int) { t.addLeaves(tr, e.n2i[w], t.ranges[w][0]) })
		return
	}
	eta := t.cfg.LearningRate
	t.cl.ParallelLocal(phaseUpdate, func(w int) {
		i2n := e.i2n[w]
		base := t.ranges[w][0]
		for inst := 0; inst < i2n.Len(); inst++ {
			leaf := &tr.Nodes[i2n.Node(uint32(inst))]
			gi := (base + inst) * t.c
			for k := 0; k < t.c; k++ {
				t.preds[gi+k] += eta * leaf.Weights[k]
			}
		}
	})
}

// searchColumn binary-searches a column's sorted instance list.
func searchColumn(insts []uint32, bins []uint16, inst uint32) (uint16, bool) {
	lo, hi := 0, len(insts)
	for lo < hi {
		mid := (lo + hi) / 2
		if insts[mid] < inst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(insts) && insts[lo] == inst {
		return bins[lo], true
	}
	return 0, false
}
