package core

import (
	"vero/internal/histogram"
	"vero/internal/tree"
)

// engine is the partitioning seam of the trainer: everything the
// layer-wise boosting loop needs that depends on how the data is
// partitioned lives behind this interface. The trainer owns the loop, the
// shared run state (predictions, gradients, hessians) and the candidate
// splits; an engine owns where work runs, the histogram maps, and each
// worker's store and nodeIndex (store.go), the storage axis.
//
// Two implementations cover Figure 1: horizontalEngine (QD1/QD2, disjoint
// row ranges with all features, aggregated histograms) and verticalEngine
// (QD3/QD4, complete columns for disjoint feature subsets, local
// histograms with placement broadcasts). prep.go picks the engine and the
// stores from Config; resolveAuto lets the advisor pick the quadrant.
type engine interface {
	// prepare materializes the engine's per-worker data layout (binning,
	// repartitioning, index and histogram-map allocation), charging the
	// preparation communication. Called once, before any run.
	prepare() error
	// computeGradients refreshes the trainer's gradient/hessian vectors
	// with the engine's work placement (horizontal: own rows; vertical:
	// every worker processes all instances, Section 4.2.1 step 5 — one
	// replicated pass per process).
	computeGradients()
	// rootTotals returns the gradient/hessian totals over all instances.
	rootTotals() ([]float64, []float64)
	// buildHistograms constructs the histograms of the given nodes by
	// scanning instances (and, for horizontal quadrants, aggregates them).
	buildHistograms(toBuild []*nodeInfo)
	// deriveHistograms computes each node's histogram as parent minus
	// built sibling, consuming the parent's entry (Section 2.1.2).
	deriveHistograms(toDerive []*nodeInfo)
	// findSplits locates each frontier node's best split, with the work
	// placed where the quadrant's aggregation puts it.
	findSplits(frontier []*nodeInfo) map[int32]histogram.Split
	// applyLayer propagates one layer's split placements into the
	// engine's node/instance indexes.
	applyLayer(splits map[int32]histogram.Split, children map[int32][2]int32)
	// childStats fills count and gradient totals of the new children.
	childStats(nodes []*nodeInfo)
	// updatePredictions adds the finished tree's leaf weights to the raw
	// scores of every instance.
	updatePredictions(tr *tree.Tree)
	// resetIndexes returns the engine's node/instance indexes to the
	// single-root state at the start of each tree.
	resetIndexes()

	// Histogram lifecycle: the engine owns its histogram maps and the
	// memory-gauge accounting that goes with them.

	// clearHists releases every live histogram back to the pool.
	clearHists()
	// dropHist releases one node's histogram, if present.
	dropHist(id int32)
	// usesSubtraction reports whether the engine derives sibling
	// histograms by subtraction (false only for QD1, which builds both
	// children of every split).
	usesSubtraction() bool
}

// siblingOf returns the sibling's node id: children are always created in
// pairs (left = parent's recorded left child).
func siblingOf(nd *nodeInfo) int32 {
	// Children pairs are allocated adjacently by tree.Split: left is even
	// offset, right = left+1. The derive node's sibling is the adjacent id.
	if nd.id%2 == 1 { // left children have odd ids (root=0, then 1,2,3,4...)
		return nd.id + 1
	}
	return nd.id - 1
}

// subtractSiblings derives each node's histogram in hm as parent minus
// built sibling, reusing the parent's storage (the parent entry is
// consumed).
func subtractSiblings(hm map[int32]*histogram.Hist, toDerive []*nodeInfo) {
	for _, nd := range toDerive {
		parent := hm[nd.parent]
		parent.Sub(hm[siblingOf(nd)])
		hm[nd.id] = parent
		delete(hm, nd.parent)
	}
}
