package core

import (
	"fmt"
	"os"
	"runtime"

	"vero/internal/cluster"
	"vero/internal/datasets"
	"vero/internal/failpoint"
	"vero/internal/histogram"
	"vero/internal/loss"
	"vero/internal/partition"
	"vero/internal/sparse"
	"vero/internal/tree"
)

// Phase labels used in the cluster's statistics.
const (
	phaseGrad   = "train.gradient"
	phaseHist   = "train.histogram"
	phaseSplit  = "train.split"
	phaseNode   = "train.node"
	phaseUpdate = "train.update"
)

const noParent = int32(-1)

// nodeInfo tracks one active tree node during layer-wise growth.
type nodeInfo struct {
	id     int32
	count  int
	totalG []float64
	totalH []float64
	// buildDirect marks nodes whose histograms are constructed by
	// scanning instances; the sibling of a built node is derived by
	// subtraction when the quadrant supports it.
	buildDirect bool
	parent      int32
}

// trainer runs the quadrant-agnostic layer-wise boosting loop. Everything
// quadrant-specific — data shards, node/instance indexes, histogram maps
// and their memory accounting — lives behind the engine interface; the
// trainer holds only state every policy shares.
type trainer struct {
	cl  *cluster.Cluster
	cfg Config
	ds  *datasets.Dataset
	obj loss.Objective

	n, d, c, w int
	finder     histogram.Finder
	// pool recycles histogram buffers across nodes, layers and trees; all
	// histogram allocation in the training loop goes through it.
	pool *histogram.Pool

	binner        *sparse.Binner
	numBinsGlobal []int
	maxBins       int
	// ranges is the dataset's incoming horizontal layout: the row range
	// each worker holds before any repartitioning. All quadrants sketch
	// from it; the horizontal engine also trains on it.
	ranges [][2]int

	preds, grads, hessv []float64 // n*c, row-major

	// ckptConfigHash and ckptDataFP fingerprint this run for checkpoint
	// matching; set by Train only when checkpointing is on.
	ckptConfigHash string
	ckptDataFP     string

	// reads latches the first failed block read of the engines' column
	// readers; sizes is the scratch sizing of an out-of-core run
	// (ds.OutOfCore()), zero for materialized datasets.
	reads readErr
	sizes streamSizes
	// peakHeap is the heap high-water mark sampled at tree boundaries.
	peakHeap uint64
	// transform is the wire report of QD4's horizontal-to-vertical
	// transformation, zero for every other layout.
	transform partition.ByteReport

	// eng is the quadrant strategy prep.go constructed for cfg.Quadrant.
	eng engine
}

// sampleHeap updates the heap high-water mark from the runtime.
func (t *trainer) sampleHeap() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > t.peakHeap {
		t.peakHeap = ms.HeapAlloc
	}
}

// allocRunState allocates the per-run prediction and gradient buffers,
// seeding every instance's predictions with initScore.
func (t *trainer) allocRunState(initScore []float64) {
	t.preds = make([]float64, t.n*t.c)
	for i := 0; i < t.n; i++ {
		copy(t.preds[i*t.c:(i+1)*t.c], initScore)
	}
	t.grads = make([]float64, t.n*t.c)
	t.hessv = make([]float64, t.n*t.c)
}

// The two gradient passes below and the nodeIndex passes (sums, addLeaves)
// are every loop over preds, grads and hessv outside allocRunState and the
// histogram kernels; the engines decide only where they run (per worker,
// or replicated). Each accumulator keeps one order: for C = 1 a local sum
// from +0 (never -0, so adding it into a zeroed destination is exact), for
// C > 1 in place, both in ascending instance order.

// gradRange refreshes the gradients and hessians of instances [lo, hi).
func (t *trainer) gradRange(lo, hi int) {
	labels := t.ds.Labels
	for i := lo; i < hi; i++ {
		t.obj.GradHess(t.preds[i*t.c:(i+1)*t.c], labels[i], t.grads[i*t.c:(i+1)*t.c], t.hessv[i*t.c:(i+1)*t.c])
	}
}

// sumRows adds the gradient and hessian totals of instances [lo, hi) into
// the zeroed g and h.
func (t *trainer) sumRows(lo, hi int, g, h []float64) {
	if t.c == 1 {
		var sg, sh float64
		for i := lo; i < hi; i++ {
			sg += t.grads[i]
			sh += t.hessv[i]
		}
		g[0] += sg
		h[0] += sh
		return
	}
	for i := lo; i < hi; i++ {
		for k := 0; k < t.c; k++ {
			g[k] += t.grads[i*t.c+k]
			h[k] += t.hessv[i*t.c+k]
		}
	}
}

// setChildStats unpacks the totals and counts nodeIndex.sums wrote, 2C+1
// entries per node, into the nodes.
func (t *trainer) setChildStats(nodes []*nodeInfo, sums []float64) {
	for i, nd := range nodes {
		o := sums[i*(2*t.c+1):]
		nd.totalG = append([]float64(nil), o[:t.c]...)
		nd.totalH = append([]float64(nil), o[t.c:2*t.c]...)
		nd.count = int(o[2*t.c])
	}
}

func (t *trainer) run(ck *checkpoint) (*Result, error) {
	initScore := t.obj.InitScore(t.ds.Labels)
	t.allocRunState(initScore)
	forest := tree.NewForest(t.c, t.cfg.LearningRate, initScore, t.obj.Name(), t.d)
	// Record the candidate splits the trees' thresholds were drawn from
	// (Forest.Splits, part of the model encoding). The inner slices are
	// immutable after preparation and safe to share.
	forest.Splits = append([][]float32(nil), t.binner.Splits...)

	start := 0
	if ck != nil {
		// Adopt the checkpointed trees and replay them through the engine
		// so the prediction state is bit-identical to having trained them;
		// boosting then continues from round start.
		forest.Trees = ck.forest.Trees
		t.resume(ck)
		start = ck.round
	}

	prepComp, prepComm, _ := t.cl.Stats().Totals()
	lastComp, lastComm := prepComp, prepComm
	res := &Result{Forest: forest, StartRound: start, PrepSeconds: prepComp + prepComm, TransformBytes: t.transform}

	t.sampleHeap()
	ckptPath := t.checkpointPath()
	for ti := start; ti < t.cfg.Trees; ti++ {
		t.eng.computeGradients()
		tr := t.trainTree()
		// A block read failure is sticky (only a mapped source can fail):
		// abort at the tree boundary rather than appending a tree built from
		// partial data (its histograms saw garbage after the failure point).
		if err := t.reads.get(); err != nil {
			return nil, fmt.Errorf("core: out-of-core training aborted during round %d: %w", ti+1, err)
		}
		// A transport failure is likewise sticky (the collectives record
		// it and return without reducing): abort at the tree boundary
		// rather than appending a tree whose histograms never left the
		// local rank.
		if err := t.cl.Err(); err != nil {
			return nil, fmt.Errorf("core: distributed training aborted during round %d: %w", ti+1, err)
		}
		t.sampleHeap()
		forest.Append(tr)
		if ckptPath != "" && (ti+1)%t.cfg.CheckpointEvery == 0 && ti+1 < t.cfg.Trees {
			// A failed save is non-fatal: the run keeps training with the
			// previous checkpoint (or none) on disk and reports the error.
			if err := t.saveCheckpoint(ckptPath, forest, ti+1); err != nil {
				res.CheckpointErr = err
			}
		}
		if err := failpoint.Inject(FailpointAfterTree); err != nil {
			return nil, fmt.Errorf("core: training aborted after round %d: %w", ti+1, err)
		}
		comp, comm, _ := t.cl.Stats().Totals()
		res.PerTreeSeconds = append(res.PerTreeSeconds, (comp-lastComp)+(comm-lastComm))
		lastComp, lastComm = comp, comm
		if t.cfg.OnTree != nil {
			t.cfg.OnTree(ti, (comp-prepComp)+(comm-prepComm), tr)
		}
		if t.cfg.ShouldStop != nil && t.cfg.ShouldStop(ti) {
			break
		}
	}
	if ckptPath != "" {
		// The run completed; a stale checkpoint would resume a finished
		// model, so remove it.
		if err := os.Remove(ckptPath); err != nil && !os.IsNotExist(err) {
			res.CheckpointErr = err
		}
	}
	// Release the final tree's remaining histograms (the last layer's
	// split parents, kept for subtraction, are otherwise only cleared
	// lazily at the next tree's start) so the memory gauge balances.
	t.eng.clearHists()
	comp, comm, _ := t.cl.Stats().Totals()
	res.CompSeconds = comp
	res.CommSeconds = comm
	res.PeakHeapBytes = t.peakHeap
	return res, nil
}

// trainTree grows one tree layer by layer.
func (t *trainer) trainTree() *tree.Tree {
	tr := tree.New(t.c)
	t.eng.resetIndexes()
	t.eng.clearHists()

	root := &nodeInfo{id: tr.Root(), count: t.n, buildDirect: true, parent: noParent}
	root.totalG, root.totalH = t.eng.rootTotals()
	frontier := []*nodeInfo{root}

	for layer := 1; layer < t.cfg.Layers && len(frontier) > 0; layer++ {
		var toBuild, toDerive []*nodeInfo
		for _, nd := range frontier {
			if nd.buildDirect {
				toBuild = append(toBuild, nd)
			} else {
				toDerive = append(toDerive, nd)
			}
		}
		if len(toBuild) > 0 {
			t.eng.buildHistograms(toBuild)
		}
		if len(toDerive) > 0 {
			t.eng.deriveHistograms(toDerive)
		}
		splits := t.eng.findSplits(frontier)
		frontier = t.applySplits(tr, frontier, splits)
	}
	for _, nd := range frontier {
		t.setLeaf(tr, nd)
		t.eng.dropHist(nd.id)
	}
	t.eng.updatePredictions(tr)
	return tr
}

func (t *trainer) setLeaf(tr *tree.Tree, nd *nodeInfo) {
	tr.SetLeaf(nd.id, t.finder.LeafWeights(nd.totalG, nd.totalH))
}

// applySplits finalizes leaves, splits the rest, propagates placements and
// computes child statistics. It returns the next layer's frontier.
func (t *trainer) applySplits(tr *tree.Tree, frontier []*nodeInfo, splits map[int32]histogram.Split) []*nodeInfo {
	type splitJob struct {
		parent *nodeInfo
		sp     histogram.Split
		left   int32
		right  int32
	}
	var jobs []*splitJob
	for _, nd := range frontier {
		sp, ok := splits[nd.id]
		if !ok || !sp.Valid {
			t.setLeaf(tr, nd)
			t.eng.dropHist(nd.id)
			continue
		}
		splitValue := t.binner.Splits[sp.Feature][sp.Bin]
		l, r := tr.Split(nd.id, int32(sp.Feature), splitValue, uint16(sp.Bin), sp.DefaultLeft, sp.Gain)
		jobs = append(jobs, &splitJob{parent: nd, sp: sp, left: l, right: r})
	}
	if len(jobs) == 0 {
		return nil
	}

	layerSplits := make(map[int32]histogram.Split, len(jobs))
	children := make(map[int32][2]int32, len(jobs))
	for _, j := range jobs {
		layerSplits[j.parent.id] = j.sp
		children[j.parent.id] = [2]int32{j.left, j.right}
	}
	t.eng.applyLayer(layerSplits, children)

	// Without subtraction, parent histograms have no further use: drop
	// them now instead of carrying them to the next layer.
	subtract := t.eng.usesSubtraction()
	if !subtract {
		for _, j := range jobs {
			t.eng.dropHist(j.parent.id)
		}
	}

	var next []*nodeInfo
	for _, j := range jobs {
		left := &nodeInfo{id: j.left, parent: j.parent.id}
		right := &nodeInfo{id: j.right, parent: j.parent.id}
		next = append(next, left, right)
	}
	t.eng.childStats(next)
	// Histogram subtraction schedule: build the smaller child, derive the
	// sibling (Section 2.1.2). Without subtraction both children build.
	for i := 0; i < len(next); i += 2 {
		l, r := next[i], next[i+1]
		if !subtract {
			l.buildDirect, r.buildDirect = true, true
			continue
		}
		if l.count <= r.count {
			l.buildDirect = true
		} else {
			r.buildDirect = true
		}
	}
	return next
}
