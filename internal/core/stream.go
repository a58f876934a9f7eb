package core

import (
	"fmt"
	"math/bits"
	"sync"

	"vero/internal/bitmap"
	"vero/internal/cluster"
	"vero/internal/datasets"
	"vero/internal/histogram"
	"vero/internal/index"
	"vero/internal/partition"
)

// Out-of-core training. When the dataset is served by a
// datasets.BlockSource (an mmap-backed .vbin view) instead of a
// materialized matrix, the engines replace every data access with
// streamed block reads through a colStream: column scans arrive in
// fixed-size entry chunks, the row-store quadrants (QD2, QD4) build their
// histograms from the column segments of one row block at a time, node
// splits place a node's instances by merging its ascending instance list
// against the split column, and point probes become binary searches over
// the mapped column ranges. Resident scratch is bounded by
// Config.MemBudget.
//
// The image is column-major, so over it the streamed row-store quadrants
// scan column segments; no row store is ever rebuilt. The invariant every
// streamed path preserves is bit-identity with the in-memory engines:
// chunking a sequential scan never reorders the additions flowing into any
// single accumulator, a histogram cell (node, feature, bin) receives its
// additions in ascending instance order whether the node's rows or the
// feature's column drive the scan, and aggregation inputs and reduction
// order are unchanged — so the trained forest's encoded bytes match the
// in-memory run for any block size.

// defaultMemBudget bounds resident streaming scratch when Config.MemBudget
// is unset.
const defaultMemBudget int64 = 64 << 20

// minDerivedChunk floors the derived column-chunk size so a tiny budget
// cannot degrade scans to per-entry reads; explicit Config.BlockNNZ
// overrides may go all the way down to one entry (the block-boundary
// tests do).
const minDerivedChunk = 256

// maxBlockRows caps the derived row-block size. The budget would allow
// far more 2-byte slots, but a block's columns all route through the same
// rows' slots and gradients, and those stay cache-resident only for a
// bounded block: on the 200k x 100 benchmark image 16Ki-row blocks train
// ~8 % faster than one whole-range block and ~20 % faster than 2Ki-row
// ones (per-block column searches).
const maxBlockRows = 1 << 14

// colStream provides budgeted, chunked access to an out-of-core block
// source for every worker. Each worker owns scratch for one column chunk;
// read failures are sticky — the first error is recorded and the trainer
// aborts the run at the next tree boundary with a descriptive error
// instead of crashing mid-scan.
type colStream struct {
	src       datasets.BlockSource
	chunk     int // entries per column-chunk read
	blockRows int // rows per histogram row block
	perWorker int64

	inst [][]uint32
	bins [][]uint16

	mu  sync.Mutex
	err error
}

// newColStream sizes the streaming scratch from the configuration;
// explicit BlockNNZ/BlockRows override the derived sizes (tests use them
// to pin block-boundary edge cases).
func newColStream(src datasets.BlockSource, w int, cfg Config) *colStream {
	budget := cfg.MemBudget
	if budget <= 0 {
		budget = defaultMemBudget
	}
	s := &colStream{src: src}
	// A column-chunk entry costs 6 bytes of scratch (uint32 instance +
	// uint16 bin); a quarter of the budget serves the column chunks. A row
	// block costs one 2-byte build-node slot per row (blockScan.slot): up
	// to another quarter, though maxBlockRows keeps it to 32 KiB a worker
	// in practice. The rest is headroom for histograms and trainer state,
	// so whole-run peak heap stays under the budget rather than matching
	// it.
	s.chunk = int(budget / 4 / int64(w) / 6)
	if s.chunk < minDerivedChunk {
		s.chunk = minDerivedChunk
	}
	if cfg.BlockNNZ > 0 {
		s.chunk = cfg.BlockNNZ
	}
	s.blockRows = int(min(budget/4/int64(w)/2, maxBlockRows))
	if s.blockRows < 1 {
		s.blockRows = 1
	}
	if cfg.BlockRows > 0 {
		s.blockRows = cfg.BlockRows
	}
	s.perWorker = budget / int64(w)
	s.inst = make([][]uint32, w)
	s.bins = make([][]uint16, w)
	for i := 0; i < w; i++ {
		s.inst[i] = make([]uint32, s.chunk)
		s.bins[i] = make([]uint16, s.chunk)
	}
	return s
}

// fail records the first streaming error; later errors are dropped.
func (s *colStream) fail(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

// ok returns the sticky streaming error, if any.
func (s *colStream) ok() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// failed reports cheaply whether a streaming error was recorded.
func (s *colStream) failed() bool { return s.ok() != nil }

// scan streams the entry range [lo, hi) through fn in chunks, using
// worker w's scratch. When rebase is nonzero the instance ids are copied
// into scratch and shifted down by rebase (the horizontal quadrants index
// per-shard state with shard-local ids; the mapped view is read-only, so
// rebasing must not touch zero-copy slices). Returns false after
// recording a read failure.
func (s *colStream) scan(w int, lo, hi int64, rebase int, fn func(insts []uint32, bins []uint16)) bool {
	for lo < hi {
		n := hi - lo
		if n > int64(s.chunk) {
			n = int64(s.chunk)
		}
		ri, rb, err := s.src.Entries(lo, lo+n, s.inst[w], s.bins[w])
		if err != nil {
			s.fail(err)
			return false
		}
		if rebase != 0 && len(ri) > 0 {
			buf := s.inst[w][:len(ri)]
			if &buf[0] != &ri[0] {
				copy(buf, ri)
			}
			for k := range buf {
				buf[k] -= uint32(rebase)
			}
			ri = buf
		}
		fn(ri, rb)
		lo += n
	}
	return true
}

// search wraps SearchInst with sticky error recording; on failure it
// returns hi (an empty residual range).
func (s *colStream) search(lo, hi int64, inst uint32) int64 {
	pos, err := s.src.SearchInst(lo, hi, inst)
	if err != nil {
		s.fail(err)
		return hi
	}
	return pos
}

// entryRange returns the entry range of column col restricted to global
// rows [rowLo, rowHi).
func (s *colStream) entryRange(col, rowLo, rowHi int) (int64, int64) {
	lo, hi := s.src.ColRange(col)
	if rowLo > 0 {
		lo = s.search(lo, hi, uint32(rowLo))
	}
	if rowHi < s.src.Rows() {
		hi = s.search(lo, hi, uint32(rowHi))
	}
	return lo, hi
}

// lookup probes [lo, hi) — a range within one column — for instance inst,
// the streamed equivalent of searchColumn over a materialized column. On a
// read failure it reports the instance missing; the sticky error aborts the
// run at the tree boundary, so the garbage placement is never observed in
// a result.
func (s *colStream) lookup(lo, hi int64, inst uint32) (uint16, bool) {
	bin, found, err := s.src.LookupInst(lo, hi, inst)
	if err != nil {
		s.fail(err)
		return 0, false
	}
	return bin, found
}

// probesCheaper is the paper's hybrid cost test (Section 5.2.2): one
// binary search per node instance beats a linear pass over colLen column
// entries when colLen > |node|·(⌈log₂ colLen⌉+1).
func probesCheaper(colLen, nodeLen int) bool {
	return colLen > nodeLen*(bits.Len(uint(colLen))+1)
}

// initStream validates the out-of-core configuration and sizes the
// streaming scratch. Called by prepare before the engine is constructed.
func (t *trainer) initStream() error {
	if !t.ds.OutOfCore() {
		return nil
	}
	if t.ds.Prebin == nil || !t.ds.Prebin.Quantized {
		return fmt.Errorf("core: out-of-core training requires a binned cache view with its prebin (map a .vbin cache)")
	}
	if t.cfg.Quadrant == QD3 && t.cfg.ColumnIndex == IndexColumnWise {
		return fmt.Errorf("core: the column-wise index (Yggdrasil) materializes whole columns and cannot stream; use the hybrid index for out-of-core QD3")
	}
	if t.cfg.Quadrant == QD4 && t.cfg.FullCopy {
		return fmt.Errorf("core: feature-parallel full copy replicates the dataset on every worker and cannot stream; disable FullCopy for out-of-core QD4")
	}
	t.stream = newColStream(t.ds.Blocks, t.w, t.cfg)
	return nil
}

// maxBlockSlots is how many build nodes one blockScan pass can route: a
// slot is a uint16 with 0 reserved for "no build node".
const maxBlockSlots = 1<<16 - 1

// blockScan builds the histograms of a streamed row-store quadrant (QD2,
// QD4) in one forward pass per layer over a worker's columns: per-column
// cursors advance through the global row range one row block at a time,
// the block's rows are marked with the slot of the build node they sit on,
// and each column's segment inside the block streams through
// histogram.ColumnScanBlock. Only the cursors and the 2-byte-per-row slot
// array are resident.
type blockScan struct {
	s            *colStream
	w            int
	rowLo, rowHi int
	cols         []int // global feature ids, ascending; cols[i] fills feature slot i

	cur, end []int64  // per-column cursor / end of the restricted range
	slot     []uint16 // block-local: 1 + build-node index of each row, 0 = none
}

// newBlockScan prepares a scan over global rows [rowLo, rowHi) of the
// given columns.
func newBlockScan(s *colStream, w, rowLo, rowHi int, cols []int) *blockScan {
	return &blockScan{
		s: s, w: w, rowLo: rowLo, rowHi: rowHi, cols: cols,
		cur:  make([]int64, len(cols)),
		end:  make([]int64, len(cols)),
		slot: make([]uint16, min(s.blockRows, rowHi-rowLo)),
	}
}

// build accumulates hs[i] over the rows lists[i] — ascending ids relative
// to rowLo, the node-to-instance index's order. It stops early after a
// read failure (sticky on the colStream).
func (b *blockScan) build(hs []*histogram.Hist, lists [][]uint32, grad, hess []float64) {
	for lo := 0; lo < len(hs); lo += maxBlockSlots {
		hi := min(lo+maxBlockSlots, len(hs))
		b.pass(hs[lo:hi], lists[lo:hi], grad, hess)
	}
}

// pass is build for at most maxBlockSlots nodes.
func (b *blockScan) pass(hs []*histogram.Hist, lists [][]uint32, grad, hess []float64) {
	s := b.s
	for i, f := range b.cols {
		b.cur[i], b.end[i] = s.entryRange(f, b.rowLo, b.rowHi)
	}
	pos := make([]int, len(lists))
	for start := b.rowLo; start < b.rowHi; start += s.blockRows {
		end := min(start+s.blockRows, b.rowHi)
		slot := b.slot[:end-start]
		clear(slot)
		for i, list := range lists {
			k := pos[i]
			for ; k < len(list) && b.rowLo+int(list[k]) < end; k++ {
				slot[b.rowLo+int(list[k])-start] = uint16(i + 1)
			}
			pos[i] = k
		}
		for i := range b.cols {
			segEnd := b.end[i]
			if end < b.rowHi {
				segEnd = s.search(b.cur[i], b.end[i], uint32(end))
			}
			if s.failed() {
				return
			}
			if !s.scan(b.w, b.cur[i], segEnd, 0, func(insts []uint32, bins []uint16) {
				histogram.ColumnScanBlock(hs, i, insts, bins, start, slot, grad, hess)
			}) {
				return
			}
			b.cur[i] = segEnd
		}
	}
}

// allFeatures returns [0..d) — the column set of a horizontal row shard.
func allFeatures(d int) []int {
	cols := make([]int, d)
	for f := range cols {
		cols[f] = f
	}
	return cols
}

// place writes the placement bits (set = left child) of one splitting
// node's instances — ascending ids relative to base, bit positions
// likewise — from the mapped split column. Instance list and column are
// both ascending, so placement is a two-pointer merge over the column
// range the list spans; where probesCheaper says so, each instance is
// probed instead. On a read failure the remaining
// instances keep the default direction; the sticky error aborts the run at
// the tree boundary, so the garbage placement is never observed.
func (s *colStream) place(w int, sp resolvedSplit, insts []uint32, base int, bm *bitmap.Bitmap) {
	for _, inst := range insts {
		bm.SetTo(int(inst), sp.defaultLeft)
	}
	if len(insts) == 0 {
		return
	}
	lo, hi := s.src.ColRange(sp.feature)
	lo = s.search(lo, hi, uint32(base)+insts[0])
	hi = s.search(lo, hi, uint32(base)+insts[len(insts)-1]+1)
	if s.failed() {
		return
	}
	if probesCheaper(int(hi-lo), len(insts)) {
		for _, inst := range insts {
			if bin, ok := s.lookup(lo, hi, uint32(base)+inst); ok {
				bm.SetTo(int(inst), int(bin) <= sp.bin)
			}
		}
		return
	}
	k := 0
	s.scan(w, lo, hi, 0, func(colInsts []uint32, bins []uint16) {
		for j, ci := range colInsts {
			inst := ci - uint32(base)
			for k < len(insts) && insts[k] < inst {
				k++
			}
			if k < len(insts) && insts[k] == inst {
				bm.SetTo(int(inst), int(bins[j]) <= sp.bin)
			}
		}
	})
}

// ---- horizontal engine, streamed (QD1/QD2) ----

// prepareStreamed sets up the horizontal quadrants without materializing
// shards: indexes cover the worker row ranges, and the data gauge charges
// the per-worker streaming scratch budget instead of shard bytes.
func (e *horizontalEngine) prepareStreamed() error {
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
	dataGauge := t.cl.Stats().Mem("data")
	if t.cfg.Quadrant == QD2 {
		e.n2i = make([]*index.NodeToInstance, t.w)
		e.blocks = make([]*blockScan, t.w)
		e.placed = make([]*bitmap.Bitmap, t.w)
		cols := allFeatures(t.d)
		// ParallelLocal: on a distributed cluster each rank builds only its
		// hosted worker's index and block scan — the aggregation path
		// (sumLocalInto) requires the locals' shape to match the hosting.
		t.cl.ParallelLocal("prep.bin", func(w int) {
			lo, hi := t.ranges[w][0], t.ranges[w][1]
			e.n2i[w] = index.NewNodeToInstance(hi - lo)
			e.blocks[w] = newBlockScan(t.stream, w, lo, hi, cols)
			e.placed[w] = bitmap.New(hi - lo)
			dataGauge.Set(w, t.stream.perWorker)
		})
		return t.stream.ok()
	}
	e.i2n = make([]*index.InstanceToNode, t.w)
	t.cl.ParallelLocal("prep.bin", func(w int) {
		lo, hi := t.ranges[w][0], t.ranges[w][1]
		e.i2n[w] = index.NewInstanceToNode(hi - lo)
		dataGauge.Set(w, t.stream.perWorker)
	})
	return t.stream.ok()
}

// nodeLists returns each node's (ascending) instance list.
func nodeLists(idx *index.NodeToInstance, nodes []*nodeInfo) [][]uint32 {
	lists := make([][]uint32, len(nodes))
	for i, nd := range nodes {
		lists[i] = idx.Instances(nd.id)
	}
	return lists
}

// buildHistogramsStreamedQD2 is buildHistograms for streamed QD2: each
// worker builds every build node's local histogram in one blockScan pass
// over its row range, so the data is read once per layer regardless of the
// node count. Per histogram cell the accumulation order (ascending
// instances) and the per-node aggregation order over workers are exactly
// the in-memory ones, so the result is bit-identical.
func (e *horizontalEngine) buildHistogramsStreamedQD2(toBuild []*nodeInfo) {
	t := e.t
	locals := make([][]*histogram.Hist, len(toBuild))
	for i := range locals {
		locals[i] = make([]*histogram.Hist, t.w)
	}
	t.cl.ParallelLocal(phaseHist, func(w int) {
		hs := make([]*histogram.Hist, len(toBuild))
		for i := range hs {
			hs[i] = t.pool.Get(e.layout)
			locals[i][w] = hs[i]
		}
		e.blocks[w].build(hs, nodeLists(e.n2i[w], toBuild), t.grads, t.hessv)
	})
	for i, nd := range toBuild {
		e.aggregate(nd.id, locals[i])
		for _, h := range locals[i] {
			if h != nil { // distributed ranks fill only their hosted slot
				t.pool.Put(h)
			}
		}
	}
}

// buildHistogramsStreamedQD1 is the streamed QD1 pass: identical routed
// column-scan structure, with each worker's column restricted to its row
// range by two binary searches and streamed in chunks. Chunking preserves
// the per-accumulator addition order, and the worker-order merge is
// unchanged, so the aggregated histograms are bit-identical.
func (e *horizontalEngine) buildHistogramsStreamedQD1(toBuild []*nodeInfo, slot []int32, acc []*histogram.Hist, merged []chan struct{}) {
	t := e.t
	t.cl.ParallelLocal(phaseHist, func(w int) {
		stride := e.layout.FloatsPerSide()
		ag, ah := e.flatScratch(w, stride*len(toBuild))
		nodeOf := e.i2n[w].Assignments()
		base := t.ranges[w][0]
		rowLo, rowHi := t.ranges[w][0], t.ranges[w][1]
		for j := 0; j < t.d && !t.stream.failed(); j++ {
			lo, hi := t.stream.entryRange(j, rowLo, rowHi)
			t.stream.scan(w, lo, hi, base, func(insts []uint32, bins []uint16) {
				histogram.ColumnScanRouted(ag, ah, stride, e.layout, j, insts, bins, nodeOf, slot, t.grads, t.hessv, base)
			})
		}
		// A distributed rank hosts one worker; its predecessor's channel is
		// never closed locally (the AllReduce below replaces the chain).
		if w > 0 && t.cl.HostsWorker(w-1) {
			<-merged[w-1]
		}
		for i := range acc {
			acc[i].Merge(&histogram.Hist{Layout: e.layout,
				Grad: ag[i*stride : (i+1)*stride], Hess: ah[i*stride : (i+1)*stride]})
		}
		close(merged[w])
	})
}

// applyLayerStreamed updates the horizontal indexes from the mapped split
// columns (global instance ids): QD2 places each splitting node by
// colStream.place, QD1 probes each instance by binary search — the
// column-store node-splitting cost of Section 3.2.3. The placement
// decisions are the same booleans the materialized shards produce.
func (e *horizontalEngine) applyLayerStreamed(splits map[int32]resolvedSplit, children map[int32][2]int32) {
	t := e.t
	t.cl.Broadcast(phaseNode, int64(len(splits))*splitWireBytes)
	if t.cfg.Quadrant == QD2 {
		t.cl.ParallelLocal(phaseNode, func(w int) {
			bm := e.placed[w]
			goesLeft := func(inst uint32) bool { return bm.Get(int(inst)) }
			for parent, ch := range children {
				t.stream.place(w, splits[parent], e.n2i[w].Instances(parent), t.ranges[w][0], bm)
				e.n2i[w].Split(parent, ch[0], ch[1], goesLeft)
			}
		})
		return
	}
	t.cl.ParallelLocal(phaseNode, func(w int) {
		base := t.ranges[w][0]
		i2n := e.i2n[w]
		i2n.SplitLayer(children, func(inst uint32) bool {
			sp := splits[i2n.Node(inst)]
			lo, hi := t.stream.src.ColRange(sp.feature)
			bin, ok := t.stream.lookup(lo, hi, uint32(base)+inst)
			if !ok {
				return sp.defaultLeft
			}
			return int(bin) <= sp.bin
		})
	})
}

// ---- vertical engine, streamed (QD3 hybrid / QD4 Vero) ----

// prepareStreamedQD3 mirrors the QD3 preparation without materializing
// the per-worker column shards: groups, indexes and charges are identical
// (the repartition shuffle is charged from the source's entry count), but
// column data stays on disk.
func (e *verticalEngine) prepareStreamedQD3() error {
	t := e.t
	featCount, err := t.distributedSketch()
	if err != nil {
		return err
	}
	if err := t.checkMaxBins(); err != nil {
		return err
	}
	e.groups = partition.GroupColumnsBalanced(featCount, t.w)
	e.buildFeatureMaps()
	dataGauge := t.cl.Stats().Mem("data")
	e.numBins = make([][]int, t.w)
	e.n2i = make([]*index.NodeToInstance, t.w)
	e.i2n = make([]*index.InstanceToNode, t.w)
	e.hist = make([]map[int32]*histogram.Hist, t.w)
	e.layout = make([]histogram.Layout, t.w)
	t.cl.Parallel("prep.bin", func(w int) {
		numBins := make([]int, len(e.groups[w]))
		for slot, f := range e.groups[w] {
			numBins[slot] = len(t.binner.Splits[f])
		}
		e.numBins[w] = numBins
		e.n2i[w] = index.NewNodeToInstance(t.n)
		e.i2n[w] = index.NewInstanceToNode(t.n)
		e.layout[w] = histogram.Layout{NumFeat: len(e.groups[w]), MaxBins: t.maxBins, NumClass: t.c}
		e.hist[w] = make(map[int32]*histogram.Hist)
		dataGauge.Set(w, t.stream.perWorker+int64(t.n)*4)
	})
	shuffleBytes := t.ds.NNZ() * 12 * int64(t.w-1) / int64(t.w)
	t.cl.ChargeComm("prep.repartition", cluster.OpShuffle, shuffleBytes, t.commSeconds(shuffleBytes, t.w-1))
	t.cl.Broadcast("prep.labels", int64(t.n)*4)
	return t.stream.ok()
}

// prepareStreamedVero mirrors prepareVero: the transformation's grouping
// and wire charges are computed from the mapped columns
// (partition.TransformStreamed), and each worker gets a blockScan over its
// feature group instead of materialized shards; a group's i-th feature is
// the worker's feature slot i, as in the materialized transformation.
func (e *verticalEngine) prepareStreamedVero() error {
	t := e.t
	pb, err := t.usablePrebin()
	if err != nil {
		return err
	}
	if pb == nil {
		return fmt.Errorf("core: out-of-core QD4 requires ingestion-derived splits (train from a .vbin cache)")
	}
	res, err := partition.TransformStreamed(t.cl, t.ds.Blocks, t.ds.Labels, partition.Options{
		Q:         t.cfg.Splits,
		SketchEps: t.cfg.SketchEps,
		Charge:    t.cfg.TransformCharge,
		Splits:    pb.Splits,
		FeatCount: pb.FeatCount,
	})
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
	e.n2i = make([]*index.NodeToInstance, t.w)
	e.hist = make([]map[int32]*histogram.Hist, t.w)
	e.layout = make([]histogram.Layout, t.w)
	e.numBins = make([][]int, t.w)
	e.blocks = make([]*blockScan, t.w)
	dataGauge := t.cl.Stats().Mem("data")
	for w := 0; w < t.w; w++ {
		e.n2i[w] = index.NewNodeToInstance(t.n)
		e.layout[w] = histogram.Layout{NumFeat: len(e.groups[w]), MaxBins: t.maxBins, NumClass: t.c}
		e.hist[w] = make(map[int32]*histogram.Hist)
		numBins := make([]int, len(e.groups[w]))
		for slot, f := range e.groups[w] {
			numBins[slot] = len(t.binner.Splits[f])
		}
		e.numBins[w] = numBins
		e.blocks[w] = newBlockScan(t.stream, w, 0, t.n, e.groups[w])
		dataGauge.Set(w, t.stream.perWorker+int64(t.n)*4)
	}
	return t.stream.ok()
}

// buildHistogramsStreamedVertical is buildHistograms for the streamed
// vertical quadrants. QD4 builds every node in one blockScan pass over the
// worker's feature group (one data pass per layer); QD3 runs the hybrid
// per-node plan with streamed linear scans and mapped binary probes. Both
// preserve the in-memory accumulation order exactly.
func (e *verticalEngine) buildHistogramsStreamedVertical(toBuild []*nodeInfo) {
	t := e.t
	mem := t.cl.Stats().Mem("histogram")
	t.cl.Parallel(phaseHist, func(w int) {
		hs := make([]*histogram.Hist, len(toBuild))
		for i := range hs {
			hs[i] = t.pool.Get(e.layout[w])
			mem.Add(w, e.layout[w].SizeBytes())
		}
		if t.cfg.Quadrant == QD4 {
			e.blocks[w].build(hs, nodeLists(e.n2i[w], toBuild), t.grads, t.hessv)
		} else {
			for i, nd := range toBuild {
				e.buildHybridStreamed(w, nd, hs[i])
			}
		}
		for i, nd := range toBuild {
			e.hist[w][nd.id] = hs[i]
		}
	})
}

// buildHybridStreamed is buildHybrid over mapped columns: the same
// cost test chooses between a chunked linear scan and per-instance
// binary probes, with identical accumulation order in both arms.
func (e *verticalEngine) buildHybridStreamed(w int, nd *nodeInfo, h *histogram.Hist) {
	t := e.t
	nodeOf := e.i2n[w].Assignments()
	nodeInsts := e.n2i[w].Instances(nd.id)
	for _, f := range e.groups[w] {
		j := int(e.slotOf[f])
		lo, hi := t.stream.src.ColRange(f)
		colLen := int(hi - lo)
		if colLen == 0 {
			continue
		}
		if t.stream.failed() {
			return
		}
		if !probesCheaper(colLen, len(nodeInsts)) {
			t.stream.scan(w, lo, hi, 0, func(insts []uint32, binsArr []uint16) {
				h.ColumnScanNode(j, insts, binsArr, nodeOf, nd.id, t.grads, t.hessv)
			})
			continue
		}
		for _, inst := range nodeInsts {
			bin, ok := t.stream.lookup(lo, hi, inst)
			if !ok {
				continue
			}
			h.AddFlat(j, int(bin), t.grads, t.hessv, int(inst)*t.c)
		}
	}
}

// fillPlacementStreamed writes one splitting node's placement bits from
// the mapped split-feature column: QD4 merges the node's instance list
// against it (colStream.place), QD3 streams the column linearly with
// node-membership checks — the same decisions the materialized shards
// produce.
func (e *verticalEngine) fillPlacementStreamed(w int, parent int32, sp resolvedSplit, bm *bitmap.Bitmap) {
	t := e.t
	insts := e.n2i[w].Instances(parent)
	if t.cfg.Quadrant == QD4 {
		t.stream.place(w, sp, insts, 0, bm)
		return
	}
	if sp.defaultLeft {
		for _, inst := range insts {
			bm.Set(int(inst))
		}
	}
	lo, hi := t.stream.src.ColRange(sp.feature)
	i2n := e.i2n[w]
	t.stream.scan(w, lo, hi, 0, func(colInsts []uint32, binsArr []uint16) {
		for k, inst := range colInsts {
			if i2n.Node(inst) != parent {
				continue
			}
			bm.SetTo(int(inst), int(binsArr[k]) <= sp.bin)
		}
	})
}
