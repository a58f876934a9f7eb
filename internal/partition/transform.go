package partition

import (
	"fmt"
	"runtime"

	"vero/internal/cluster"
	"vero/internal/datasets"
	"vero/internal/sketch"
	"vero/internal/sparse"
)

// Variant selects the wire representation charged for the repartition
// step, matching the three rows of Table 5 in the paper's appendix.
type Variant int

// Transformation variants of Table 5.
const (
	// VariantNaive ships raw 12-byte key-value pairs.
	VariantNaive Variant = iota
	// VariantCompressed encodes feature ids in ceil(log p) bytes and
	// values as bin indexes in ceil(log q) bytes, but still ships one
	// small object per row.
	VariantCompressed
	// VariantBlockified ships compressed pairs packed into per-file-split
	// blocks (Figure 9) — the full Vero pipeline.
	VariantBlockified
)

// String names the variant as in Table 5.
func (v Variant) String() string {
	switch v {
	case VariantNaive:
		return "naive"
	case VariantCompressed:
		return "compress"
	case VariantBlockified:
		return "vero"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

const (
	// naiveKVBytes is the size of an uncompressed key-value pair: 4-byte
	// feature index + 8-byte double value (the paper's "original 12-byte
	// key-value pairs", Table 5).
	naiveKVBytes = 12
	// perObjectOverheadBytes models the serialization header of each
	// small row vector when column groups are not blockified — the
	// (de)serialization overhead Section 4.2.3 blockifies away.
	perObjectOverheadBytes = 24
	// sketchTupleBytes is the wire size of one GK tuple (value + g +
	// delta, packed).
	sketchTupleBytes = 16
)

// Options configures the transformation.
type Options struct {
	// Q is the number of candidate splits per feature.
	Q int
	// SketchEps is the quantile-sketch error bound (default 0.01).
	SketchEps float64
	// MaxBlocks is the block-merge target per worker (default 4; the
	// paper reports fewer than 5 blocks after merging).
	MaxBlocks int
	// Charge selects which variant's wire cost is charged to the cluster
	// (default VariantBlockified). Byte counts for all three variants are
	// reported regardless.
	Charge Variant
	// Splits and FeatCount, when both set, are ingestion-derived candidate
	// splits (and per-feature value counts) for every feature of x; steps
	// 1–2 of the transformation — sketch build, sketch shuffle and split
	// derivation — are skipped, and only the split broadcast is charged.
	// The values must be what the canonical sketch pass would produce;
	// internal/ingest guarantees that for warm-cache datasets.
	Splits    [][]float32
	FeatCount []int64
}

func (o *Options) setDefaults() error {
	if o.Q <= 1 {
		return fmt.Errorf("partition: candidate splits q=%d", o.Q)
	}
	if o.SketchEps == 0 {
		o.SketchEps = 0.01
	}
	if o.MaxBlocks == 0 {
		o.MaxBlocks = 4
	}
	return nil
}

// ByteReport records the wire volume of each transformation step, with the
// repartition step broken down by variant (Table 5).
type ByteReport struct {
	SketchShuffle     int64
	SplitBroadcast    int64
	NaiveShuffle      int64
	CompressedShuffle int64
	BlockifiedShuffle int64
	LabelBroadcast    int64
}

// Shard is one worker's vertical, row-stored data after the
// transformation: its feature group as blockified rows over within-group
// feature slots, plus the broadcast labels.
type Shard struct {
	Worker   int
	Features []int // slot -> global feature id
	NumBins  []int // candidate-split count per slot
	Data     *BlockSet
	Labels   []float32
}

// Result is the output of the horizontal-to-vertical transformation.
type Result struct {
	Groups [][]int
	Binner *sparse.Binner
	Shards []*Shard
	Bytes  ByteReport
}

// transformation is the state the three entry points share between
// their steps: the cluster being charged, the incoming horizontal layout,
// the candidate splits and column grouping once known, and the byte
// report filled step by step.
type transformation struct {
	cl     *cluster.Cluster
	opts   Options
	labels []float32
	ranges [][2]int // source row range of each worker
	binner *sparse.Binner
	groups [][]int
	bytes  ByteReport
}

// start validates what every entry point validates. When the options
// carry ingestion-derived splits the transformation starts at step 3:
// they are broadcast and the columns grouped; otherwise binner and groups
// stay nil for the caller to derive (Transform) or reject.
func start(cl *cluster.Cluster, rows, d int, labels []float32, opts Options) (*transformation, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	if rows != len(labels) {
		return nil, fmt.Errorf("partition: %d rows but %d labels", rows, len(labels))
	}
	t := &transformation{cl: cl, opts: opts, labels: labels, ranges: HorizontalRanges(rows, cl.Workers())}
	if opts.Splits != nil && opts.FeatCount != nil {
		if len(opts.Splits) != d || len(opts.FeatCount) != d {
			return nil, fmt.Errorf("partition: prebin covers %d features, matrix has %d", len(opts.Splits), d)
		}
		t.adoptSplits(opts.Splits, opts.FeatCount)
	}
	return t, nil
}

// adoptSplits closes step 2 — the master broadcasts the candidate splits
// to all workers — and opens step 3 with the greedy load-balanced column
// grouping.
func (t *transformation) adoptSplits(splits [][]float32, featCount []int64) {
	t.binner = &sparse.Binner{Splits: splits}
	var splitBytes int64
	for _, s := range splits {
		splitBytes += int64(len(s)) * 4
	}
	t.cl.Broadcast("transform.splits", splitBytes)
	t.bytes.SplitBroadcast = splitBytes
	t.groups = GroupColumnsBalanced(featCount, t.cl.Workers())
}

// splitRows is step 3's compact encoding for one source: rows [lo, hi) of
// x become one block per destination, entry (i, f) landing in block
// destOf[f] as the pair (slotOf[f], bin of the value). A first pass counts
// each destination's entries so the pair arrays are allocated once at exact
// capacity: grown by append they left more garbage than blocks, which the
// trainer's first heap sample then did or did not see depending on whether
// a GC cycle had finished.
func (t *transformation) splitRows(x *sparse.CSR, lo, hi int, destOf, slotOf []int32, ndest int) []*Block {
	counts := make([]int, ndest)
	for i := lo; i < hi; i++ {
		feats, _ := x.Row(i)
		for _, f := range feats {
			counts[destOf[f]]++
		}
	}
	out := make([]*Block, ndest)
	for dst := range out {
		out[dst] = &Block{
			RowStart: lo,
			RowPtr:   make([]int64, 1, hi-lo+1),
			Feat:     make([]uint32, 0, counts[dst]),
			Bin:      make([]uint16, 0, counts[dst]),
		}
	}
	for i := lo; i < hi; i++ {
		feats, vals := x.Row(i)
		for k, f := range feats {
			b := out[destOf[f]]
			b.Feat = append(b.Feat, uint32(slotOf[f]))
			b.Bin = append(b.Bin, t.binner.BinValue(int(f), vals[k]))
		}
		for _, b := range out {
			b.RowPtr = append(b.RowPtr, int64(len(b.Feat)))
		}
	}
	return out
}

// finish runs steps 4 and 5 from the W×W cell counts — nnz[src][dst]
// entries of source range src belong to feature group dst; a cell's row
// count is its source range's — and assembles the shard of every
// destination recv yields blocks for. A nil recv assembles nothing: the
// streamed transformation leaves the repartitioned rows on disk.
func (t *transformation) finish(nnz [][]int64, recv func(dst int) []*Block) (*Result, error) {
	w := t.cl.Workers()

	// Step 4: repartition the column groups and charge the selected
	// variant's wire cost; all three variants' volumes are reported.
	naive := make([][]int64, w)
	compressed := make([][]int64, w)
	blockified := make([][]int64, w)
	binWidth := BinWidthBytes(t.opts.Q)
	for src := 0; src < w; src++ {
		naive[src] = make([]int64, w)
		compressed[src] = make([]int64, w)
		blockified[src] = make([]int64, w)
		rows := int64(t.ranges[src][1] - t.ranges[src][0])
		for dst := 0; dst < w; dst++ {
			n := nnz[src][dst]
			fw := FeatWidthBytes(len(t.groups[dst]))
			naive[src][dst] = n*naiveKVBytes + rows*perObjectOverheadBytes
			compressed[src][dst] = n*(fw+binWidth) + rows*perObjectOverheadBytes
			blockified[src][dst] = blockWireSize(rows, n, fw, binWidth)
		}
	}
	sumOffDiag := func(m [][]int64) int64 {
		var sum int64
		for i := range m {
			for j := range m[i] {
				if i != j {
					sum += m[i][j]
				}
			}
		}
		return sum
	}
	t.bytes.NaiveShuffle = sumOffDiag(naive)
	t.bytes.CompressedShuffle = sumOffDiag(compressed)
	t.bytes.BlockifiedShuffle = sumOffDiag(blockified)
	switch t.opts.Charge {
	case VariantNaive:
		t.cl.Shuffle("transform.repartition", naive)
	case VariantCompressed:
		t.cl.Shuffle("transform.repartition", compressed)
	default:
		t.cl.Shuffle("transform.repartition", blockified)
	}

	// Step 5: the master collects all labels and broadcasts them so every
	// worker can coalesce rows with labels.
	labelBytes := int64(len(t.labels)) * 4
	t.cl.PointToPoint("transform.labels", labelBytes)
	t.cl.Broadcast("transform.labels", labelBytes)
	t.bytes.LabelBroadcast = labelBytes

	res := &Result{Groups: t.groups, Binner: t.binner, Bytes: t.bytes}
	if recv == nil {
		return res, nil
	}
	res.Shards = make([]*Shard, w)
	// Per-worker error slots: each worker writes only its own, so the
	// assembly stays race-free on a concurrent cluster.
	errs := make([]error, w)
	t.cl.Parallel("transform.assemble", func(dst int) {
		if blocks := recv(dst); blocks != nil {
			res.Shards[dst], errs[dst] = t.assembleShard(dst, blocks)
		}
	})
	if err := cluster.FirstError(errs); err != nil {
		return nil, err
	}
	return res, nil
}

// assembleShard sorts the blocks destination dst received by source
// offset (they are contiguous row ranges) and merges them down to
// MaxBlocks.
func (t *transformation) assembleShard(dst int, recv []*Block) (*Shard, error) {
	bs, err := NewBlockSet(recv)
	if err != nil {
		return nil, err
	}
	bs.Merge(t.opts.MaxBlocks)
	feats := t.groups[dst]
	numBins := make([]int, len(feats))
	for slot, f := range feats {
		numBins[slot] = len(t.binner.Splits[f])
	}
	return &Shard{Worker: dst, Features: feats, NumBins: numBins, Data: bs, Labels: t.labels}, nil
}

// Transform runs the five-step horizontal-to-vertical transformation of
// Section 4.2.1 over a dataset whose rows are horizontally partitioned
// across the cluster's workers (worker w owns the rows of
// HorizontalRanges(N, W)[w]). Compute time is measured under the
// "transform.*" phases; network volume is charged per the options.
func Transform(cl *cluster.Cluster, x *sparse.CSR, labels []float32, opts Options) (*Result, error) {
	t, err := start(cl, x.Rows(), x.Cols(), labels, opts)
	if err != nil {
		return nil, err
	}
	if t.binner == nil {
		t.sketchSplits(x)
	}
	w, d := cl.Workers(), x.Cols()
	groupOf := make([]int32, d)
	slotOf := make([]int32, d) // global feature -> slot within its group
	for g, feats := range t.groups {
		for slot, f := range feats {
			groupOf[f] = int32(g)
			slotOf[f] = int32(slot)
		}
	}
	// blocks[src][dst], built in parallel over sources; walking them gives
	// the cell counts.
	blocks := make([][]*Block, w)
	nnz := make([][]int64, w)
	cl.Parallel("transform.group", func(src int) {
		blocks[src] = t.splitRows(x, t.ranges[src][0], t.ranges[src][1], groupOf, slotOf, w)
		nnz[src] = make([]int64, w)
		for dst, b := range blocks[src] {
			nnz[src][dst] = int64(b.NNZ())
		}
	})
	return t.finish(nnz, func(dst int) []*Block {
		recv := make([]*Block, w)
		for src := range recv {
			recv[src] = blocks[src][dst]
		}
		return recv
	})
}

// sketchSplits runs steps 1 and 2 for a dataset that arrives without
// ingestion-derived splits: per-worker quantile sketches, repartitioned
// by feature and merged, then candidate splits gathered at the master.
func (t *transformation) sketchSplits(x *sparse.CSR) {
	cl, w, d := t.cl, t.cl.Workers(), x.Cols()
	local := make([][]*sketch.GK, w)
	cl.Parallel("transform.sketch", func(wk int) {
		local[wk] = sketch.Local(x, t.ranges[wk][0], t.ranges[wk][1], t.opts.SketchEps)
	})
	// Sketch repartition: feature f's local sketches travel to worker
	// f mod W for merging. The candidate splits themselves come from the
	// canonical row-order sketches so they are identical to what the
	// horizontal quadrants compute (see sketch.Canonical).
	sketchSend := make([][]int64, w)
	for i := range sketchSend {
		sketchSend[i] = make([]int64, w)
	}
	for f := 0; f < d; f++ {
		owner := f % w
		for wk := 0; wk < w; wk++ {
			if local[wk][f] != nil && wk != owner {
				n := int64(local[wk][f].NumTuples())*sketchTupleBytes + 16
				sketchSend[wk][owner] += n
				t.bytes.SketchShuffle += n
			}
		}
	}
	workers := runtime.GOMAXPROCS(0)
	splits, featCount := sketch.Canonical(sparse.TransposeCSR(x, workers), t.opts.SketchEps, t.opts.Q, workers)
	cl.Shuffle("transform.sketch", sketchSend)

	var splitBytes int64
	for _, s := range splits {
		splitBytes += int64(len(s)) * 4
	}
	cl.PointToPoint("transform.splits", splitBytes) // gather at master
	t.adoptSplits(splits, featCount)
}

// TransformStreamed is the out-of-core variant of Transform: it computes
// the column grouping and charges the transformation's wire costs from an
// on-disk block source without materializing per-worker shards (the
// Result's Shards are nil). It requires ingestion-derived splits
// (Options.Splits/FeatCount): a .vbin-backed dataset always has them, and
// sketching would need the raw values the binned cache no longer stores.
//
// The byte report matches Transform's for the same data exactly: the cell
// counts are identical, only found by binary searches on the mapped
// columns instead of walks over materialized blocks.
func TransformStreamed(cl *cluster.Cluster, src datasets.BlockSource, labels []float32, opts Options) (*Result, error) {
	t, err := start(cl, src.Rows(), src.Cols(), labels, opts)
	if err != nil {
		return nil, err
	}
	if t.binner == nil {
		return nil, fmt.Errorf("partition: streamed transformation requires ingestion-derived splits (train from a .vbin cache)")
	}
	nnz := make([][]int64, cl.Workers())
	errs := make([]error, cl.Workers())
	cl.Parallel("transform.group", func(s int) {
		nnz[s], errs[s] = RangeGroupNNZ(src, t.ranges[s][0], t.ranges[s][1], t.groups)
	})
	if err := cluster.FirstError(errs); err != nil {
		return nil, err
	}
	return t.finish(nnz, nil)
}

// RangeGroupNNZ counts the entries of rows [rowLo, rowHi) that belong to
// each feature group, by two binary searches per column of the source.
// One row of the transformation's cell matrix: the streamed
// transformation computes it per source worker, and ingest.ReadCacheShard
// records all W rows in datasets.Shard.GroupNNZ.
func RangeGroupNNZ(src datasets.BlockSource, rowLo, rowHi int, groups [][]int) ([]int64, error) {
	nnz := make([]int64, len(groups))
	for g, feats := range groups {
		for _, f := range feats {
			lo, hi, err := datasets.RowSpan(src, f, rowLo, rowHi)
			if err != nil {
				return nil, err
			}
			nnz[g] += hi - lo
		}
	}
	return nnz, nil
}

// TransformSharded is the rank-sharded variant of Transform: the caller
// already materialized only this rank's feature group (a column shard
// loaded by ingest.ReadCacheShard — x keeps the global shape but holds
// entries for the rank's columns only), so the transformation builds just
// the rank's own blockified shard — the other Shards slots stay nil,
// matching the engine's hosted-only structures — and takes the cell
// counts from the shard's replicated GroupNNZ matrix instead of walking
// remote data. Every rank derives that matrix identically from the
// cache's column index — a requirement, since each rank's accounting must
// equal the simulation's, which the socket tests check through
// CommBytes.
//
// Like TransformStreamed it requires ingestion-derived splits: a shard
// holds a fraction of the values, so candidate splits cannot be sketched
// from it.
func TransformSharded(cl *cluster.Cluster, x *sparse.CSR, labels []float32, sh *datasets.Shard, opts Options) (*Result, error) {
	w := cl.Workers()
	if sh.Workers != w {
		return nil, fmt.Errorf("partition: shard spans %d workers, cluster has %d", sh.Workers, w)
	}
	if len(sh.GroupNNZ) != w {
		return nil, fmt.Errorf("partition: shard carries a %dx? group matrix, want %dx%d", len(sh.GroupNNZ), w, w)
	}
	t, err := start(cl, x.Rows(), x.Cols(), labels, opts)
	if err != nil {
		return nil, err
	}
	if t.binner == nil {
		return nil, fmt.Errorf("partition: sharded transformation requires ingestion-derived splits (load shards from a .vbin cache)")
	}
	// The rank's own blocks: one per source row range, holding the rows of
	// that range restricted to the rank's feature group — exactly the
	// blocks Transform would have shipped to this destination. Every entry
	// x holds belongs to the one destination.
	rank := sh.Rank
	oneDest := make([]int32, x.Cols())
	slotOf := make([]int32, x.Cols())
	for slot, f := range t.groups[rank] {
		slotOf[f] = int32(slot)
	}
	own := make([]*Block, w)
	cl.ParallelLocal("transform.group", func(wk int) {
		if wk != rank {
			return
		}
		for src := range own {
			own[src] = t.splitRows(x, t.ranges[src][0], t.ranges[src][1], oneDest, slotOf, 1)[0]
		}
	})
	return t.finish(sh.GroupNNZ, func(dst int) []*Block {
		if dst != rank {
			return nil
		}
		return own
	})
}
