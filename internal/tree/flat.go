// Flattened forest representation for low-latency inference.
//
// Training produces a Forest of per-tree Node slices whose JSON-tagged
// nodes carry per-node weight slices and diagnostic fields. That layout is
// convenient for growing and serializing trees but hostile to the serving
// hot path: every node visit chases a slice header, every feature probe
// binary-searches the sparse row, and every leaf touches scattered cache
// lines.
//
// FlatForest compiles a trained Forest once into one node image of 16-byte
// nodes, all trees concatenated, each laid out breadth-first with siblings
// adjacent, plus one contiguous slice of pre-scaled leaf weights. Rows are
// scored by one kernel whatever the batch size: a block of rows is loaded
// into a feature-major image of order-preserving uint32 keys, and every
// tree is descended level by level over the whole block, one unsigned
// range test per node. Margins are bit-exact the pointer walk's (identical
// routing predicate, identical accumulation order) and the engine is safe
// for concurrent use.
package tree

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"vero/internal/sparse"
)

// Routing keys.
//
// routeKey maps a float32 onto a uint32 whose unsigned order is the float
// order: −0 becomes +0, a negative value its complemented bits, any other
// value its bits with the sign bit set, so key(−Inf) = 0x007FFFFF and
// key(+Inf) = 0xFF800000. Every NaN keys to nanKey, just above +Inf, and an
// absent cell holds missingKey, above everything. For any non-NaN v and
// threshold t, v <= t ⇔ key(v) <= key(t).
const (
	nanKey     = 0xFF800001
	missingKey = 0xFFFFFFFF
	// nanThresholdKey stands for a NaN threshold: every present value,
	// −Inf included, keys above it, as no value is <= NaN.
	nanThresholdKey = 0x007FFFFE
)

func routeKey(v float32) uint32 {
	if v != v {
		return nanKey
	}
	if v == 0 {
		v = 0 // −0 → +0
	}
	b := math.Float32bits(v)
	return b ^ (uint32(int32(b)>>31) | 1<<31)
}

// node is one compiled node. A row goes to child left+1 when its key k
// satisfies k−lo < width (unsigned), to child left otherwise. An interior
// node with threshold key T has lo = T+1 and width = missingKey−T, one
// less when missing values go left: present values above the threshold
// and present NaNs fall in [lo, missingKey), and missingKey itself falls
// in the range only when the node defaults right. A leaf has width 0 and
// left = its own index, so a fixed number of descent steps needs no leaf
// branch; its lo is the offset of its weight block.
type node struct {
	off   int32 // compact feature id × stride: the image column this node reads
	lo    uint32
	width uint32
	left  int32
}

// interiorNode encodes the routing predicate `present ? v <= thr :
// defaultLeft` as one range.
func interiorNode(off int32, thr float32, defaultLeft bool, left int32) node {
	t := uint32(nanThresholdKey)
	if thr == thr {
		t = routeKey(thr)
	}
	n := node{off: off, lo: t + 1, width: missingKey - t, left: left}
	if defaultLeft {
		n.width--
	}
	return n
}

// goesRight is the routing test of n for key k.
func (n *node) goesRight(k uint32) bool { return k-n.lo < n.width }

// FlatForest is an immutable, cache-friendly compilation of a Forest.
// All exported methods are safe for concurrent use.
type FlatForest struct {
	numClass  int
	initScore []float64

	// nodes holds every tree breadth-first, roots[t] is tree t's root and
	// depth[t] the number of descent steps that lands every row of tree t
	// on a leaf (its interior depth).
	nodes []node
	roots []int32
	depth []int32
	// weights holds leaf outputs pre-scaled by the learning rate, so
	// accumulation is a single add per class.
	weights []float64

	// remap[f] is the compact id of global feature f among the
	// numSplitFeat features any split routes on, or -1 when no split uses
	// f. The row image has one column of stride cells per compact feature.
	remap        []int32
	numSplitFeat int
	stride       int

	images sync.Pool // *keyImage
}

// DefaultBlockRows is the instance-block size batch prediction uses when
// the caller does not choose one, and the largest it allows: big enough
// that a tree's nodes amortize over the block, small enough that the row
// image stays cache-resident.
const DefaultBlockRows = 64

// maxBlockCells caps the row image at stride*numSplitFeat cells so a huge
// forest (many distinct split features) degrades to smaller blocks instead
// of a giant scratch allocation.
const maxBlockCells = 1 << 22

// Compile flattens a forest that satisfies Forest.Validate. The forest
// must not be mutated afterwards; the compiled engine captures its
// current trees.
func Compile(f *Forest) *FlatForest {
	ff := &FlatForest{
		numClass:  f.NumClass,
		initScore: append([]float64(nil), f.InitScore...),
		roots:     make([]int32, 0, len(f.Trees)),
		depth:     make([]int32, 0, len(f.Trees)),
	}
	total, maxFeat := 0, int32(-1)
	for _, t := range f.Trees {
		total += len(t.Nodes)
		for i := range t.Nodes {
			maxFeat = max(maxFeat, t.Nodes[i].Feature)
		}
	}
	// Number split features in first-use order.
	ff.remap = make([]int32, maxFeat+1)
	for i := range ff.remap {
		ff.remap[i] = -1
	}
	for _, t := range f.Trees {
		for i := range t.Nodes {
			if g := t.Nodes[i].Feature; g >= 0 && ff.remap[g] < 0 {
				ff.remap[g] = int32(ff.numSplitFeat)
				ff.numSplitFeat++
			}
		}
	}
	ff.stride = DefaultBlockRows
	if cols := max(ff.numSplitFeat, 1); ff.stride*cols > maxBlockCells {
		ff.stride = max(maxBlockCells/cols, 1)
	}

	ff.nodes = make([]node, 0, total)
	order := make([]int32, 0, 64)
	for _, t := range f.Trees {
		base := int32(len(ff.nodes))
		ff.roots = append(ff.roots, base)
		// Breadth-first, one level per pass: order[i] is the source index
		// of compiled node base+i, and an interior node's children are
		// appended side by side.
		order = append(order[:0], 0)
		levels := int32(0)
		for lo := 0; lo < len(order); levels++ {
			hi := len(order)
			for i := lo; i < hi; i++ {
				n := &t.Nodes[order[i]]
				if n.IsLeaf() {
					ff.nodes = append(ff.nodes, node{lo: uint32(len(ff.weights)), left: base + int32(i)})
					for k := 0; k < f.NumClass; k++ {
						w := 0.0
						if k < len(n.Weights) {
							w = f.LearningRate * n.Weights[k]
						}
						ff.weights = append(ff.weights, w)
					}
				} else {
					off := ff.remap[n.Feature] * int32(ff.stride)
					ff.nodes = append(ff.nodes, interiorNode(off, n.SplitValue, n.DefaultLeft, base+int32(len(order))))
					order = append(order, n.Left, n.Right)
				}
			}
			lo = hi
		}
		ff.depth = append(ff.depth, levels-1)
	}
	ff.images.New = func() any {
		im := &keyImage{
			keys: make([]uint32, max(ff.numSplitFeat, 1)*ff.stride),
			ids:  make([]int32, ff.stride),
		}
		for i := range im.keys {
			im.keys[i] = missingKey
		}
		return im
	}
	return ff
}

// NumClass returns the per-row output dimensionality.
func (ff *FlatForest) NumClass() int { return ff.numClass }

// NumTrees returns the number of compiled trees.
func (ff *FlatForest) NumTrees() int { return len(ff.roots) }

// NumNodes returns the total node count across all trees.
func (ff *FlatForest) NumNodes() int { return len(ff.nodes) }

// PredictRowInto computes the raw scores (margins) of one sparse row into
// out, which must have length NumClass.
func (ff *FlatForest) PredictRowInto(feat []uint32, val []float32, out []float64) {
	ff.PredictBlock([][]uint32{feat}, [][]float32{val}, out, 1)
}

// PredictRow returns the raw scores (margins) of one sparse row.
func (ff *FlatForest) PredictRow(feat []uint32, val []float32) []float64 {
	out := make([]float64, ff.numClass)
	ff.PredictRowInto(feat, val, out)
	return out
}

// PredictBlock scores a batch of independent sparse rows (parallel
// feature-id/value slices per row, sorted by feature id) into out
// (row-major, stride NumClass) on the calling goroutine, in instance
// blocks of `block` rows (<=0, or above the compiled block size, means
// that size: DefaultBlockRows unless the forest routes on very many
// features). Margins are bit-identical to the pointer walk on every row.
func (ff *FlatForest) PredictBlock(feats [][]uint32, vals [][]float32, out []float64, block int) {
	block = ff.blockSize(block)
	im := ff.images.Get().(*keyImage)
	k, stride, remap := ff.numClass, int32(ff.stride), ff.remap
	for b0 := 0; b0 < len(feats); b0 += block {
		b1 := min(b0+block, len(feats))
		for i := b0; i < b1; i++ {
			feat, val := feats[i], vals[i]
			for j, f := range feat {
				if int(f) >= len(remap) || remap[f] < 0 {
					continue
				}
				p := remap[f]*stride + int32(i-b0)
				im.keys[p] = routeKey(val[j])
				im.touched = append(im.touched, p)
			}
			copy(out[i*k:(i+1)*k], ff.initScore)
		}
		ff.walk(im.keys, im.ids[:b1-b0], out[b0*k:b1*k])
		for _, p := range im.touched {
			im.keys[p] = missingKey
		}
		im.touched = im.touched[:0]
	}
	ff.images.Put(im)
}

// batchRows is the number of rows one parallel work unit claims; large
// enough to amortize scheduling, small enough to balance skewed rows.
const batchRows = 256

// PredictCSR returns the raw scores of every row of m, row-major with
// stride NumClass, computed by `workers` goroutines (0 or negative means
// GOMAXPROCS) in blocks of the compiled block size.
func (ff *FlatForest) PredictCSR(m *sparse.CSR, workers int) []float64 {
	rows := m.Rows()
	out := make([]float64, rows*ff.numClass)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// A parallel work unit is a whole number of blocks; one worker scores
	// the whole matrix in one call.
	chunk := (batchRows + ff.stride - 1) / ff.stride * ff.stride
	if workers <= 1 || rows <= chunk {
		feats, vals := csrRows(m, 0, rows)
		ff.PredictBlock(feats, vals, out, 0)
		return out
	}
	sparse.Parallel((rows+chunk-1)/chunk, workers, func(i int) {
		lo, hi := i*chunk, min((i+1)*chunk, rows)
		feats, vals := csrRows(m, lo, hi)
		ff.PredictBlock(feats, vals, out[lo*ff.numClass:hi*ff.numClass], 0)
	})
	return out
}

// csrRows returns rows [lo, hi) of m as per-row feature/value views.
func csrRows(m *sparse.CSR, lo, hi int) ([][]uint32, [][]float32) {
	feats, vals := make([][]uint32, hi-lo), make([][]float32, hi-lo)
	for i := range feats {
		feats[i], vals[i] = m.Row(lo + i)
	}
	return feats, vals
}

// blockSize clamps a requested block size to [1, stride]; <= 0 means
// stride.
func (ff *FlatForest) blockSize(block int) int {
	if block <= 0 || block > ff.stride {
		return ff.stride
	}
	return block
}

// keyImage is one goroutine's row image: cell g*stride+r holds the key of
// the block's r-th row for compact feature g, missingKey unless touched.
// ids holds each row's current node during the descent.
type keyImage struct {
	keys    []uint32
	touched []int32
	ids     []int32
}

// walk adds every tree's leaf weights to the block's rows. Per tree, all
// rows start at the root and take depth lock-step levels down, leaves
// self-looping, so afterwards every row sits on its leaf. The level loop
// has no data-dependent branch and its row iterations are independent,
// which lets the CPU overlap the dependent node/key loads of many rows.
// Per row the trees accumulate in forest order, as in the pointer walk.
func (ff *FlatForest) walk(keys []uint32, ids []int32, out []float64) {
	nodes, weights := ff.nodes, ff.weights
	for t, root := range ff.roots {
		descend(nodes, keys, ids, root, ff.depth[t])
		if ff.numClass == 1 {
			for r, id := range ids {
				out[r] += weights[nodes[id].lo]
			}
		} else {
			ff.foldVec(ids, out)
		}
	}
}

// descend takes every row of ids steps levels down from root. It stays out
// of line: inlined into walk, the level loop spills and reloads walk's
// state every iteration (measured ~15 % slower).
//
//go:noinline
func descend(nodes []node, keys []uint32, ids []int32, root, steps int32) {
	for r := range ids {
		ids[r] = root
	}
	for ; steps > 0; steps-- {
		for r, id := range ids {
			n := &nodes[id]
			next := n.left
			if n.goesRight(keys[int(n.off)+r]) {
				next++
			}
			ids[r] = next
		}
	}
}

// foldVec adds the weight vectors of the leaves in ids to the rows of out
// (stride numClass).
func (ff *FlatForest) foldVec(ids []int32, out []float64) {
	nodes, weights, k := ff.nodes, ff.weights, ff.numClass
	for r, id := range ids {
		w := weights[nodes[id].lo:][:k]
		orow := out[r*k:][:k]
		for c := range w {
			orow[c] += w[c]
		}
	}
}

// Validate checks the structural invariants the kernel relies on; it is
// used by tests and by model-loading paths that compile untrusted input.
// Every node reads a column inside the row image; an interior node's
// children (left, left+1) lie after it in its own tree; a leaf self-loops
// and its weight block lies inside the weights.
func (ff *FlatForest) Validate() error {
	cells := int32(max(ff.numSplitFeat, 1) * ff.stride)
	if len(ff.depth) != len(ff.roots) {
		return fmt.Errorf("tree: flat forest has %d roots but %d depths", len(ff.roots), len(ff.depth))
	}
	for t, root := range ff.roots {
		end := int32(len(ff.nodes))
		if t+1 < len(ff.roots) {
			end = ff.roots[t+1]
		}
		if root < 0 || root >= end {
			return fmt.Errorf("tree: flat tree %d root %d outside [0,%d)", t, root, end)
		}
		for i := root; i < end; i++ {
			n := &ff.nodes[i]
			if n.off < 0 || n.off+int32(ff.stride) > cells {
				return fmt.Errorf("tree: flat node %d reads column %d outside the %d-cell image", i, n.off, cells)
			}
			if n.width == 0 {
				if n.left != i {
					return fmt.Errorf("tree: flat leaf %d links to %d, not itself", i, n.left)
				}
				if int(n.lo)+ff.numClass > len(ff.weights) {
					return fmt.Errorf("tree: flat leaf %d weight offset %d out of range", i, n.lo)
				}
				continue
			}
			if n.left <= i || n.left+1 >= end {
				return fmt.Errorf("tree: flat node %d has children (%d,%d) outside (%d,%d)",
					i, n.left, n.left+1, i, end)
			}
		}
	}
	return nil
}
