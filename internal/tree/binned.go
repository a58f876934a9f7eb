// Bin-code descent, kept only as the subject of the bench's
// tree.binned_block probe: serving scores through the float kernel in
// flat.go alone, and this file goes when ROADMAP item 1(f) drops that
// probe.
//
// Histogram-based training never compares raw float values: it quantizes
// every feature into at most q bins and routes on bin indices. The trained
// model records both views of each split — the float threshold
// (Node.SplitValue) and the bin index it came from (Node.SplitBin) — and
// the per-feature candidate split arrays themselves (Forest.Splits).
// BinnedForest quantizes incoming rows once per feature (a binary search
// over at most q splits), and the per-node comparison becomes a
// uint8/uint16 compare against a precomputed bin threshold.
//
// Routing is bit-identical to the float walk for every input value. With
// s = Splits[f] ascending and t = s[b] the node's threshold, quantize v to
// code(v) = the first index i with s[i] >= v (len(s) when v exceeds every
// split — deliberately one past the last bin, never clamped). Then
//
//	code(v) <= b  <=>  exists i <= b with s[i] >= v  <=>  s[b] >= v  <=>  v <= t
//
// so the binned predicate equals the float predicate exactly, including
// for out-of-range and boundary values. Missing features follow
// DefaultLeft in both engines. CompileBinned verifies the metadata
// (thresholds must be among their feature's split values) and refuses
// models where the equivalence cannot be guaranteed.
package tree

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"vero/internal/sparse"
)

// binCode is the constraint shared by the two bin-code widths: uint8 when
// every routed feature has fewer than 256 candidate splits, uint16
// otherwise.
type binCode interface {
	~uint8 | ~uint16
}

// BinnedForest is a bin-code inference engine compiled from a FlatForest
// and the model's candidate split arrays. It is immutable and safe for
// concurrent use, and produces bit-identical margins to the float engine.
type BinnedForest struct {
	ff *FlatForest
	// Exactly one of e8/e16 is non-nil, chosen by the widest per-feature
	// split count.
	e8  *binnedEngine[uint8]
	e16 *binnedEngine[uint16]
}

// binnedEngine holds the width-specialized node thresholds and scratch
// pool.
type binnedEngine[C binCode] struct {
	ff *FlatForest
	// thresh[i] is node i's bin: code <= thresh routes left,
	// mirroring value <= threshold. Leaves hold the largest code, so a
	// present cell keeps a row on its leaf.
	thresh []C
	// splits[g] holds the candidate splits of compact feature g, the
	// quantization table for incoming values.
	splits [][]float32

	images sync.Pool // *binImage[C]
}

// binImage is the binned counterpart of keyImage: the block's codes in
// the same feature-major layout, which cells are present, and the descent
// state.
type binImage[C binCode] struct {
	code    []C
	present []bool
	touched []int32
	ids     []int32
}

// CompileBinned builds the bin-code engine for a compiled forest. splits
// is indexed by global feature id (Forest.Splits). A node's feature comes
// from its image column, its threshold from inverting routeKey, and its
// bin is an index of the threshold in the feature's splits (any such
// index routes identically, per the proof above). It fails when any
// routed feature lacks splits, when a split array is not ascending, when
// a node's threshold is NaN or not among its feature's splits (the
// invariant bit-identical routing rests on), or when a feature has too
// many bins for a uint16 code.
func (ff *FlatForest) CompileBinned(splits [][]float32) (*BinnedForest, error) {
	if len(splits) == 0 {
		return nil, fmt.Errorf("tree: model carries no candidate splits")
	}
	compact := make([][]float32, ff.numSplitFeat)
	global := make([]int, ff.numSplitFeat) // inverse of remap
	maxBins := 0
	for f, g := range ff.remap {
		if g < 0 {
			continue
		}
		global[g] = f
		if f >= len(splits) || len(splits[f]) == 0 {
			return nil, fmt.Errorf("tree: split feature %d has no candidate splits", f)
		}
		s := splits[f]
		for i := 1; i < len(s); i++ {
			if s[i] < s[i-1] {
				return nil, fmt.Errorf("tree: feature %d splits not ascending at %d", f, i)
			}
		}
		compact[g] = s
		if len(s) > maxBins {
			maxBins = len(s)
		}
	}
	// code(v) ranges over [0, len(s)] inclusive: the out-of-range code is
	// one past the last bin and must fit the code type too.
	if maxBins >= sparse.MaxBins {
		return nil, fmt.Errorf("tree: %d bins exceed the uint16 code range", maxBins)
	}
	bins := make([]int32, len(ff.nodes)) // -1 on leaves
	for i, n := range ff.nodes {
		if n.width == 0 {
			bins[i] = -1
			continue
		}
		g := n.off / int32(ff.stride)
		t := n.lo - 1
		if t == nanThresholdKey {
			return nil, fmt.Errorf("tree: node %d has a NaN threshold; bin metadata inconsistent", i)
		}
		thr := keyValue(t)
		b, found := slices.BinarySearch(compact[g], thr)
		if !found {
			return nil, fmt.Errorf("tree: node %d threshold %v is not among feature %d's %d splits; bin metadata inconsistent",
				i, thr, global[g], len(compact[g]))
		}
		bins[i] = int32(b)
	}
	bf := &BinnedForest{ff: ff}
	if maxBins < 1<<8 {
		bf.e8 = newBinnedEngine[uint8](ff, compact, bins)
	} else {
		bf.e16 = newBinnedEngine[uint16](ff, compact, bins)
	}
	return bf, nil
}

// keyValue inverts routeKey on a non-NaN key.
func keyValue(k uint32) float32 {
	if k&(1<<31) != 0 {
		return math.Float32frombits(k ^ 1<<31)
	}
	return math.Float32frombits(^k)
}

func newBinnedEngine[C binCode](ff *FlatForest, compact [][]float32, bins []int32) *binnedEngine[C] {
	e := &binnedEngine[C]{ff: ff, splits: compact}
	e.thresh = make([]C, len(bins))
	for i, b := range bins {
		e.thresh[i] = C(b)
		if b < 0 {
			e.thresh[i] = ^C(0)
		}
	}
	e.images.New = func() any {
		cells := max(ff.numSplitFeat, 1) * ff.stride
		return &binImage[C]{code: make([]C, cells), present: make([]bool, cells), ids: make([]int32, ff.stride)}
	}
	return e
}

// binValue quantizes one raw value of compact feature g: the first split
// index >= v, or len(splits) when v exceeds every split. Unlike
// sparse.Binner.BinValue it never clamps — the out-of-range code must
// compare greater than every node's bin for bit-identical routing.
func (e *binnedEngine[C]) binValue(g int32, v float32) C {
	s := e.splits[g]
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return C(lo)
}

// PredictBlock scores a batch of independent sparse rows into out
// (row-major, stride NumClass) on the calling goroutine through the binned
// blocked kernel, block rows at a time (<=0 means DefaultBlockRows).
// Margins are bit-identical to the float engine on every row.
func (bf *BinnedForest) PredictBlock(feats [][]uint32, vals [][]float32, out []float64, block int) {
	if bf.e8 != nil {
		bf.e8.predict(feats, vals, out, block)
	} else {
		bf.e16.predict(feats, vals, out, block)
	}
}

// predict scores the rows (feats[i], vals[i]) into out with one code
// image, block rows at a time — the binned mirror of FlatForest.PredictBlock.
func (e *binnedEngine[C]) predict(feats [][]uint32, vals [][]float32, out []float64, block int) {
	ff := e.ff
	block = ff.blockSize(block)
	s := e.images.Get().(*binImage[C])
	k, stride, remap := ff.numClass, int32(ff.stride), ff.remap
	for b0 := 0; b0 < len(feats); b0 += block {
		b1 := min(b0+block, len(feats))
		for i := b0; i < b1; i++ {
			feat, val := feats[i], vals[i]
			for j, f := range feat {
				if int(f) >= len(remap) || remap[f] < 0 {
					continue
				}
				g := remap[f]
				p := g*stride + int32(i-b0)
				s.code[p] = e.binValue(g, val[j])
				s.present[p] = true
				s.touched = append(s.touched, p)
			}
			copy(out[i*k:(i+1)*k], ff.initScore)
		}
		ids := s.ids[:b1-b0]
		for t, root := range ff.roots {
			e.descend(s, ids, root, ff.depth[t])
			ff.foldVec(ids, out[b0*k:b1*k])
		}
		for _, p := range s.touched {
			s.present[p] = false
		}
		s.touched = s.touched[:0]
	}
	e.images.Put(s)
}

// descend takes every row of the block steps levels down one tree, like
// FlatForest.walk but with an integer compare for present cells: present
// ? code<=thresh : defaultLeft, where the node's range test on missingKey
// is its default direction.
//
//go:noinline
func (e *binnedEngine[C]) descend(s *binImage[C], ids []int32, root, steps int32) {
	nodes, thresh := e.ff.nodes, e.thresh
	for r := range ids {
		ids[r] = root
	}
	for d := steps; d > 0; d-- {
		for r, id := range ids {
			n := &nodes[id]
			p := int(n.off) + r
			right := n.goesRight(missingKey)
			if s.present[p] {
				right = s.code[p] > thresh[id]
			}
			next := n.left
			if right {
				next++
			}
			ids[r] = next
		}
	}
}
