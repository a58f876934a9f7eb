package tree

import (
	"math/rand"
	"testing"
)

// randomSplits builds ascending candidate-split arrays for d features with
// up to maxBins splits each.
func randomSplits(rng *rand.Rand, d, maxBins int) [][]float32 {
	splits := make([][]float32, d)
	for f := range splits {
		n := 2 + rng.Intn(maxBins-1)
		s := make([]float32, n)
		v := float32(rng.NormFloat64())
		for i := range s {
			s[i] = v
			v += float32(rng.Float64()) + 1e-3
		}
		splits[f] = s
	}
	return splits
}

// binnedRandomForest grows a random forest whose split metadata is
// trainer-consistent: every interior node routes on a (feature, bin) pair
// with SplitValue exactly splits[feature][bin], which is what CompileBinned
// verifies and bit-identical binned routing requires.
func binnedRandomForest(t testing.TB, rng *rand.Rand, splits [][]float32, trees, layers, numClass int) *Forest {
	t.Helper()
	d := len(splits)
	f := NewForest(numClass, 0.3, make([]float64, numClass), "logistic", d)
	f.Splits = splits
	for i := 0; i < trees; i++ {
		tr := New(numClass)
		frontier := []int32{0}
		for l := 0; l < layers; l++ {
			var next []int32
			for _, id := range frontier {
				if rng.Float64() < 0.2 {
					continue
				}
				feat := rng.Intn(d)
				bin := rng.Intn(len(splits[feat]))
				left, right := tr.Split(id, int32(feat), splits[feat][bin],
					uint16(bin), rng.Intn(2) == 0, rng.Float64())
				next = append(next, left, right)
			}
			frontier = next
		}
		for id := range tr.Nodes {
			if tr.Nodes[id].IsLeaf() {
				w := make([]float64, numClass)
				for k := range w {
					w[k] = rng.NormFloat64()
				}
				tr.SetLeaf(int32(id), w)
			}
		}
		f.Append(tr)
	}
	return f
}

// codeBits reports the bin-code width bf compiled to, in bits.
func codeBits(bf *BinnedForest) int {
	if bf.e8 != nil {
		return 8
	}
	return 16
}

// binnedRow scores one row through the binned blocked kernel.
func binnedRow(bf *BinnedForest, feat []uint32, val []float32) []float64 {
	out := make([]float64, bf.ff.numClass)
	bf.PredictBlock([][]uint32{feat}, [][]float32{val}, out, 1)
	return out
}

// boundaryRows generates sparse rows biased to the sharp edges of
// quantization: with high probability a stored value sits exactly on a
// candidate split (including the first and last), and otherwise it lands
// strictly between, below, or above them.
func boundaryRows(rng *rand.Rand, splits [][]float32, rows int, density float64) ([][]uint32, [][]float32) {
	feats := make([][]uint32, rows)
	vals := make([][]float32, rows)
	for i := 0; i < rows; i++ {
		for f := range splits {
			if rng.Float64() >= density {
				continue
			}
			s := splits[f]
			var v float32
			switch rng.Intn(5) {
			case 0: // exactly on a random split (threshold boundary)
				v = s[rng.Intn(len(s))]
			case 1: // exactly the last split
				v = s[len(s)-1]
			case 2: // above every split (out-of-range, must route right of any threshold)
				v = s[len(s)-1] + 1 + float32(rng.Float64())
			case 3: // below every split
				v = s[0] - 1 - float32(rng.Float64())
			default: // strictly between two splits
				k := rng.Intn(len(s) - 1)
				v = (s[k] + s[k+1]) / 2
			}
			feats[i] = append(feats[i], uint32(f))
			vals[i] = append(vals[i], v)
		}
	}
	return feats, vals
}

// TestBinnedMatchesFloat is the binned engine's bit-identity property
// test: for rows saturated with split-boundary values, binned descent
// (per-row and blocked, uint8 and uint16 code widths) must produce margins
// identical to the float engine and the pointer walk.
func TestBinnedMatchesFloat(t *testing.T) {
	for _, tc := range []struct {
		name     string
		numClass int
		maxBins  int
		wantBits int
	}{
		{"binary_uint8", 1, 20, 8},
		{"multiclass_uint8", 3, 20, 8},
		{"binary_uint16", 1, 400, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			const d = 24
			splits := randomSplits(rng, d, tc.maxBins)
			f := binnedRandomForest(t, rng, splits, 10, 6, tc.numClass)
			ff := Compile(f)
			bf, err := ff.CompileBinned(f.Splits)
			if err != nil {
				t.Fatal(err)
			}
			if codeBits(bf) != tc.wantBits {
				t.Fatalf("code bits %d, want %d", codeBits(bf), tc.wantBits)
			}

			const rows = 300
			feats, vals := boundaryRows(rng, splits, rows, 0.5)
			k := tc.numClass
			wantBlock := make([]float64, rows*k)
			ff.PredictBlock(feats, vals, wantBlock, 0)
			gotBlock := make([]float64, rows*k)
			bf.PredictBlock(feats, vals, gotBlock, 0)
			for i := 0; i < rows; i++ {
				want := f.PredictRow(feats[i], vals[i])
				gotRow := binnedRow(bf, feats[i], vals[i])
				for c := 0; c < k; c++ {
					if gotRow[c] != want[c] {
						t.Fatalf("row %d class %d: binned per-row %v, pointer walk %v", i, c, gotRow[c], want[c])
					}
					if gotBlock[i*k+c] != wantBlock[i*k+c] {
						t.Fatalf("row %d class %d: binned block %v, float block %v", i, c, gotBlock[i*k+c], wantBlock[i*k+c])
					}
					if gotBlock[i*k+c] != want[c] {
						t.Fatalf("row %d class %d: binned block %v, pointer walk %v", i, c, gotBlock[i*k+c], want[c])
					}
				}
			}
		})
	}
}

// TestBinnedMissingAndUnroutedFeatures pins default routing and the
// skip-unknown-feature behavior of the binned scatter.
func TestBinnedMissingAndUnroutedFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	splits := randomSplits(rng, 8, 12)
	f := binnedRandomForest(t, rng, splits, 6, 5, 1)
	ff := Compile(f)
	bf, err := ff.CompileBinned(f.Splits)
	if err != nil {
		t.Fatal(err)
	}
	// Empty row: every node follows DefaultLeft in both engines.
	if got, want := binnedRow(bf, nil, nil)[0], ff.PredictRow(nil, nil)[0]; got != want {
		t.Fatalf("empty row: binned %v, float %v", got, want)
	}
	// A feature id beyond every split table is ignored, not crashed on.
	feat, val := []uint32{500}, []float32{1.5}
	if got, want := binnedRow(bf, feat, val)[0], ff.PredictRow(feat, val)[0]; got != want {
		t.Fatalf("unrouted feature: binned %v, float %v", got, want)
	}
}

// TestCompileBinnedRejectsBadMetadata pins the compile-time hardening: a
// model whose bin metadata cannot guarantee bit-identical routing is
// refused, never silently mis-served.
func TestCompileBinnedRejectsBadMetadata(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	splits := randomSplits(rng, 6, 10)
	f := binnedRandomForest(t, rng, splits, 3, 4, 1)
	ff := Compile(f)

	if _, err := ff.CompileBinned(nil); err == nil {
		t.Fatal("CompileBinned(nil) succeeded; want error")
	}
	// Drop one routed feature's splits.
	rootNode := f.Trees[0].Nodes[0]
	broken := append([][]float32(nil), splits...)
	broken[int(rootNode.Feature)] = nil
	if _, err := ff.CompileBinned(broken); err == nil {
		t.Fatal("missing splits for a routed feature accepted")
	}
	// Perturb the threshold<->split correspondence.
	perturbed := make([][]float32, len(splits))
	for i, s := range splits {
		perturbed[i] = append([]float32(nil), s...)
	}
	root := int(rootNode.Feature)
	perturbed[root][int(rootNode.SplitBin)] += 0.5
	if _, err := ff.CompileBinned(perturbed); err == nil {
		t.Fatal("threshold/split mismatch accepted")
	}
	// Non-ascending splits.
	descending := make([][]float32, len(splits))
	for i, s := range splits {
		descending[i] = append([]float32(nil), s...)
	}
	descending[root][0] = descending[root][len(descending[root])-1] + 1
	if _, err := ff.CompileBinned(descending); err == nil {
		t.Fatal("non-ascending splits accepted")
	}
}
