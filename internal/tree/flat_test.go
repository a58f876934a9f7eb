package tree

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"vero/internal/sparse"
)

// randomForest grows a random but structurally valid forest for
// equivalence testing: random splits over d features, random leaf weights,
// random default directions.
func randomForest(t testing.TB, rng *rand.Rand, trees, layers, d, numClass int) *Forest {
	t.Helper()
	f := NewForest(numClass, 0.3, make([]float64, numClass), "logistic", d)
	for i := 0; i < trees; i++ {
		tr := New(numClass)
		frontier := []int32{0}
		for l := 0; l < layers; l++ {
			var next []int32
			for _, id := range frontier {
				if rng.Float64() < 0.2 { // leave some leaves shallow
					continue
				}
				left, right := tr.Split(id, int32(rng.Intn(d)), float32(rng.NormFloat64()),
					uint16(rng.Intn(20)), rng.Intn(2) == 0, rng.Float64())
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

// randomCSR builds a random sparse matrix with the given density.
func randomCSR(t testing.TB, rng *rand.Rand, rows, cols int, density float64) *sparse.CSR {
	t.Helper()
	b := sparse.NewCSRBuilder(cols)
	for i := 0; i < rows; i++ {
		var kvs []sparse.KV
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				kvs = append(kvs, sparse.KV{Index: uint32(j), Value: float32(rng.NormFloat64())})
			}
		}
		if err := b.AddRow(kvs); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestFlatMatchesPointerWalk(t *testing.T) {
	for _, tc := range []struct {
		name     string
		numClass int
		density  float64
	}{
		{"binary_dense", 1, 0.9},
		{"binary_sparse", 1, 0.1},
		{"multiclass", 4, 0.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			f := randomForest(t, rng, 12, 6, 50, tc.numClass)
			m := randomCSR(t, rng, 200, 50, tc.density)
			ff := Compile(f)
			if err := ff.Validate(); err != nil {
				t.Fatal(err)
			}
			want := f.PredictCSR(m)
			for _, workers := range []int{1, 4} {
				got := ff.PredictCSR(m, workers)
				if len(got) != len(want) {
					t.Fatalf("workers=%d: got %d scores, want %d", workers, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("workers=%d: score[%d] = %v, want %v (bit-exact)", workers, i, got[i], want[i])
					}
				}
			}
			// Single-row path.
			for i := 0; i < m.Rows(); i += 17 {
				feat, val := m.Row(i)
				got := ff.PredictRow(feat, val)
				for k := range got {
					if got[k] != want[i*tc.numClass+k] {
						t.Fatalf("row %d class %d: %v != %v", i, k, got[k], want[i*tc.numClass+k])
					}
				}
			}
		})
	}
}

func TestFlatMissingValuesFollowDefault(t *testing.T) {
	f := NewForest(1, 1, []float64{0}, "square", 3)
	tr := New(1)
	l, r := tr.Split(0, 2, 0.5, 0, true, 1) // route on feature 2, missing goes left
	tr.SetLeaf(l, []float64{-1})
	tr.SetLeaf(r, []float64{+1})
	f.Append(tr)
	ff := Compile(f)

	// Feature 2 absent: default left.
	if got := ff.PredictRow([]uint32{0, 1}, []float32{9, 9})[0]; got != -1 {
		t.Fatalf("missing value routed to %v, want -1", got)
	}
	// Present below threshold: left. Present above: right.
	if got := ff.PredictRow([]uint32{2}, []float32{0.4})[0]; got != -1 {
		t.Fatalf("0.4 routed to %v, want -1", got)
	}
	if got := ff.PredictRow([]uint32{2}, []float32{0.6})[0]; got != 1 {
		t.Fatalf("0.6 routed to %v, want +1", got)
	}
}

func TestFlatRootOnlyForestAndEmptyMatrix(t *testing.T) {
	f := NewForest(2, 0.1, []float64{0.5, -0.5}, "softmax", 4)
	tr := New(2)
	tr.SetLeaf(0, []float64{1, 2})
	f.Append(tr)
	ff := Compile(f)
	got := ff.PredictRow(nil, nil)
	want := []float64{0.5 + 0.1*1, -0.5 + 0.1*2}
	for k := range got {
		if got[k] != want[k] {
			t.Fatalf("root-only: got %v, want %v", got, want)
		}
	}

	empty := sparse.NewCSRBuilder(4).Build()
	if out := ff.PredictCSR(empty, 4); len(out) != 0 {
		t.Fatalf("empty matrix produced %d scores", len(out))
	}
}

func TestFlatScratchDimSkipsUnroutedFeatures(t *testing.T) {
	// Splits only touch feature 0; rows carrying huge feature ids must not
	// panic or perturb routing.
	f := NewForest(1, 1, []float64{0}, "square", 1_000_000)
	tr := New(1)
	l, r := tr.Split(0, 0, 0, 0, false, 1)
	tr.SetLeaf(l, []float64{-1})
	tr.SetLeaf(r, []float64{+1})
	f.Append(tr)
	ff := Compile(f)
	if got := ff.PredictRow([]uint32{0, 999_999}, []float32{-1, 42})[0]; got != -1 {
		t.Fatalf("got %v, want -1", got)
	}
}

// specialFloats are the values the routing keys must order exactly like
// the float predicate: signed zeros, infinities, subnormals, the extremes
// and NaNs with assorted payloads.
var specialFloats = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.Inf(-1)),
	math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.MaxFloat32, -math.MaxFloat32,
	math.Float32frombits(0x7FC00000), math.Float32frombits(0xFFC00000), math.Float32frombits(0x7F800001),
	math.Float32frombits(0xFFBFFFFF), 1, -1,
}

// withSpecialValues rewrites about a third of the forest's thresholds and
// of m's stored values to specialFloats.
func withSpecialValues(rng *rand.Rand, f *Forest, m *sparse.CSR) {
	for _, tr := range f.Trees {
		for i := range tr.Nodes {
			if !tr.Nodes[i].IsLeaf() && rng.Intn(3) == 0 {
				tr.Nodes[i].SplitValue = specialFloats[rng.Intn(len(specialFloats))]
			}
		}
	}
	for i := range m.Val {
		if rng.Intn(3) == 0 {
			m.Val[i] = specialFloats[rng.Intn(len(specialFloats))]
		}
	}
}

// preorder renumbers every tree depth-first, so an interior node's
// children are not adjacent whenever its left child has children, and
// returns the forest as DecodeForest reads it back.
func preorder(t testing.TB, f *Forest) *Forest {
	t.Helper()
	for ti, tr := range f.Trees {
		nodes := make([]Node, 0, len(tr.Nodes))
		var visit func(id int32) int32
		visit = func(id int32) int32 {
			at := int32(len(nodes))
			nodes = append(nodes, tr.Nodes[id])
			if !tr.Nodes[id].IsLeaf() {
				l := visit(tr.Nodes[id].Left)
				nodes[at].Right = visit(tr.Nodes[id].Right)
				nodes[at].Left = l
			}
			return at
		}
		visit(0)
		f.Trees[ti] = &Tree{Nodes: nodes, NumClass: tr.NumClass}
	}
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeForest(data)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPredictBlockMatchesPerRow is the kernel's property test: across
// random forests, batch sizes around the block size, block sizes, worker
// counts and value edge cases, every entry point must reproduce the
// pointer walk (Forest.PredictRow) bit-exactly.
func TestPredictBlockMatchesPerRow(t *testing.T) {
	for _, tc := range []struct {
		name     string
		numClass int
		density  float64
		trees    int
		layers   int
		d        int
		special  bool // NaN / ±Inf / −0 thresholds and values
		decoded  bool // siblings not adjacent in the source layout
	}{
		{"binary_dense", 1, 0.9, 12, 6, 50, false, false},
		{"binary_sparse", 1, 0.05, 30, 5, 300, false, false},
		{"multiclass", 5, 0.3, 12, 6, 50, false, false},
		{"deep_narrow", 1, 0.7, 3, 9, 8, false, false},
		{"special_values", 1, 0.6, 12, 6, 20, true, false},
		{"special_values_multiclass", 5, 0.6, 8, 5, 20, true, false},
		{"preorder_decoded", 5, 0.4, 10, 6, 30, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for trial := int64(0); trial < 3; trial++ {
				rng := rand.New(rand.NewSource(100 + trial))
				f := randomForest(t, rng, tc.trees, tc.layers, tc.d, tc.numClass)
				m := randomCSR(t, rng, 512, tc.d, tc.density)
				if tc.special {
					withSpecialValues(rng, f, m)
				}
				if tc.decoded {
					f = preorder(t, f)
				}
				ff := Compile(f)
				if err := ff.Validate(); err != nil {
					t.Fatal(err)
				}
				k := tc.numClass
				feats := make([][]uint32, m.Rows())
				vals := make([][]float32, m.Rows())
				want := make([]float64, 0, m.Rows()*k)
				for i := range feats {
					feats[i], vals[i] = m.Row(i)
					want = append(want, f.PredictRow(feats[i], vals[i])...)
				}
				// check compares got with the pointer walk's scores from row
				// `from` on.
				check := func(what string, got []float64, from int) {
					t.Helper()
					for i, w := range want[from*k:][:len(got)] {
						if math.Float64bits(got[i]) != math.Float64bits(w) {
							t.Fatalf("trial %d %s: score[%d] = %v, pointer walk %v (bit-exact)",
								trial, what, from*k+i, got[i], w)
						}
					}
				}
				for _, n := range []int{1, 15, 16, 17, 63, 64, 65, 512} {
					for _, block := range []int{0, 1, 3, 1000} {
						got := make([]float64, n*k)
						ff.PredictBlock(feats[:n], vals[:n], got, block)
						check(fmt.Sprintf("PredictBlock n=%d block=%d", n, block), got, 0)
					}
				}
				for _, workers := range []int{1, 4} {
					check(fmt.Sprintf("PredictCSR workers=%d", workers), ff.PredictCSR(m, workers), 0)
				}
				for i := 0; i < m.Rows(); i += 7 {
					check("PredictRow", ff.PredictRow(feats[i], vals[i]), i)
				}
			}
		})
	}
}

// FuzzRouteKey holds the node range test to the float routing predicate
// `present ? v <= thr : defaultLeft` for every value and threshold bit
// pattern.
func FuzzRouteKey(f *testing.F) {
	for _, v := range specialFloats {
		for _, thr := range specialFloats {
			f.Add(math.Float32bits(v), math.Float32bits(thr), true, v == thr)
		}
		f.Add(math.Float32bits(v), math.Float32bits(v), false, true)
		f.Add(math.Float32bits(v), math.Float32bits(v), false, false)
	}
	f.Fuzz(func(t *testing.T, vBits, thrBits uint32, present, defaultLeft bool) {
		v, thr := math.Float32frombits(vBits), math.Float32frombits(thrBits)
		n := interiorNode(0, thr, defaultLeft, 0)
		key := uint32(missingKey)
		left := defaultLeft
		if present {
			key, left = routeKey(v), v <= thr
		}
		if n.goesRight(key) == left {
			t.Fatalf("v=%v (%#08x) thr=%v (%#08x) present=%v defaultLeft=%v: range test sends it the wrong way (key %#08x, node %+v)",
				v, vBits, thr, thrBits, present, defaultLeft, key, n)
		}
	})
}

// TestFlatValidateRejectsCorruptImage corrupts one field of a valid
// compiled forest at a time.
func TestFlatValidateRejectsCorruptImage(t *testing.T) {
	firstLeaf := func(ff *FlatForest) int {
		for i, n := range ff.nodes {
			if n.width == 0 {
				return i
			}
		}
		t.Fatal("no leaf")
		return -1
	}
	for _, tc := range []struct {
		name    string
		corrupt func(ff *FlatForest)
	}{
		{"interior_right_child_past_tree", func(ff *FlatForest) { ff.nodes[0].left = ff.roots[1] - 1 }},
		{"interior_child_backwards", func(ff *FlatForest) { ff.nodes[0].left = 0 }},
		{"column_outside_image", func(ff *FlatForest) { ff.nodes[0].off = int32(ff.numSplitFeat * ff.stride) }},
		{"negative_column", func(ff *FlatForest) { ff.nodes[0].off = -1 }},
		{"leaf_not_self_looping", func(ff *FlatForest) { ff.nodes[firstLeaf(ff)].left++ }},
		{"leaf_weights_out_of_range", func(ff *FlatForest) { ff.nodes[firstLeaf(ff)].lo = uint32(len(ff.weights)) }},
		{"missing_depths", func(ff *FlatForest) { ff.depth = ff.depth[:1] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ff := Compile(randomForest(t, rand.New(rand.NewSource(3)), 4, 4, 10, 2))
			if err := ff.Validate(); err != nil {
				t.Fatalf("valid forest rejected: %v", err)
			}
			tc.corrupt(ff)
			if err := ff.Validate(); err == nil {
				t.Fatal("corrupt image accepted")
			}
		})
	}
}

// TestPredictBlockEdgeCases covers shapes the property test's generator
// does not produce: empty batches, all-empty rows, root-only forests and
// rows carrying feature ids no split routes on.
func TestPredictBlockEdgeCases(t *testing.T) {
	t.Run("root_only", func(t *testing.T) {
		f := NewForest(2, 0.1, []float64{0.5, -0.5}, "softmax", 4)
		tr := New(2)
		tr.SetLeaf(0, []float64{1, 2})
		f.Append(tr)
		ff := Compile(f)
		out := make([]float64, 2*2)
		ff.PredictBlock([][]uint32{nil, {1}}, [][]float32{nil, {3}}, out, 0)
		want := []float64{0.5 + 0.1*1, -0.5 + 0.1*2}
		for r := 0; r < 2; r++ {
			for k := range want {
				if out[r*2+k] != want[k] {
					t.Fatalf("row %d: got %v, want %v", r, out[r*2:r*2+2], want)
				}
			}
		}
		if res := ff.PredictCSR(sparse.NewCSRBuilder(4).Build(), 4); len(res) != 0 {
			t.Fatalf("empty matrix produced %d scores", len(res))
		}
	})
	t.Run("unrouted_features", func(t *testing.T) {
		f := NewForest(1, 1, []float64{0}, "square", 1_000_000)
		tr := New(1)
		l, r := tr.Split(0, 0, 0, 0, false, 1)
		tr.SetLeaf(l, []float64{-1})
		tr.SetLeaf(r, []float64{+1})
		f.Append(tr)
		ff := Compile(f)
		out := make([]float64, 2)
		ff.PredictBlock(
			[][]uint32{{0, 999_999}, {999_999}},
			[][]float32{{-1, 42}, {42}},
			out, 7)
		if out[0] != -1 || out[1] != 1 {
			t.Fatalf("got %v, want [-1 1]", out)
		}
	})
	t.Run("empty_batch", func(t *testing.T) {
		rng := rand.New(rand.NewSource(2))
		ff := Compile(randomForest(t, rng, 3, 4, 10, 1))
		ff.PredictBlock(nil, nil, nil, 0) // must not panic
	})
}

func BenchmarkFlatCompile(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	f := randomForest(b, rng, 100, 8, 200, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compile(f)
	}
}
