package tree

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"vero/internal/sparse"
)

// buildStump returns the tree of Figure 2 (left): root splits on feature 0
// ("Married", <=0 goes left), left child splits on feature 1 ("Age" < 35).
func buildStump(t *testing.T) *Tree {
	t.Helper()
	tr := New(1)
	l, r := tr.Split(tr.Root(), 0, 0.5, 0, false, 1.0)
	tr.SetLeaf(r, []float64{5})
	ll, lr := tr.Split(l, 1, 35, 1, true, 0.5)
	tr.SetLeaf(ll, []float64{3})
	tr.SetLeaf(lr, []float64{10})
	return tr
}

func TestSplitAndLeaves(t *testing.T) {
	tr := buildStump(t)
	if got := tr.NumLeaves(); got != 3 {
		t.Fatalf("NumLeaves = %d, want 3", got)
	}
	if got := tr.MaxDepth(); got != 3 {
		t.Fatalf("MaxDepth = %d, want 3", got)
	}
	if len(tr.Nodes) != 5 {
		t.Fatalf("len(Nodes) = %d, want 5", len(tr.Nodes))
	}
}

func TestSplitOnInteriorPanics(t *testing.T) {
	tr := buildStump(t)
	defer func() {
		if recover() == nil {
			t.Fatal("Split on interior node did not panic")
		}
	}()
	tr.Split(0, 1, 0, 0, false, 0)
}

func TestSetLeafValidation(t *testing.T) {
	tr := New(2)
	defer func() {
		if recover() == nil {
			t.Fatal("SetLeaf with wrong arity did not panic")
		}
	}()
	tr.SetLeaf(0, []float64{1})
}

func TestPredictLeafRouting(t *testing.T) {
	tr := buildStump(t)
	cases := []struct {
		feat []uint32
		val  []float32
		want float64
	}{
		{[]uint32{0, 1}, []float32{1, 40}, 5},  // married -> right leaf
		{[]uint32{0, 1}, []float32{0, 20}, 3},  // unmarried, young
		{[]uint32{0, 1}, []float32{0, 50}, 10}, // unmarried, old
		{[]uint32{0}, []float32{0}, 3},         // age missing -> default left
		{nil, nil, 5},                          // feature 0 missing -> default right
	}
	for i, c := range cases {
		out := make([]float64, 1)
		tr.Predict(c.feat, c.val, 1.0, out)
		if out[0] != c.want {
			t.Errorf("case %d: predict = %v, want %v", i, out[0], c.want)
		}
	}
}

func TestPredictScalesByEta(t *testing.T) {
	tr := buildStump(t)
	out := make([]float64, 1)
	tr.Predict([]uint32{0, 1}, []float32{1, 40}, 0.1, out)
	if math.Abs(out[0]-0.5) > 1e-12 {
		t.Fatalf("eta-scaled predict = %v, want 0.5", out[0])
	}
}

func TestForestSumsTrees(t *testing.T) {
	// Figure 2: prediction = sum of leaf predictions of all trees.
	t1 := buildStump(t)
	t2 := New(1)
	t2.SetLeaf(t2.Root(), []float64{5})
	f := NewForest(1, 1.0, []float64{0}, "square", 2)
	f.Append(t1)
	f.Append(t2)
	got := f.PredictRow([]uint32{0, 1}, []float32{0, 20})
	if got[0] != 8 { // 3 + 5, as in the paper's Figure 2
		t.Fatalf("forest prediction = %v, want 8", got[0])
	}
}

func TestForestInitScore(t *testing.T) {
	f := NewForest(1, 1.0, []float64{2.5}, "square", 1)
	if got := f.PredictRow(nil, nil)[0]; got != 2.5 {
		t.Fatalf("init-only prediction = %v, want 2.5", got)
	}
}

func TestPredictCSR(t *testing.T) {
	tr := buildStump(t)
	f := NewForest(1, 1.0, []float64{0}, "square", 2)
	f.Append(tr)
	b := sparse.NewCSRBuilder(2)
	for _, row := range [][]sparse.KV{
		{{Index: 0, Value: 1}, {Index: 1, Value: 40}},
		{{Index: 0, Value: 0}, {Index: 1, Value: 20}},
	} {
		if err := b.AddRow(row); err != nil {
			t.Fatal(err)
		}
	}
	got := f.PredictCSR(b.Build())
	if got[0] != 5 || got[1] != 3 {
		t.Fatalf("PredictCSR = %v, want [5 3]", got)
	}
}

func TestMultiClassLeaves(t *testing.T) {
	tr := New(3)
	tr.SetLeaf(tr.Root(), []float64{1, 2, 3})
	out := make([]float64, 3)
	tr.Predict(nil, nil, 0.5, out)
	if out[0] != 0.5 || out[1] != 1 || out[2] != 1.5 {
		t.Fatalf("multi-class predict = %v", out)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tr := buildStump(t)
	f := NewForest(1, 0.3, []float64{0.1}, "logistic", 2)
	f.Append(tr)
	data, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	g, err := DecodeForest(data)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTrees() != 1 || g.LearningRate != 0.3 || g.Objective != "logistic" {
		t.Fatalf("decoded forest = %+v", g)
	}
	row := []uint32{0, 1}
	val := []float32{0, 50}
	if a, b := f.PredictRow(row, val)[0], g.PredictRow(row, val)[0]; a != b {
		t.Fatalf("prediction changed after round trip: %v vs %v", a, b)
	}
}

func TestDecodeForestRejectsGarbage(t *testing.T) {
	if _, err := DecodeForest([]byte("not json")); err == nil {
		t.Fatal("DecodeForest accepted garbage")
	}
	if _, err := DecodeForest([]byte(`{"num_class":0}`)); err == nil {
		t.Fatal("DecodeForest accepted num_class 0")
	}
}

// TestDecodeForestRejectsSharedChildren pins the one-parent rule: a chain
// of interior nodes whose two links both point at the next node has
// forward, in-range links, but 2^n root-to-leaf paths. It, and a tree
// with an unreachable node, must be refused at decode, and quickly.
func TestDecodeForestRejectsSharedChildren(t *testing.T) {
	const n = 40
	var b strings.Builder
	b.WriteString(`{"num_class":1,"learning_rate":1,"init_score":[0],"trees":[{"num_class":1,"nodes":[`)
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&b, `{"feature":0,"left":%d,"right":%d},`, i+1, i+1)
	}
	b.WriteString(`{"feature":-1,"left":-1,"right":-1,"weights":[1]}]}]}`)
	start := time.Now()
	if _, err := DecodeForest([]byte(b.String())); err == nil || !strings.Contains(err.Error(), "second parent") {
		t.Fatalf("shared-child chain: err = %v, want a second-parent error", err)
	}
	if d := time.Since(start); d > 10*time.Millisecond {
		t.Fatalf("rejecting a %d-node chain took %v", n, d)
	}
	orphan := `{"num_class":1,"learning_rate":1,"init_score":[0],"trees":[{"num_class":1,"nodes":[` +
		`{"feature":0,"left":1,"right":3},{"feature":-1,"left":-1,"right":-1,"weights":[1]},` +
		`{"feature":-1,"left":-1,"right":-1,"weights":[1]},{"feature":-1,"left":-1,"right":-1,"weights":[1]}]}]}`
	if _, err := DecodeForest([]byte(orphan)); err == nil || !strings.Contains(err.Error(), "no parent") {
		t.Fatalf("unreachable node: err = %v, want a no-parent error", err)
	}
}

func TestLookup(t *testing.T) {
	feat := []uint32{2, 5, 9}
	val := []float32{1, 2, 3}
	if v, ok := lookup(feat, val, 5); !ok || v != 2 {
		t.Fatalf("lookup(5) = %v,%v", v, ok)
	}
	if _, ok := lookup(feat, val, 4); ok {
		t.Fatal("lookup(4) found a phantom")
	}
	if _, ok := lookup(nil, nil, 1); ok {
		t.Fatal("lookup on empty row found a phantom")
	}
}
