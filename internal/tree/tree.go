// Package tree implements the decision-tree and GBDT-forest model
// structures shared by every quadrant trainer, along with prediction and
// serialization.
//
// Trees are stored as flat node arrays. Leaves carry C-dimensional weight
// vectors so a single tree serves multi-classification, matching the
// gradient-vector formulation the paper's histogram-size analysis assumes
// (Section 3.1.1).
package tree

import (
	"encoding/json"
	"fmt"

	"vero/internal/sparse"
)

// NoChild marks an absent child link.
const NoChild = int32(-1)

// Node is one tree node. Interior nodes route on (Feature, SplitValue);
// instances with a missing value on Feature follow DefaultLeft.
type Node struct {
	// Feature is the global feature id of the split; -1 on leaves.
	Feature int32 `json:"feature"`
	// SplitValue is the raw-value threshold: value <= SplitValue goes left.
	SplitValue float32 `json:"split_value"`
	// SplitBin is the histogram-bin threshold used when routing binned
	// data during training: bin <= SplitBin goes left.
	SplitBin uint16 `json:"split_bin"`
	// DefaultLeft routes missing values left when true.
	DefaultLeft bool `json:"default_left"`
	// Left and Right are child node indexes, or NoChild.
	Left  int32 `json:"left"`
	Right int32 `json:"right"`
	// Gain is the split gain (Equation 2) recorded for diagnostics.
	Gain float64 `json:"gain,omitempty"`
	// Weights holds the C leaf values; nil on interior nodes.
	Weights []float64 `json:"weights,omitempty"`
}

// IsLeaf reports whether the node has no split.
func (n *Node) IsLeaf() bool { return n.Feature < 0 }

// Tree is a single decision tree with C-dimensional leaf outputs.
type Tree struct {
	Nodes    []Node `json:"nodes"`
	NumClass int    `json:"num_class"`
}

// New returns a tree with a single root leaf (zero weights).
func New(numClass int) *Tree {
	return &Tree{
		Nodes:    []Node{{Feature: -1, Left: NoChild, Right: NoChild, Weights: make([]float64, numClass)}},
		NumClass: numClass,
	}
}

// Root returns the root node index (always 0).
func (t *Tree) Root() int32 { return 0 }

// Split turns leaf id into an interior node with the given split and
// appends two fresh leaf children, returning their indexes.
func (t *Tree) Split(id int32, feature int32, splitValue float32, splitBin uint16, defaultLeft bool, gain float64) (left, right int32) {
	n := &t.Nodes[id]
	if !n.IsLeaf() {
		panic(fmt.Sprintf("tree: Split on interior node %d", id))
	}
	left = int32(len(t.Nodes))
	right = left + 1
	t.Nodes = append(t.Nodes,
		Node{Feature: -1, Left: NoChild, Right: NoChild, Weights: make([]float64, t.NumClass)},
		Node{Feature: -1, Left: NoChild, Right: NoChild, Weights: make([]float64, t.NumClass)},
	)
	n = &t.Nodes[id] // reacquire: append may have moved the backing array
	n.Feature = feature
	n.SplitValue = splitValue
	n.SplitBin = splitBin
	n.DefaultLeft = defaultLeft
	n.Gain = gain
	n.Left = left
	n.Right = right
	n.Weights = nil
	return left, right
}

// SetLeaf assigns the weight vector of leaf id.
func (t *Tree) SetLeaf(id int32, weights []float64) {
	n := &t.Nodes[id]
	if !n.IsLeaf() {
		panic(fmt.Sprintf("tree: SetLeaf on interior node %d", id))
	}
	if len(weights) != t.NumClass {
		panic(fmt.Sprintf("tree: %d weights for %d classes", len(weights), t.NumClass))
	}
	n.Weights = append(n.Weights[:0], weights...)
}

// NumLeaves returns the number of leaf nodes.
func (t *Tree) NumLeaves() int {
	c := 0
	for i := range t.Nodes {
		if t.Nodes[i].IsLeaf() {
			c++
		}
	}
	return c
}

// MaxDepth returns the number of layers (root-only tree has depth 1).
func (t *Tree) MaxDepth() int {
	if len(t.Nodes) == 0 {
		return 0
	}
	var walk func(id int32) int
	walk = func(id int32) int {
		n := &t.Nodes[id]
		if n.IsLeaf() {
			return 1
		}
		l := walk(n.Left)
		r := walk(n.Right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(0)
}

// PredictLeaf routes one sparse row (parallel feature/value slices sorted
// by feature id) to its leaf and returns the leaf node index.
func (t *Tree) PredictLeaf(feat []uint32, val []float32) int32 {
	id := int32(0)
	for {
		n := &t.Nodes[id]
		if n.IsLeaf() {
			return id
		}
		v, ok := lookup(feat, val, uint32(n.Feature))
		switch {
		case !ok:
			if n.DefaultLeft {
				id = n.Left
			} else {
				id = n.Right
			}
		case v <= n.SplitValue:
			id = n.Left
		default:
			id = n.Right
		}
	}
}

// Predict accumulates the tree's output for one sparse row into out
// (length NumClass), scaled by eta.
func (t *Tree) Predict(feat []uint32, val []float32, eta float64, out []float64) {
	leaf := t.PredictLeaf(feat, val)
	w := t.Nodes[leaf].Weights
	for k := range w {
		// The explicit conversion forbids fusing into an FMA (arm64),
		// keeping this walk bit-exact with FlatForest's pre-scaled weights.
		out[k] += float64(eta * w[k])
	}
}

// lookup binary-searches a sorted sparse row for feature f.
func lookup(feat []uint32, val []float32, f uint32) (float32, bool) {
	lo, hi := 0, len(feat)
	for lo < hi {
		mid := (lo + hi) / 2
		if feat[mid] < f {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(feat) && feat[lo] == f {
		return val[lo], true
	}
	return 0, false
}

// Forest is a trained GBDT model: an ordered set of trees plus the
// training configuration needed for inference.
type Forest struct {
	Trees        []*Tree   `json:"trees"`
	NumClass     int       `json:"num_class"`
	LearningRate float64   `json:"learning_rate"`
	InitScore    []float64 `json:"init_score"`
	Objective    string    `json:"objective"`
	NumFeature   int       `json:"num_feature"`
	// Splits, when non-nil, are the per-feature candidate split values the
	// model was trained against: Splits[f] is ascending (nil for features
	// with no observed values), and every interior node's SplitValue is
	// exactly Splits[Feature][SplitBin]. Serving never reads them: it
	// routes on the float thresholds. They stay in the encoding so model
	// bytes do not change, and models encoded before this field decode
	// with a nil Splits.
	Splits [][]float32 `json:"splits,omitempty"`
}

// NewForest returns an empty forest.
func NewForest(numClass int, eta float64, initScore []float64, objective string, numFeature int) *Forest {
	return &Forest{
		NumClass:     numClass,
		LearningRate: eta,
		InitScore:    append([]float64(nil), initScore...),
		Objective:    objective,
		NumFeature:   numFeature,
	}
}

// Append adds a trained tree to the forest.
func (f *Forest) Append(t *Tree) { f.Trees = append(f.Trees, t) }

// NumTrees returns the number of trees.
func (f *Forest) NumTrees() int { return len(f.Trees) }

// PredictRow returns the raw scores (margins) of one sparse row.
func (f *Forest) PredictRow(feat []uint32, val []float32) []float64 {
	out := make([]float64, f.NumClass)
	copy(out, f.InitScore)
	for _, t := range f.Trees {
		t.Predict(feat, val, f.LearningRate, out)
	}
	return out
}

// PredictCSR returns the raw scores of every row of m, row-major with
// stride NumClass.
func (f *Forest) PredictCSR(m *sparse.CSR) []float64 {
	out := make([]float64, m.Rows()*f.NumClass)
	for i := 0; i < m.Rows(); i++ {
		row := out[i*f.NumClass : (i+1)*f.NumClass]
		copy(row, f.InitScore)
		feat, val := m.Row(i)
		for _, t := range f.Trees {
			t.Predict(feat, val, f.LearningRate, row)
		}
	}
	return out
}

// MarshalJSON-friendly round trip helpers.

// Encode serializes the forest to JSON.
func (f *Forest) Encode() ([]byte, error) { return json.Marshal(f) }

// DecodeForest parses a forest serialized with Encode and validates its
// structure, so downstream prediction (pointer walk or compiled flat
// engine) never routes through corrupt node links.
func DecodeForest(data []byte) (*Forest, error) {
	var f Forest
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("tree: decode forest: %w", err)
	}
	// One init score per class bounds the class count, and with it every
	// prediction's allocation, by the encoding's size.
	if f.NumClass <= 0 || len(f.InitScore) != f.NumClass {
		return nil, fmt.Errorf("tree: decoded forest has num_class %d and %d init scores", f.NumClass, len(f.InitScore))
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return &f, nil
}

// MaxSplitFeature bounds the feature ids a valid forest splits on.
// Compile maps features through a dense table as long as the highest
// split feature, so an unbounded id in an untrusted model would be an
// unbounded allocation.
const MaxSplitFeature = 1 << 24

// Validate checks the structural invariants prediction relies on: every
// tree is non-empty, split features are below MaxSplitFeature, interior
// child links point forward and in range,
// every non-root node has exactly one parent (so a tree is a tree, and
// compiling it is linear in its nodes), and every leaf carries NumClass
// weights.
func (f *Forest) Validate() error {
	for ti, t := range f.Trees {
		n := int32(len(t.Nodes))
		if n == 0 {
			return fmt.Errorf("tree: forest tree %d has no nodes", ti)
		}
		hasParent := make([]bool, n)
		for i := int32(0); i < n; i++ {
			nd := &t.Nodes[i]
			if nd.IsLeaf() {
				if len(nd.Weights) != f.NumClass {
					return fmt.Errorf("tree: forest tree %d leaf %d has %d weights, want %d",
						ti, i, len(nd.Weights), f.NumClass)
				}
				continue
			}
			if nd.Feature >= MaxSplitFeature {
				return fmt.Errorf("tree: forest tree %d node %d splits on feature %d, beyond the limit of %d",
					ti, i, nd.Feature, MaxSplitFeature-1)
			}
			if nd.Left <= i || nd.Left >= n || nd.Right <= i || nd.Right >= n {
				return fmt.Errorf("tree: forest tree %d node %d has child links (%d,%d) outside (%d,%d)",
					ti, i, nd.Left, nd.Right, i, n)
			}
			for _, c := range [2]int32{nd.Left, nd.Right} {
				if hasParent[c] {
					return fmt.Errorf("tree: forest tree %d node %d has a second parent %d", ti, c, i)
				}
				hasParent[c] = true
			}
		}
		for i := int32(1); i < n; i++ {
			if !hasParent[i] {
				return fmt.Errorf("tree: forest tree %d node %d has no parent", ti, i)
			}
		}
	}
	return nil
}
