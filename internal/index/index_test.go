package index

import (
	"math/rand"
	"slices"
	"testing"

	"vero/internal/bitmap"
)

// placed returns the n-bit placement bitmap of a predicate.
func placed(n int, goesLeft func(i uint32) bool) *bitmap.Bitmap {
	bm := bitmap.New(n)
	for i := 0; i < n; i++ {
		bm.SetTo(i, goesLeft(uint32(i)))
	}
	return bm
}

func TestNodeToInstanceInitial(t *testing.T) {
	idx := NewNodeToInstance(5)
	got := idx.Instances(0)
	if len(got) != 5 {
		t.Fatalf("root has %d instances, want 5", len(got))
	}
	for i, inst := range got {
		if inst != uint32(i) {
			t.Fatalf("instance %d = %d", i, inst)
		}
	}
	if idx.Count(0) != 5 || idx.Nodes() != 1 {
		t.Fatalf("Count=%d Nodes=%d", idx.Count(0), idx.Nodes())
	}
	if idx.Instances(7) != nil {
		t.Fatal("unknown node returned instances")
	}
}

func TestNodeToInstanceSplitStable(t *testing.T) {
	idx := NewNodeToInstance(6)
	// Even instances left, odd right.
	idx.Split(0, 1, 2, placed(6, func(i uint32) bool { return i%2 == 0 }))
	left := idx.Instances(1)
	right := idx.Instances(2)
	if len(left) != 3 || len(right) != 3 {
		t.Fatalf("split sizes %d/%d", len(left), len(right))
	}
	for i, inst := range left {
		if inst != uint32(2*i) {
			t.Fatalf("left not stable: %v", left)
		}
	}
	for i, inst := range right {
		if inst != uint32(2*i+1) {
			t.Fatalf("right not stable: %v", right)
		}
	}
	if idx.Instances(0) != nil {
		t.Fatal("parent still has instances after split")
	}
}

func TestNodeToInstanceDeepSplits(t *testing.T) {
	const n = 1000
	idx := NewNodeToInstance(n)
	rng := rand.New(rand.NewSource(5))
	side := make([]uint8, n)
	for i := range side {
		side[i] = uint8(rng.Intn(4))
	}
	idx.Split(0, 1, 2, placed(n, func(i uint32) bool { return side[i] < 2 }))
	idx.Split(1, 3, 4, placed(n, func(i uint32) bool { return side[i] == 0 }))
	idx.Split(2, 5, 6, placed(n, func(i uint32) bool { return side[i] == 2 }))
	total := 0
	for node := int32(3); node <= 6; node++ {
		for _, inst := range idx.Instances(node) {
			if side[inst] != uint8(node-3) {
				t.Fatalf("instance %d (side %d) landed on node %d", inst, side[inst], node)
			}
		}
		total += idx.Count(node)
	}
	if total != n {
		t.Fatalf("leaves cover %d instances, want %d", total, n)
	}
}

func TestNodeToInstanceSplitUnknownPanics(t *testing.T) {
	idx := NewNodeToInstance(3)
	defer func() {
		if recover() == nil {
			t.Fatal("split of unknown node did not panic")
		}
	}()
	idx.Split(9, 1, 2, bitmap.New(3))
}

func TestNodeToInstanceReset(t *testing.T) {
	idx := NewNodeToInstance(4)
	idx.Split(0, 1, 2, placed(4, func(i uint32) bool { return i < 2 }))
	idx.Reset()
	if idx.Count(0) != 4 || idx.Nodes() != 1 {
		t.Fatalf("after Reset: Count=%d Nodes=%d", idx.Count(0), idx.Nodes())
	}
}

func TestInstanceToNodeSplitLayer(t *testing.T) {
	idx := NewInstanceToNode(8)
	if idx.Len() != 8 {
		t.Fatalf("Len = %d", idx.Len())
	}
	// Layer 1: root splits into 1,2 by parity.
	idx.SplitLayer(map[int32][2]int32{0: {1, 2}}, func(i uint32) bool { return i%2 == 0 })
	// Layer 2: both children split again by i < 4.
	idx.SplitLayer(map[int32][2]int32{1: {3, 4}, 2: {5, 6}}, func(i uint32) bool { return i < 4 })
	want := map[uint32]int32{0: 3, 1: 5, 2: 3, 3: 5, 4: 4, 5: 6, 6: 4, 7: 6}
	for i, node := range want {
		if got := idx.Node(i); got != node {
			t.Fatalf("instance %d on node %d, want %d", i, got, node)
		}
	}
}

func TestInstanceToNodeUntouchedNodesStay(t *testing.T) {
	idx := NewInstanceToNode(4)
	idx.SplitLayer(map[int32][2]int32{0: {1, 2}}, func(i uint32) bool { return i < 2 })
	// Split only node 1; node 2's instances must not move.
	idx.SplitLayer(map[int32][2]int32{1: {3, 4}}, func(i uint32) bool { return i == 0 })
	if idx.Node(2) != 2 || idx.Node(3) != 2 {
		t.Fatal("instances on non-splitting node moved")
	}
	idx.Reset()
	for i := uint32(0); i < 4; i++ {
		if idx.Node(i) != 0 {
			t.Fatal("Reset did not return instances to root")
		}
	}
}

func TestColumnWiseSplit(t *testing.T) {
	// Two columns: col 0 holds instances {0,1,2,3}, col 1 holds {1,3}.
	colInst := [][]uint32{{0, 1, 2, 3}, {1, 3}}
	cw := NewColumnWise([]int{4, 2})
	if cw.NumCols() != 2 {
		t.Fatalf("NumCols = %d", cw.NumCols())
	}
	instOf := func(col int, pos uint32) uint32 { return colInst[col][pos] }
	instsOf := func(col int) []uint32 { return colInst[col] }
	// Instances 0,1 go left.
	cw.Split(0, 1, 2, placed(4, func(i uint32) bool { return i < 2 }), instsOf)
	if got := cw.Entries(0, 1); len(got) != 2 || instOf(0, got[0]) != 0 || instOf(0, got[1]) != 1 {
		t.Fatalf("col0 left entries = %v", got)
	}
	if got := cw.Entries(1, 2); len(got) != 1 || instOf(1, got[0]) != 3 {
		t.Fatalf("col1 right entries = %v", got)
	}
	if cw.Entries(0, 0) != nil {
		t.Fatal("parent range survived split")
	}
}

func TestColumnWiseMissingNodeOnColumn(t *testing.T) {
	// Column 1 has no entries for the left child; a further split of that
	// child must not panic and must leave column 1 untouched.
	colInst := [][]uint32{{0, 1}, {1}}
	cw := NewColumnWise([]int{2, 1})
	instsOf := func(col int) []uint32 { return colInst[col] }
	cw.Split(0, 1, 2, placed(2, func(i uint32) bool { return i == 0 }), instsOf)
	if got := cw.Entries(1, 1); len(got) != 0 {
		t.Fatalf("col1 has left entries %v", got)
	}
	cw.Split(1, 3, 4, placed(2, func(i uint32) bool { return true }), instsOf)
	if got := cw.Entries(0, 3); len(got) != 1 {
		t.Fatalf("col0 node3 entries = %v", got)
	}
}

func TestColumnWiseReset(t *testing.T) {
	colInst := [][]uint32{{0, 1, 2}}
	cw := NewColumnWise([]int{3})
	cw.Split(0, 1, 2, placed(3, func(i uint32) bool { return i == 1 }), func(col int) []uint32 { return colInst[col] })
	cw.Reset()
	if got := cw.Entries(0, 0); len(got) != 3 {
		t.Fatalf("after Reset root entries = %v", got)
	}
}

func TestAllIndexesAgreeOnRandomSplits(t *testing.T) {
	// Drive the three indexes through the same random split sequence and
	// check they report identical node memberships.
	const n = 500
	rng := rand.New(rand.NewSource(11))
	n2i := NewNodeToInstance(n)
	i2n := NewInstanceToNode(n)
	colInst := make([][]uint32, 3)
	colLen := make([]int, 3)
	for j := range colInst {
		for i := uint32(0); i < n; i++ {
			if rng.Intn(2) == 0 {
				colInst[j] = append(colInst[j], i)
			}
		}
		colLen[j] = len(colInst[j])
	}
	cw := NewColumnWise(colLen)
	instOf := func(col int, pos uint32) uint32 { return colInst[col][pos] }

	frontier := []int32{0}
	next := int32(1)
	for layer := 0; layer < 4; layer++ {
		children := make(map[int32][2]int32)
		assign := make([]bool, n)
		for i := range assign {
			assign[i] = rng.Intn(2) == 0
		}
		goesLeft := func(i uint32) bool { return assign[i] }
		placement := placed(n, goesLeft)
		var newFrontier []int32
		for _, node := range frontier {
			l, r := next, next+1
			next += 2
			children[node] = [2]int32{l, r}
			n2i.Split(node, l, r, placement)
			cw.Split(node, l, r, placement, func(col int) []uint32 { return colInst[col] })
			newFrontier = append(newFrontier, l, r)
		}
		i2n.SplitLayer(children, goesLeft)
		frontier = newFrontier
	}

	// Membership per instance-to-node must match node-to-instance ranges.
	fromRanges := make(map[uint32]int32, n)
	for _, node := range frontier {
		for _, inst := range n2i.Instances(node) {
			fromRanges[inst] = node
		}
	}
	if len(fromRanges) != n {
		t.Fatalf("node-to-instance covers %d instances, want %d", len(fromRanges), n)
	}
	for i := uint32(0); i < n; i++ {
		if fromRanges[i] != i2n.Node(i) {
			t.Fatalf("instance %d: n2i says node %d, i2n says %d", i, fromRanges[i], i2n.Node(i))
		}
	}
	// Column-wise entries must sit on the node of their instance.
	for j := range colInst {
		seen := 0
		for _, node := range frontier {
			for _, pos := range cw.Entries(j, node) {
				if i2n.Node(instOf(j, pos)) != node {
					t.Fatalf("col %d pos %d on wrong node", j, pos)
				}
				seen++
			}
		}
		if seen != colLen[j] {
			t.Fatalf("col %d: %d entries indexed, want %d", j, seen, colLen[j])
		}
	}
}

// refPartition is the closure-predicate stable partition the bitmap kernels
// replaced, kept here as their reference.
func refPartition(items []uint32, goesLeft func(item uint32) bool) (left, right []uint32) {
	for _, it := range items {
		if goesLeft(it) {
			left = append(left, it)
		} else {
			right = append(right, it)
		}
	}
	return left, right
}

// TestBitmapSplitMatchesPredicateReference drives both node-to-instance
// indexes through random placements — including all-left and all-right
// layers (an empty child) and instance counts that are not a multiple of
// the bitmap's word size — and checks every child's order and range against
// the closure-predicate reference.
func TestBitmapSplitMatchesPredicateReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range []int{1, 63, 64, 65, 130, 1000} {
		colInst := make([][]uint32, 3)
		colLen := make([]int, len(colInst))
		for j := range colInst {
			for i := 0; i < n; i++ {
				if rng.Intn(3) > 0 {
					colInst[j] = append(colInst[j], uint32(i))
				}
			}
			colLen[j] = len(colInst[j])
		}
		n2i := NewNodeToInstance(n)
		cw := NewColumnWise(colLen)
		frontier := []int32{0}
		next := int32(1)
		for layer := 0; layer < 5; layer++ {
			// Layer 1 sends everything left and layer 2 everything right, so
			// later layers also split empty nodes.
			leftShare := []int{100, 0, 50, 30, 70}[layer]
			placement := placed(n, func(uint32) bool { return rng.Intn(100) < leftShare })
			goesLeft := func(inst uint32) bool { return placement.Get(int(inst)) }
			var newFrontier []int32
			for _, node := range frontier {
				l, r := next, next+1
				next += 2
				wantL, wantR := refPartition(n2i.Instances(node), goesLeft)
				wantCols := make([][2][]uint32, len(colInst))
				for j := range colInst {
					wantCols[j][0], wantCols[j][1] = refPartition(cw.Entries(j, node), func(pos uint32) bool {
						return goesLeft(colInst[j][pos])
					})
				}
				before := n2i.Count(node)
				n2i.Split(node, l, r, placement)
				cw.Split(node, l, r, placement, func(col int) []uint32 { return colInst[col] })
				if !slices.Equal(n2i.Instances(l), wantL) || !slices.Equal(n2i.Instances(r), wantR) {
					t.Fatalf("n=%d layer %d node %d: children differ from the reference", n, layer, node)
				}
				if n2i.Count(l)+n2i.Count(r) != before || n2i.Instances(node) != nil {
					t.Fatalf("n=%d layer %d node %d: child ranges do not tile the parent's", n, layer, node)
				}
				for j := range colInst {
					if !slices.Equal(cw.Entries(j, l), wantCols[j][0]) || !slices.Equal(cw.Entries(j, r), wantCols[j][1]) {
						t.Fatalf("n=%d layer %d node %d col %d: column-wise children differ from the reference", n, layer, node, j)
					}
				}
				newFrontier = append(newFrontier, l, r)
			}
			frontier = newFrontier
		}
	}
}
