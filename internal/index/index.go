// Package index implements the three indexes between tree nodes and
// training instances analyzed in Section 3.2 of the paper:
//
//   - node-to-instance: tree node -> the instances on it. Used with
//     row-store (QD2, QD4); enables the histogram subtraction technique
//     because any node's instance set is directly addressable.
//   - instance-to-node: instance -> its current tree node. Used with
//     column-store by XGBoost (QD1); histogram construction queries it for
//     every (instance, value) pair.
//   - column-wise node-to-instance: a node-to-instance index per feature
//     column, as in Yggdrasil (QD3). Locating a node's entries on every
//     column is O(1), but every node split must update all D indexes.
//
// All three support the same split protocol: a parent node's instances are
// partitioned into left and right children by the layer's placement — the
// N-bit bitmap of Section 3.1.3 (set bit = left child) for the two
// node-to-instance indexes, a predicate for the instance-to-node index,
// whose horizontal user (QD1) never materializes a bitmap.
package index

import (
	"fmt"

	"vero/internal/bitmap"
)

// partition is the one split kernel of both node-to-instance indexes: a
// stable, branch-free partition of items by the placement bits of their
// instances (instOf[item]; the item itself when instOf is nil). Left items
// are compacted in place, right items collect in scratch and are copied
// back behind them. It returns the number of left items.
func partition(items, scratch []uint32, instOf []uint32, words []uint64) int {
	nl, nr := 0, 0
	scratch = scratch[:len(items)]
	for _, it := range items {
		inst := it
		if instOf != nil {
			inst = instOf[it]
		}
		left := int(words[inst>>6] >> (inst & 63) & 1)
		// Both stores are unconditional: items[nl] was already read (nl
		// never passes the read cursor) and scratch[nr] is overwritten by
		// the next right item if this one went left.
		items[nl] = it
		scratch[nr] = it
		nl += left
		nr += 1 - left
	}
	copy(items[nl:], scratch[:nr])
	return nl
}

// NodeToInstance maps tree nodes to their instances. Instances are kept in
// a single permutation array; each node owns a contiguous range, so
// splitting a node is a stable in-place partition of its range — the
// LightGBM data-partition layout.
type NodeToInstance struct {
	pos     []uint32
	scratch []uint32
	ranges  map[int32][2]int
}

// NewNodeToInstance returns an index with all n instances on root node 0.
func NewNodeToInstance(n int) *NodeToInstance {
	idx := &NodeToInstance{
		pos:     make([]uint32, n),
		scratch: make([]uint32, n),
		ranges:  make(map[int32][2]int, 16),
	}
	for i := range idx.pos {
		idx.pos[i] = uint32(i)
	}
	idx.ranges[0] = [2]int{0, n}
	return idx
}

// Reset reassigns every instance to root node 0 (start of a new tree).
func (idx *NodeToInstance) Reset() {
	for i := range idx.pos {
		idx.pos[i] = uint32(i)
	}
	clear(idx.ranges)
	idx.ranges[0] = [2]int{0, len(idx.pos)}
}

// Instances returns the instances currently on node. The slice aliases
// internal storage and is invalidated by the next Split involving node's
// range.
func (idx *NodeToInstance) Instances(node int32) []uint32 {
	r, ok := idx.ranges[node]
	if !ok {
		return nil
	}
	return idx.pos[r[0]:r[1]]
}

// Count returns the number of instances on node.
func (idx *NodeToInstance) Count(node int32) int {
	r := idx.ranges[node]
	return r[1] - r[0]
}

// Split partitions node's instances into left and right children by the
// placement bitmap (set bit = left child). It is stable: relative instance
// order is preserved within each child, keeping row scans sequential.
func (idx *NodeToInstance) Split(node, left, right int32, placement *bitmap.Bitmap) {
	r, ok := idx.ranges[node]
	if !ok {
		panic(fmt.Sprintf("index: split of unknown node %d", node))
	}
	lo, hi := r[0], r[1]
	nl := partition(idx.pos[lo:hi], idx.scratch, nil, placement.Words())
	delete(idx.ranges, node)
	idx.ranges[left] = [2]int{lo, lo + nl}
	idx.ranges[right] = [2]int{lo + nl, hi}
}

// Nodes returns the number of nodes currently holding ranges.
func (idx *NodeToInstance) Nodes() int { return len(idx.ranges) }

// InstanceToNode maps each instance to its current tree node.
type InstanceToNode struct {
	node []int32
}

// NewInstanceToNode returns an index with all n instances on root node 0.
func NewInstanceToNode(n int) *InstanceToNode {
	return &InstanceToNode{node: make([]int32, n)}
}

// Reset reassigns every instance to root node 0.
func (idx *InstanceToNode) Reset() {
	for i := range idx.node {
		idx.node[i] = 0
	}
}

// Node returns the tree node of instance i.
func (idx *InstanceToNode) Node(i uint32) int32 { return idx.node[i] }

// Assignments returns the raw instance-to-node array (entry i is the node
// of instance i). The slice aliases internal storage and must be treated
// as read-only; it is the flat view the histogram kernels scan instead of
// calling Node per entry.
func (idx *InstanceToNode) Assignments() []int32 { return idx.node }

// Len returns the number of instances.
func (idx *InstanceToNode) Len() int { return len(idx.node) }

// SplitLayer applies one layer's node splits in a single pass over all
// instances — the cost profile of Section 3.2.4: O(N) per layer no matter
// how many nodes split. children maps a splitting parent to its (left,
// right) pair; goesLeft decides the placement of an instance whose parent
// is splitting.
func (idx *InstanceToNode) SplitLayer(children map[int32][2]int32, goesLeft func(inst uint32) bool) {
	for i := range idx.node {
		ch, ok := children[idx.node[i]]
		if !ok {
			continue
		}
		if goesLeft(uint32(i)) {
			idx.node[i] = ch[0]
		} else {
			idx.node[i] = ch[1]
		}
	}
}

// ColumnWise keeps a node-to-instance index per feature column: for every
// column, a permutation of the column's entry positions grouped by tree
// node. colLen gives each column's entry count; the instances owning a
// column's entries are resolved through the instsOf callback supplied to
// Split, so the index works for any column storage.
type ColumnWise struct {
	perm    [][]uint32
	ranges  []map[int32][2]int
	scratch []uint32
}

// NewColumnWise builds an index over columns with the given entry counts.
func NewColumnWise(colLen []int) *ColumnWise {
	cw := &ColumnWise{
		perm:   make([][]uint32, len(colLen)),
		ranges: make([]map[int32][2]int, len(colLen)),
	}
	maxLen := 0
	for j, n := range colLen {
		cw.perm[j] = make([]uint32, n)
		for k := range cw.perm[j] {
			cw.perm[j][k] = uint32(k)
		}
		cw.ranges[j] = map[int32][2]int{0: {0, n}}
		if n > maxLen {
			maxLen = n
		}
	}
	cw.scratch = make([]uint32, maxLen)
	return cw
}

// Reset reassigns every column's entries to root node 0.
func (cw *ColumnWise) Reset() {
	for j := range cw.perm {
		for k := range cw.perm[j] {
			cw.perm[j][k] = uint32(k)
		}
		clear(cw.ranges[j])
		cw.ranges[j][0] = [2]int{0, len(cw.perm[j])}
	}
}

// Entries returns the positions (into the column's storage arrays) of the
// entries whose instances sit on node. The slice aliases internal storage.
func (cw *ColumnWise) Entries(col int, node int32) []uint32 {
	r, ok := cw.ranges[col][node]
	if !ok {
		return nil
	}
	return cw.perm[col][r[0]:r[1]]
}

// Split partitions every column's entries of the splitting node by the
// placement bitmap — the update whose cost is proportional to D and which
// Section 3.2.3 flags as the fatal drawback for high-dimensional data.
// instsOf returns a column's instance ids, indexed by entry position.
func (cw *ColumnWise) Split(node, left, right int32, placement *bitmap.Bitmap, instsOf func(col int) []uint32) {
	words := placement.Words()
	for j := range cw.perm {
		r, ok := cw.ranges[j][node]
		if !ok {
			continue
		}
		lo, hi := r[0], r[1]
		nl := partition(cw.perm[j][lo:hi], cw.scratch, instsOf(j), words)
		delete(cw.ranges[j], node)
		cw.ranges[j][left] = [2]int{lo, lo + nl}
		cw.ranges[j][right] = [2]int{lo + nl, hi}
	}
}

// NumCols returns the number of indexed columns.
func (cw *ColumnWise) NumCols() int { return len(cw.perm) }
