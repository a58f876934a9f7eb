// Package sparse implements the sparse-matrix storage substrates used by
// every quadrant of the paper's data-management taxonomy.
//
// A training dataset is a matrix whose rows are instances and whose columns
// are features. Row-store keeps each instance as a list of
// (feature index, value) pairs — Compressed Sparse Row (CSR). Column-store
// keeps each feature as a list of (instance index, value) pairs —
// Compressed Sparse Column (CSC). After quantile binning, values are
// replaced by histogram-bin indices; the binned variants (BinnedCSR,
// BinnedCSC) store those compactly.
package sparse

import (
	"fmt"
	"sort"
)

// KV is one (feature, value) pair of a row, or one (instance, value) pair
// of a column, depending on context.
type KV struct {
	Index uint32
	Value float32
}

// CSR is an immutable sparse matrix in Compressed Sparse Row format.
type CSR struct {
	rows, cols int
	// RowPtr has rows+1 entries; row i occupies [RowPtr[i], RowPtr[i+1]).
	RowPtr []int64
	Feat   []uint32
	Val    []float32
}

// NewCSR assembles a CSR from raw parts, validating the invariants.
func NewCSR(rows, cols int, rowPtr []int64, feat []uint32, val []float32) (*CSR, error) {
	if rows < 0 || cols < 0 {
		return nil, fmt.Errorf("sparse: negative shape %dx%d", rows, cols)
	}
	if len(rowPtr) != rows+1 {
		return nil, fmt.Errorf("sparse: rowPtr has %d entries, want %d", len(rowPtr), rows+1)
	}
	if len(feat) != len(val) {
		return nil, fmt.Errorf("sparse: %d feature indices but %d values", len(feat), len(val))
	}
	if rowPtr[0] != 0 || rowPtr[rows] != int64(len(feat)) {
		return nil, fmt.Errorf("sparse: rowPtr endpoints [%d,%d], want [0,%d]", rowPtr[0], rowPtr[rows], len(feat))
	}
	for i := 0; i < rows; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return nil, fmt.Errorf("sparse: rowPtr not monotone at row %d", i)
		}
	}
	for _, f := range feat {
		if int(f) >= cols {
			return nil, fmt.Errorf("sparse: feature index %d out of range (cols=%d)", f, cols)
		}
	}
	return &CSR{rows: rows, cols: cols, RowPtr: rowPtr, Feat: feat, Val: val}, nil
}

// Rows returns the number of instances.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the feature dimensionality.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored (nonzero) entries.
func (m *CSR) NNZ() int { return len(m.Feat) }

// Row returns the feature indices and values of row i. The returned slices
// alias the matrix storage and must not be modified.
func (m *CSR) Row(i int) (feat []uint32, val []float32) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.Feat[lo:hi], m.Val[lo:hi]
}

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return int(m.RowPtr[i+1] - m.RowPtr[i]) }

// CSRBuilder assembles a CSR row by row.
type CSRBuilder struct {
	cols   int
	rowPtr []int64
	feat   []uint32
	val    []float32
}

// NewCSRBuilder returns a builder for matrices with the given number of
// columns.
func NewCSRBuilder(cols int) *CSRBuilder {
	return &CSRBuilder{cols: cols, rowPtr: []int64{0}}
}

// AddRow appends one instance. Pairs need not be sorted; they are sorted by
// feature index. Duplicate or out-of-range feature indices are an error.
func (b *CSRBuilder) AddRow(kvs []KV) error {
	sorted := make([]KV, len(kvs))
	copy(sorted, kvs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Index < sorted[j].Index })
	for i, kv := range sorted {
		if int(kv.Index) >= b.cols {
			return fmt.Errorf("sparse: feature index %d out of range (cols=%d)", kv.Index, b.cols)
		}
		if i > 0 && sorted[i-1].Index == kv.Index {
			return fmt.Errorf("sparse: duplicate feature index %d in row %d", kv.Index, len(b.rowPtr)-1)
		}
		b.feat = append(b.feat, kv.Index)
		b.val = append(b.val, kv.Value)
	}
	b.rowPtr = append(b.rowPtr, int64(len(b.feat)))
	return nil
}

// Build finalizes the matrix. The builder must not be reused afterwards.
func (b *CSRBuilder) Build() *CSR {
	return &CSR{
		rows:   len(b.rowPtr) - 1,
		cols:   b.cols,
		RowPtr: b.rowPtr,
		Feat:   b.feat,
		Val:    b.val,
	}
}

// CSC is an immutable sparse matrix in Compressed Sparse Column format.
type CSC struct {
	rows, cols int
	// ColPtr has cols+1 entries; column j occupies [ColPtr[j], ColPtr[j+1]).
	ColPtr []int64
	Inst   []uint32
	Val    []float32
}

// NewCSC assembles a CSC from parts that already form a valid
// column-major matrix; unlike NewCSR it does not check them.
func NewCSC(rows, cols int, colPtr []int64, inst []uint32, val []float32) *CSC {
	return &CSC{rows: rows, cols: cols, ColPtr: colPtr, Inst: inst, Val: val}
}

// Rows returns the number of instances.
func (m *CSC) Rows() int { return m.rows }

// Cols returns the feature dimensionality.
func (m *CSC) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSC) NNZ() int { return len(m.Inst) }

// Col returns the instance indices and values of column j, sorted by
// instance index. The returned slices alias matrix storage.
func (m *CSC) Col(j int) (inst []uint32, val []float32) {
	lo, hi := m.ColPtr[j], m.ColPtr[j+1]
	return m.Inst[lo:hi], m.Val[lo:hi]
}

// ColNNZ returns the number of stored entries in column j.
func (m *CSC) ColNNZ(j int) int { return int(m.ColPtr[j+1] - m.ColPtr[j]) }

// SliceRows returns the submatrix of rows [lo, hi) as a new CSR. Feature
// indices are preserved. This is the horizontal-partitioning primitive.
func (m *CSR) SliceRows(lo, hi int) *CSR {
	if lo < 0 || hi > m.rows || lo > hi {
		panic(fmt.Sprintf("sparse: SliceRows(%d,%d) out of range for %d rows", lo, hi, m.rows))
	}
	base := m.RowPtr[lo]
	rowPtr := make([]int64, hi-lo+1)
	for i := lo; i <= hi; i++ {
		rowPtr[i-lo] = m.RowPtr[i] - base
	}
	return &CSR{
		rows:   hi - lo,
		cols:   m.cols,
		RowPtr: rowPtr,
		Feat:   m.Feat[base:m.RowPtr[hi]],
		Val:    m.Val[base:m.RowPtr[hi]],
	}
}

// SelectColumns returns the submatrix containing only the given columns,
// with feature indices remapped to 0..len(cols)-1 in the given order. All
// rows are kept (possibly empty). This is the vertical-partitioning
// primitive.
func (m *CSR) SelectColumns(cols []int) *CSR {
	remap := make(map[uint32]uint32, len(cols))
	for newID, c := range cols {
		if c < 0 || c >= m.cols {
			panic(fmt.Sprintf("sparse: column %d out of range (cols=%d)", c, m.cols))
		}
		remap[uint32(c)] = uint32(newID)
	}
	b := NewCSRBuilder(len(cols))
	kvs := make([]KV, 0, 16)
	for i := 0; i < m.rows; i++ {
		kvs = kvs[:0]
		feats, vals := m.Row(i)
		for k, f := range feats {
			if newID, ok := remap[f]; ok {
				kvs = append(kvs, KV{Index: newID, Value: vals[k]})
			}
		}
		if err := b.AddRow(kvs); err != nil {
			panic(err) // unreachable: indices were validated by remap
		}
	}
	return b.Build()
}
