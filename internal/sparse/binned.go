package sparse

import "fmt"

// MaxBins is the largest number of histogram bins per feature supported by
// the binned formats. Bin indices are stored in uint16; the paper uses
// q=20 candidate splits, far below this ceiling.
const MaxBins = 1 << 16

// BinnedCSR stores a quantized dataset in row format: each entry is a
// (feature index, bin index) pair. This is the storage used by QD2
// (horizontal + row) and, after the horizontal-to-vertical transformation,
// by QD4/Vero (vertical + row).
type BinnedCSR struct {
	rows, cols int
	RowPtr     []int64
	Feat       []uint32
	Bin        []uint16
}

// Rows returns the number of instances.
func (m *BinnedCSR) Rows() int { return m.rows }

// Cols returns the feature dimensionality.
func (m *BinnedCSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *BinnedCSR) NNZ() int { return len(m.Feat) }

// Row returns the feature indices and bin indices of row i. The slices
// alias matrix storage.
func (m *BinnedCSR) Row(i int) (feat []uint32, bin []uint16) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.Feat[lo:hi], m.Bin[lo:hi]
}

// BinnedCSC stores a quantized dataset in column format: each entry is an
// (instance index, bin index) pair. This is the storage used by QD1
// (horizontal + column) and QD3 (vertical + column).
type BinnedCSC struct {
	rows, cols int
	ColPtr     []int64
	Inst       []uint32
	Bin        []uint16
}

// Rows returns the number of instances.
func (m *BinnedCSC) Rows() int { return m.rows }

// Cols returns the feature dimensionality.
func (m *BinnedCSC) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *BinnedCSC) NNZ() int { return len(m.Inst) }

// Col returns the instance indices and bin indices of column j, sorted by
// instance index. The slices alias matrix storage.
func (m *BinnedCSC) Col(j int) (inst []uint32, bin []uint16) {
	lo, hi := m.ColPtr[j], m.ColPtr[j+1]
	return m.Inst[lo:hi], m.Bin[lo:hi]
}

// ColNNZ returns the number of stored entries in column j.
func (m *BinnedCSC) ColNNZ(j int) int { return int(m.ColPtr[j+1] - m.ColPtr[j]) }

// Binner quantizes raw feature values into histogram-bin indices given
// per-feature candidate split points. Bin b of feature f covers
// (splits[f][b-1], splits[f][b]]; values at or below splits[f][0] map to
// bin 0; values above the last split map to the last bin.
type Binner struct {
	// Splits[f] holds the ascending candidate split values of feature f.
	Splits [][]float32
}

// NumBins returns the number of bins of feature f (== len(Splits[f])).
func (b *Binner) NumBins(f int) int { return len(b.Splits[f]) }

// MaxNumBins returns the largest per-feature bin count.
func (b *Binner) MaxNumBins() int {
	m := 0
	for _, s := range b.Splits {
		if len(s) > m {
			m = len(s)
		}
	}
	return m
}

// BinValue maps one raw value of feature f to its bin index, the first
// split >= v, by a binary search that halves with a mask rather than an
// unpredictable branch. Values above all splits clamp to the last bin,
// matching how histogram-based GBDT treats out-of-range values.
func (b *Binner) BinValue(f int, v float32) uint16 {
	s := b.Splits[f]
	base, n := 0, len(s)
	for n > 1 {
		half := n / 2
		var lt int
		if s[base+half-1] < v {
			lt = 1
		}
		base += half & -lt
		n -= half
	}
	return uint16(base)
}

// BinCSR quantizes a raw CSR into a BinnedCSR.
func (b *Binner) BinCSR(m *CSR) (*BinnedCSR, error) {
	if len(b.Splits) != m.Cols() {
		return nil, fmt.Errorf("sparse: binner has %d features, matrix has %d", len(b.Splits), m.Cols())
	}
	bins := make([]uint16, m.NNZ())
	for i := 0; i < m.Rows(); i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			bins[k] = b.BinValue(int(m.Feat[k]), m.Val[k])
		}
	}
	return &BinnedCSR{rows: m.Rows(), cols: m.Cols(), RowPtr: m.RowPtr, Feat: m.Feat, Bin: bins}, nil
}
