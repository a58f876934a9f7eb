package sparse

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func buildTestCSR(t *testing.T) *CSR {
	t.Helper()
	b := NewCSRBuilder(5)
	rows := [][]KV{
		{{0, 1.0}, {2, 2.0}},
		{{1, 3.0}},
		{},
		{{0, 4.0}, {3, 5.0}, {4, 6.0}},
	}
	for _, r := range rows {
		if err := b.AddRow(r); err != nil {
			t.Fatalf("AddRow: %v", err)
		}
	}
	return b.Build()
}

func TestCSRBuilderBasics(t *testing.T) {
	m := buildTestCSR(t)
	if m.Rows() != 4 || m.Cols() != 5 || m.NNZ() != 6 {
		t.Fatalf("shape = %dx%d nnz=%d, want 4x5 nnz=6", m.Rows(), m.Cols(), m.NNZ())
	}
	feat, val := m.Row(0)
	if len(feat) != 2 || feat[0] != 0 || feat[1] != 2 || val[1] != 2.0 {
		t.Fatalf("Row(0) = %v %v", feat, val)
	}
	if m.RowNNZ(2) != 0 {
		t.Fatalf("RowNNZ(2) = %d, want 0", m.RowNNZ(2))
	}
}

func TestCSRBuilderSortsRows(t *testing.T) {
	b := NewCSRBuilder(10)
	if err := b.AddRow([]KV{{7, 1}, {2, 2}, {5, 3}}); err != nil {
		t.Fatal(err)
	}
	m := b.Build()
	feat, _ := m.Row(0)
	for k := 1; k < len(feat); k++ {
		if feat[k-1] >= feat[k] {
			t.Fatalf("row not sorted: %v", feat)
		}
	}
}

func TestCSRBuilderRejectsDuplicates(t *testing.T) {
	b := NewCSRBuilder(10)
	if err := b.AddRow([]KV{{3, 1}, {3, 2}}); err == nil {
		t.Fatal("AddRow accepted duplicate feature index")
	}
}

func TestCSRBuilderRejectsOutOfRange(t *testing.T) {
	b := NewCSRBuilder(3)
	if err := b.AddRow([]KV{{3, 1}}); err == nil {
		t.Fatal("AddRow accepted out-of-range feature index")
	}
}

func TestNewCSRValidation(t *testing.T) {
	if _, err := NewCSR(2, 2, []int64{0, 1}, []uint32{0}, []float32{1}); err == nil {
		t.Error("accepted short rowPtr")
	}
	if _, err := NewCSR(1, 2, []int64{0, 2}, []uint32{0, 5}, []float32{1, 2}); err == nil {
		t.Error("accepted out-of-range feature")
	}
	if _, err := NewCSR(2, 2, []int64{0, 2, 1}, []uint32{0}, []float32{1}); err == nil {
		t.Error("accepted non-monotone rowPtr")
	}
	if _, err := NewCSR(1, 1, []int64{0, 1}, []uint32{0}, []float32{1}); err != nil {
		t.Errorf("rejected valid matrix: %v", err)
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	m := buildTestCSR(t)
	csc := TransposeCSR(m, 2)
	if csc.Rows() != m.Rows() || csc.Cols() != m.Cols() || csc.NNZ() != m.NNZ() {
		t.Fatalf("CSC shape mismatch")
	}
	inst, val := csc.Col(0)
	if len(inst) != 2 || inst[0] != 0 || inst[1] != 3 || val[1] != 4.0 {
		t.Fatalf("Col(0) = %v %v", inst, val)
	}
	back := toCSR(csc)
	assertCSREqual(t, m, back)
}

func assertCSREqual(t *testing.T, a, b *CSR) {
	t.Helper()
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.NNZ() != b.NNZ() {
		t.Fatalf("shape mismatch: %dx%d/%d vs %dx%d/%d",
			a.Rows(), a.Cols(), a.NNZ(), b.Rows(), b.Cols(), b.NNZ())
	}
	for i := 0; i < a.Rows(); i++ {
		af, av := a.Row(i)
		bf, bv := b.Row(i)
		if len(af) != len(bf) {
			t.Fatalf("row %d: nnz %d vs %d", i, len(af), len(bf))
		}
		for k := range af {
			if af[k] != bf[k] || av[k] != bv[k] {
				t.Fatalf("row %d entry %d: (%d,%v) vs (%d,%v)", i, k, af[k], av[k], bf[k], bv[k])
			}
		}
	}
}

func randomCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	b := NewCSRBuilder(cols)
	for i := 0; i < rows; i++ {
		var kvs []KV
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				kvs = append(kvs, KV{uint32(j), float32(rng.NormFloat64())})
			}
		}
		if err := b.AddRow(kvs); err != nil {
			panic(err)
		}
	}
	return b.Build()
}

func TestTransposeRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		m := randomCSR(rng, 1+rng.Intn(50), 1+rng.Intn(30), rng.Float64())
		assertCSREqual(t, m, toCSR(TransposeCSR(m, 1+trial%4)))
	}
}

func TestSliceRows(t *testing.T) {
	m := buildTestCSR(t)
	s := m.SliceRows(1, 4)
	if s.Rows() != 3 || s.NNZ() != 4 {
		t.Fatalf("slice shape %dx nnz=%d, want 3 rows nnz=4", s.Rows(), s.NNZ())
	}
	feat, _ := s.Row(0)
	if len(feat) != 1 || feat[0] != 1 {
		t.Fatalf("slice Row(0) = %v", feat)
	}
	empty := m.SliceRows(2, 2)
	if empty.Rows() != 0 || empty.NNZ() != 0 {
		t.Fatalf("empty slice has %d rows, %d nnz", empty.Rows(), empty.NNZ())
	}
}

func TestSliceRowsPanicsOutOfRange(t *testing.T) {
	m := buildTestCSR(t)
	defer func() {
		if recover() == nil {
			t.Fatal("SliceRows out of range did not panic")
		}
	}()
	m.SliceRows(0, 99)
}

func TestSelectColumns(t *testing.T) {
	m := buildTestCSR(t)
	s := m.SelectColumns([]int{3, 0})
	if s.Rows() != 4 || s.Cols() != 2 {
		t.Fatalf("shape %dx%d, want 4x2", s.Rows(), s.Cols())
	}
	// Row 3 originally has feats {0:4, 3:5, 4:6}; selected cols 3->0, 0->1.
	feat, val := s.Row(3)
	if len(feat) != 2 {
		t.Fatalf("Row(3) nnz = %d, want 2", len(feat))
	}
	if feat[0] != 0 || val[0] != 5.0 {
		t.Fatalf("Row(3)[0] = (%d,%v), want (0,5)", feat[0], val[0])
	}
	if feat[1] != 1 || val[1] != 4.0 {
		t.Fatalf("Row(3)[1] = (%d,%v), want (1,4)", feat[1], val[1])
	}
}

func TestVerticalHorizontalDecompositionPreservesNNZ(t *testing.T) {
	// Property: splitting a matrix horizontally or vertically across W
	// parts preserves the total number of entries.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomCSR(rng, 1+rng.Intn(40), 2+rng.Intn(20), 0.3)
		const w = 3
		total := 0
		per := (m.Rows() + w - 1) / w
		for p := 0; p < w; p++ {
			lo := p * per
			hi := lo + per
			if lo > m.Rows() {
				lo = m.Rows()
			}
			if hi > m.Rows() {
				hi = m.Rows()
			}
			total += m.SliceRows(lo, hi).NNZ()
		}
		if total != m.NNZ() {
			return false
		}
		total = 0
		for p := 0; p < w; p++ {
			var cols []int
			for c := p; c < m.Cols(); c += w {
				cols = append(cols, c)
			}
			total += m.SelectColumns(cols).NNZ()
		}
		return total == m.NNZ()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// toCSR transposes a CSC back into CSR form, O(nnz). Rows come out sorted
// by feature index because columns are visited in order.
func toCSR(m *CSC) *CSR {
	rowPtr := make([]int64, m.rows+1)
	for _, i := range m.Inst {
		rowPtr[i+1]++
	}
	for i := 0; i < m.rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	feat := make([]uint32, m.NNZ())
	val := make([]float32, m.NNZ())
	next := make([]int64, m.rows)
	copy(next, rowPtr[:m.rows])
	for j := 0; j < m.cols; j++ {
		insts, vals := m.Col(j)
		for k, i := range insts {
			p := next[i]
			feat[p] = uint32(j)
			val[p] = vals[k]
			next[i] = p + 1
		}
	}
	return &CSR{rows: m.rows, cols: m.cols, RowPtr: rowPtr, Feat: feat, Val: val}
}
