package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// The serial transpositions the counting kernel replaced, frozen as its
// referees: the bodies of CSR.ToCSC and BinnedCSR.ToCSC as they were.

// serialCSRToCSC transposes a CSR into CSC form using a counting pass, O(nnz).
func serialCSRToCSC(m *CSR) *CSC {
	colPtr := make([]int64, m.cols+1)
	for _, f := range m.Feat {
		colPtr[f+1]++
	}
	for j := 0; j < m.cols; j++ {
		colPtr[j+1] += colPtr[j]
	}
	inst := make([]uint32, m.NNZ())
	val := make([]float32, m.NNZ())
	next := make([]int64, m.cols)
	copy(next, colPtr[:m.cols])
	for i := 0; i < m.rows; i++ {
		feats, vals := m.Row(i)
		for k, f := range feats {
			p := next[f]
			inst[p] = uint32(i)
			val[p] = vals[k]
			next[f] = p + 1
		}
	}
	return &CSC{rows: m.rows, cols: m.cols, ColPtr: colPtr, Inst: inst, Val: val}
}

// serialBinnedToCSC transposes a BinnedCSR into BinnedCSC form, O(nnz).
func serialBinnedToCSC(m *BinnedCSR) *BinnedCSC {
	colPtr := make([]int64, m.cols+1)
	for _, f := range m.Feat {
		colPtr[f+1]++
	}
	for j := 0; j < m.cols; j++ {
		colPtr[j+1] += colPtr[j]
	}
	inst := make([]uint32, m.NNZ())
	bin := make([]uint16, m.NNZ())
	next := make([]int64, m.cols)
	copy(next, colPtr[:m.cols])
	for i := 0; i < m.rows; i++ {
		feats, bins := m.Row(i)
		for k, f := range feats {
			p := next[f]
			inst[p] = uint32(i)
			bin[p] = bins[k]
			next[f] = p + 1
		}
	}
	return &BinnedCSC{rows: m.rows, cols: m.cols, ColPtr: colPtr, Inst: inst, Bin: bin}
}

// transposeShapes are the matrices the kernel is held to the serial
// copies on: degenerate shapes, skewed ones, and a wide sparse one.
func transposeShapes() map[string]*CSR {
	rng := rand.New(rand.NewSource(7))
	one, nan, wide := NewCSRBuilder(6), NewCSRBuilder(4), NewCSRBuilder(200000)
	for i := 0; i < 100; i++ {
		must(one.AddRow([]KV{{3, float32(i)}}))
		must(nan.AddRow([]KV{{1, float32(math.NaN())}, {2, float32(i % 7)}}))
	}
	for i := 0; i < 2000; i++ {
		must(wide.AddRow([]KV{{uint32(rng.Intn(200000)), 1}, {uint32(rng.Intn(100)), float32(rng.NormFloat64())}}[:1+i%2]))
	}
	return map[string]*CSR{
		"zero-rows":            NewCSRBuilder(5).Build(),
		"zero-rows-zero-cols":  NewCSRBuilder(0).Build(),
		"zero-nnz":             randomCSR(rng, 10, 4, 0),
		"single-column":        randomCSR(rng, 40, 1, 0.6),
		"fewer-rows-than-8":    randomCSR(rng, 2, 9, 0.5),
		"random":               randomCSR(rng, 300, 23, 0.3),
		"dense":                randomCSR(rng, 64, 12, 1),
		"one-row-many-columns": randomCSR(rng, 1, 500, 0.5),
		"all-in-one-column":    one.Build(),
		"nan-column":           nan.Build(),
		"wide-200k-columns":    wide.Build(),
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// runLayouts cuts m's rows into runs three ways: one run, one run per
// row, and one run per row with an empty run before each and at the end.
func runLayouts[T Payload](rowPtr []int64, feat []uint32, val []T) map[string][]RowRun[T] {
	rows := len(rowPtr) - 1
	one := []RowRun[T]{{Start: 0, RowPtr: rowPtr, Feat: feat, Val: val}}
	var perRow, withEmpty []RowRun[T]
	for i := 0; i < rows; i++ {
		r := RowRun[T]{Start: i, RowPtr: rowPtr[i : i+2], Feat: feat, Val: val}
		perRow = append(perRow, r)
		withEmpty = append(withEmpty, RowRun[T]{Start: i, RowPtr: rowPtr[i : i+1], Feat: feat, Val: val}, r)
	}
	withEmpty = append(withEmpty, RowRun[T]{Start: rows, RowPtr: rowPtr[rows:], Feat: feat, Val: val})
	return map[string][]RowRun[T]{"one-run": one, "run-per-row": perRow, "empty-runs": withEmpty}
}

// sameColumns fails unless the two transpositions agree bit for bit.
func sameColumns[T Payload](t *testing.T, label string, gotPtr, wantPtr []int64, gotInst, wantInst []uint32, gotVal, wantVal []T) {
	t.Helper()
	if !reflect.DeepEqual(gotPtr, wantPtr) {
		t.Fatalf("%s: colPtr %v, want %v", label, gotPtr, wantPtr)
	}
	if !reflect.DeepEqual(gotInst, wantInst) {
		t.Fatalf("%s: instances differ from the serial transposition", label)
	}
	if len(gotVal) != len(wantVal) {
		t.Fatalf("%s: %d values, want %d", label, len(gotVal), len(wantVal))
	}
	for k := range wantVal {
		if bits(gotVal[k]) != bits(wantVal[k]) {
			t.Fatalf("%s: entry %d is %v, want %v", label, k, gotVal[k], wantVal[k])
		}
	}
}

func bits[T Payload](v T) uint32 {
	switch v := any(v).(type) {
	case float32:
		return math.Float32bits(v)
	case uint16:
		return uint32(v)
	}
	panic("unreachable")
}

// TestTransposeMatchesSerial holds the counting kernel bit for bit to the
// frozen serial transpositions, on both payloads, for every worker count
// and run layout.
func TestTransposeMatchesSerial(t *testing.T) {
	for name, m := range transposeShapes() {
		splits := make([][]float32, m.Cols())
		for f := range splits {
			splits[f] = []float32{-1, 0, 0.5, 1, float32(f % 5)}[:2+f%4]
		}
		bm, err := (&Binner{Splits: splits}).BinCSR(m)
		if err != nil {
			t.Fatal(err)
		}
		want, wantBinned := serialCSRToCSC(m), serialBinnedToCSC(bm)
		for _, workers := range []int{1, 2, 3, 8} {
			label := fmt.Sprintf("%s/workers=%d", name, workers)
			got := TransposeCSR(m, workers)
			if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
				t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.Rows(), got.Cols(), want.Rows(), want.Cols())
			}
			sameColumns(t, label+"/csr", got.ColPtr, want.ColPtr, got.Inst, want.Inst, got.Val, want.Val)
			for layout, runs := range runLayouts(m.RowPtr, m.Feat, m.Val) {
				got := TransposeRuns(runs, m.Rows(), m.Cols(), workers)
				sameColumns(t, label+"/"+layout, got.ColPtr, want.ColPtr, got.Inst, want.Inst, got.Val, want.Val)
			}
			for layout, runs := range runLayouts(bm.RowPtr, bm.Feat, bm.Bin) {
				colPtr, inst, bin := transpose(runs, bm.Cols(), workers)
				sameColumns(t, label+"/binned/"+layout, colPtr, wantBinned.ColPtr, inst, wantBinned.Inst, bin, wantBinned.Bin)
			}
		}
		got := bm.ToCSC()
		if got.Rows() != wantBinned.Rows() || got.Cols() != wantBinned.Cols() {
			t.Fatalf("%s: binned shape %dx%d, want %dx%d", name, got.Rows(), got.Cols(), wantBinned.Rows(), wantBinned.Cols())
		}
		sameColumns(t, name+"/BinnedCSR.ToCSC", got.ColPtr, wantBinned.ColPtr, got.Inst, wantBinned.Inst, got.Bin, wantBinned.Bin)
	}
}

// TestEachColumnVisitsEveryColumnOnce: the nnz dealing covers every
// column exactly once, whatever the worker count and skew.
func TestEachColumnVisitsEveryColumnOnce(t *testing.T) {
	for _, colPtr := range [][]int64{{0}, {0, 0, 0}, {0, 100, 100, 100, 101}, {0, 1, 2, 3, 4, 5, 6, 7}} {
		for _, workers := range []int{1, 2, 3, 8} {
			seen := make([]int32, len(colPtr)-1)
			EachColumn(colPtr, workers, func(f int) { seen[f]++ })
			for f, n := range seen {
				if n != 1 {
					t.Fatalf("colPtr %v workers %d: column %d visited %d times", colPtr, workers, f, n)
				}
			}
		}
	}
}
