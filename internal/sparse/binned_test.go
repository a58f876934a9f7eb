package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func testBinner() *Binner {
	return &Binner{Splits: [][]float32{
		{0.0, 1.0, 2.0},       // feature 0: 3 bins
		{-1.0, 0.0, 1.0, 2.0}, // feature 1: 4 bins
	}}
}

func TestBinValue(t *testing.T) {
	b := testBinner()
	cases := []struct {
		f    int
		v    float32
		want uint16
	}{
		{0, -5.0, 0}, // below first split
		{0, 0.0, 0},  // exactly first split
		{0, 0.5, 1},
		{0, 1.0, 1},
		{0, 1.5, 2},
		{0, 2.0, 2},
		{0, 99.0, 2}, // above last split clamps
		{1, -2.0, 0},
		{1, 0.5, 2},
		{1, 3.0, 3},
	}
	for _, c := range cases {
		if got := b.BinValue(c.f, c.v); got != c.want {
			t.Errorf("BinValue(%d, %v) = %d, want %d", c.f, c.v, got, c.want)
		}
	}
}

func TestBinValueMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	splits := make([]float32, 20)
	v := float32(0)
	for i := range splits {
		v += rng.Float32() + 0.01
		splits[i] = v
	}
	b := &Binner{Splits: [][]float32{splits}}
	for trial := 0; trial < 1000; trial++ {
		x := rng.Float32() * v * 1.2
		want := uint16(len(splits) - 1)
		for i, s := range splits {
			if x <= s {
				want = uint16(i)
				break
			}
		}
		if got := b.BinValue(0, x); got != want {
			t.Fatalf("BinValue(0, %v) = %d, want %d (splits=%v)", x, got, want, splits)
		}
	}
}

// TestBinValueMatchesBranchySearch holds the masked search to the plain
// lower-bound search over every split count up to 40, at split values,
// between them, beyond both ends, at signed zeros, infinities and NaN.
func TestBinValueMatchesBranchySearch(t *testing.T) {
	ref := func(s []float32, v float32) uint16 {
		lo, hi := 0, len(s)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if s[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return uint16(lo)
	}
	rng := rand.New(rand.NewSource(4))
	for n := 0; n <= 40; n++ {
		splits := make([]float32, n)
		v := float32(-float64(n) / 2)
		for i := range splits {
			splits[i] = v
			v += float32(rng.Intn(3)) + 0.5
		}
		probes := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1))}
		for _, s := range splits {
			probes = append(probes, s, s-0.25, s+0.25, math.Nextafter32(s, float32(math.Inf(1))))
		}
		b := &Binner{Splits: [][]float32{splits}}
		for _, x := range probes {
			if got, want := b.BinValue(0, x), ref(splits, x); got != want {
				t.Fatalf("%d splits: BinValue(%v) = %d, want %d", n, x, got, want)
			}
		}
	}
}

func TestNumBins(t *testing.T) {
	b := testBinner()
	if b.NumBins(0) != 3 || b.NumBins(1) != 4 {
		t.Fatalf("NumBins = %d,%d want 3,4", b.NumBins(0), b.NumBins(1))
	}
	if b.MaxNumBins() != 4 {
		t.Fatalf("MaxNumBins = %d, want 4", b.MaxNumBins())
	}
}

func TestBinCSRAndCSCAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := randomCSR(rng, 60, 2, 0.7)
	b := testBinner()
	br, err := b.BinCSR(m)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := binCSC(b, serialCSRToCSC(m))
	if err != nil {
		t.Fatal(err)
	}
	// Transposing the binned CSR must equal binning the transposed CSC.
	tr := serialBinnedToCSC(br)
	if tr.NNZ() != bc.NNZ() {
		t.Fatalf("nnz mismatch %d vs %d", tr.NNZ(), bc.NNZ())
	}
	for j := 0; j < 2; j++ {
		i1, b1 := tr.Col(j)
		i2, b2 := bc.Col(j)
		for k := range i1 {
			if i1[k] != i2[k] || b1[k] != b2[k] {
				t.Fatalf("col %d entry %d: (%d,%d) vs (%d,%d)", j, k, i1[k], b1[k], i2[k], b2[k])
			}
		}
	}
}

func TestBinCSRDimensionMismatch(t *testing.T) {
	m := randomCSR(rand.New(rand.NewSource(1)), 5, 7, 0.5)
	b := testBinner() // 2 features, matrix has 7
	if _, err := b.BinCSR(m); err == nil {
		t.Fatal("BinCSR accepted dimension mismatch")
	}
	if _, err := binCSC(b, serialCSRToCSC(m)); err == nil {
		t.Fatal("binCSC accepted dimension mismatch")
	}
}

// binCSC quantizes a raw CSC column by column: BinCSR + transposition in
// the other order.
func binCSC(b *Binner, m *CSC) (*BinnedCSC, error) {
	if len(b.Splits) != m.Cols() {
		return nil, fmt.Errorf("sparse: binner has %d features, matrix has %d", len(b.Splits), m.Cols())
	}
	bins := make([]uint16, m.NNZ())
	for j := 0; j < m.Cols(); j++ {
		lo, hi := m.ColPtr[j], m.ColPtr[j+1]
		for k := lo; k < hi; k++ {
			bins[k] = b.BinValue(j, m.Val[k])
		}
	}
	return &BinnedCSC{rows: m.Rows(), cols: m.Cols(), ColPtr: m.ColPtr, Inst: m.Inst, Bin: bins}, nil
}
