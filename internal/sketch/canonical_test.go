package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"vero/internal/sparse"
)

// serialCanonical is the canonical split pass as it ran before the
// columns were dealt to workers, frozen as Canonical's referee: one
// goroutine inserts every value into its feature's sketch in global row
// order. A feature with no stored value has no sketch, hence nil splits
// and a zero count; an all-NaN feature's empty sketch yields the same.
func serialCanonical(x *sparse.CSR, eps float64, q int) ([][]float32, []int64) {
	sks := make([]*GK, x.Cols())
	for i := 0; i < x.Rows(); i++ {
		feats, vals := x.Row(i)
		for k, f := range feats {
			if sks[f] == nil {
				sks[f] = New(eps)
			}
			sks[f].Add(float64(vals[k]))
		}
	}
	splits, count := make([][]float32, x.Cols()), make([]int64, x.Cols())
	for f, s := range sks {
		if s != nil {
			splits[f], count[f] = s.CandidateSplits(q), s.Count()
		}
	}
	return splits, count
}

func buildCSR(t *testing.T, cols int, rows [][]sparse.KV) *sparse.CSR {
	t.Helper()
	b := sparse.NewCSRBuilder(cols)
	for _, r := range rows {
		if err := b.AddRow(r); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// canonicalShapes are the matrices Canonical is held to the serial pass
// on: degenerate shapes, skewed ones, NaN columns and a wide sparse one.
func canonicalShapes(t *testing.T) map[string]*sparse.CSR {
	rng := rand.New(rand.NewSource(9))
	random := func(n, d int, density float64) *sparse.CSR {
		rows := make([][]sparse.KV, n)
		for i := range rows {
			for f := 0; f < d; f++ {
				if rng.Float64() < density {
					rows[i] = append(rows[i], sparse.KV{Index: uint32(f), Value: float32(math.Round(rng.NormFloat64()*50) / 8)})
				}
			}
		}
		return buildCSR(t, d, rows)
	}
	nan := float32(math.NaN())
	var oneCol, nanCol, wide [][]sparse.KV
	for i := 0; i < 3000; i++ {
		oneCol = append(oneCol, []sparse.KV{{Index: 4, Value: float32(rng.ExpFloat64())}})
		nanCol = append(nanCol, []sparse.KV{{Index: 0, Value: float32(i % 13)}, {Index: 1, Value: nan}, {Index: 2, Value: [2]float32{nan, 1}[i%2]}})
		wide = append(wide, []sparse.KV{{Index: uint32(rng.Intn(200000)), Value: float32(rng.NormFloat64())}})
	}
	return map[string]*sparse.CSR{
		"zero-rows":         buildCSR(t, 6, nil),
		"zero-nnz":          buildCSR(t, 3, make([][]sparse.KV, 40)),
		"single-column":     random(2500, 1, 0.8),
		"all-in-one-column": buildCSR(t, 9, oneCol),
		"nan-column":        buildCSR(t, 4, nanCol),
		"fewer-rows-than-8": random(3, 7, 0.7),
		"random":            random(4000, 30, 0.3),
		"wide-200k-columns": buildCSR(t, 200000, wide),
	}
}

// TestCanonicalMatchesSerial holds the parallel canonical pass bit for
// bit to the serial one: splits (nil included) and counts, for every
// worker count, over a CSC from the parallel transposition at the same
// worker count.
func TestCanonicalMatchesSerial(t *testing.T) {
	for name, x := range canonicalShapes(t) {
		for _, p := range []struct {
			eps float64
			q   int
		}{{0.01, 20}, {0.002, 300}} {
			wantSplits, wantCount := serialCanonical(x, p.eps, p.q)
			for _, workers := range []int{1, 2, 3, 8} {
				label := fmt.Sprintf("%s/q=%d/workers=%d", name, p.q, workers)
				splits, count := Canonical(sparse.TransposeCSR(x, workers), p.eps, p.q, workers)
				if !reflect.DeepEqual(splits, wantSplits) {
					t.Fatalf("%s: splits differ from the serial pass", label)
				}
				if !reflect.DeepEqual(count, wantCount) {
					t.Fatalf("%s: counts %v, want %v", label, count, wantCount)
				}
			}
		}
	}
}

// TestLocalSketchesRowRange: Local sketches exactly the values of its row
// range, and leaves features without one nil.
func TestLocalSketchesRowRange(t *testing.T) {
	x := buildCSR(t, 3, [][]sparse.KV{{{Index: 0, Value: 1}}, {{Index: 1, Value: 2}}, {{Index: 0, Value: 3}, {Index: 1, Value: 4}}})
	sks := Local(x, 1, 3, 0.01)
	if sks[0] == nil || sks[0].Count() != 1 || sks[1] == nil || sks[1].Count() != 2 || sks[2] != nil {
		t.Fatalf("Local(1, 3) = %v", sks)
	}
	if got := Local(x, 0, 0, 0.01); got[0] != nil || got[1] != nil || got[2] != nil {
		t.Fatal("an empty row range built sketches")
	}
}
