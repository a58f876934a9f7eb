package histogram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLayoutSizeBytes(t *testing.T) {
	// The paper's Age example (Section 3.1.4): D=330K, q=20, C=9 gives a
	// per-node histogram of 2*330e3*20*9*8 bytes = 906 MB.
	l := Layout{NumFeat: 330_000, MaxBins: 20, NumClass: 9}
	if got := l.SizeBytes(); got != 950_400_000 {
		t.Fatalf("SizeBytes = %d, want 950400000", got)
	}
}

func TestAddAt(t *testing.T) {
	h := New(Layout{NumFeat: 3, MaxBins: 4, NumClass: 2})
	h.Add(1, 2, 1, 0.5, 0.25)
	h.Add(1, 2, 1, 0.5, 0.25)
	g, hs := h.At(1, 2, 1)
	if g != 1.0 || hs != 0.5 {
		t.Fatalf("At = %v,%v want 1,0.5", g, hs)
	}
	if g, _ := h.At(1, 2, 0); g != 0 {
		t.Fatal("neighbouring class polluted")
	}
}

func TestAddVec(t *testing.T) {
	h := New(Layout{NumFeat: 2, MaxBins: 2, NumClass: 3})
	h.AddVec(1, 1, []float64{1, 2, 3}, []float64{4, 5, 6})
	for k := 0; k < 3; k++ {
		g, hs := h.At(1, 1, k)
		if g != float64(k+1) || hs != float64(k+4) {
			t.Fatalf("class %d: %v,%v", k, g, hs)
		}
	}
}

func randomHist(rng *rand.Rand, l Layout) *Hist {
	h := New(l)
	for i := range h.Grad {
		h.Grad[i] = rng.NormFloat64()
		h.Hess[i] = rng.Float64()
	}
	return h
}

func TestSubtractionRecoversSibling(t *testing.T) {
	// Property: parent - left == right, element-wise.
	l := Layout{NumFeat: 5, MaxBins: 8, NumClass: 3}
	rng := rand.New(rand.NewSource(1))
	left := randomHist(rng, l)
	right := randomHist(rng, l)
	parent := left.Clone()
	parent.Merge(right)
	sibling := parent.Clone()
	sibling.Sub(left)
	for i := range sibling.Grad {
		if math.Abs(sibling.Grad[i]-right.Grad[i]) > 1e-12 ||
			math.Abs(sibling.Hess[i]-right.Hess[i]) > 1e-12 {
			t.Fatalf("entry %d: sibling (%v,%v) vs right (%v,%v)",
				i, sibling.Grad[i], sibling.Hess[i], right.Grad[i], right.Hess[i])
		}
	}
}

func TestMergeLayoutMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Merge with mismatched layout did not panic")
		}
	}()
	New(Layout{1, 2, 1}).Merge(New(Layout{1, 3, 1}))
}

func TestResetAndClone(t *testing.T) {
	h := New(Layout{NumFeat: 1, MaxBins: 2, NumClass: 1})
	h.Add(0, 0, 0, 1, 1)
	c := h.Clone()
	h.Reset()
	if g, _ := h.At(0, 0, 0); g != 0 {
		t.Fatal("Reset did not zero")
	}
	if g, _ := c.At(0, 0, 0); g != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestFeatTotals(t *testing.T) {
	h := New(Layout{NumFeat: 2, MaxBins: 3, NumClass: 2})
	h.Add(1, 0, 0, 1, 2)
	h.Add(1, 2, 0, 3, 4)
	h.Add(1, 1, 1, 5, 6)
	g := make([]float64, 2)
	hs := make([]float64, 2)
	h.FeatTotals(1, g, hs)
	if g[0] != 4 || hs[0] != 6 || g[1] != 5 || hs[1] != 6 {
		t.Fatalf("FeatTotals = %v %v", g, hs)
	}
}

// bruteForceBest enumerates all (bin, defaultLeft) splits of a 1-feature,
// 1-class histogram and returns the max gain.
func bruteForceBest(h *Hist, totalG, totalH float64, f *Finder, nb int) (float64, bool) {
	var featG, featH float64
	for b := 0; b < nb; b++ {
		g, hs := h.At(0, b, 0)
		featG += g
		featH += hs
	}
	missG, missH := totalG-featG, totalH-featH
	parent := totalG * totalG / (totalH + f.Lambda)
	bestGain := 0.0
	found := false
	for bin := 0; bin < nb-1; bin++ {
		var lg, lh float64
		for b := 0; b <= bin; b++ {
			g, hs := h.At(0, b, 0)
			lg += g
			lh += hs
		}
		for _, defLeft := range []bool{false, true} {
			gl, hl := lg, lh
			if defLeft {
				gl += missG
				hl += missH
			}
			gr, hr := totalG-gl, totalH-hl
			if hl < f.MinChildHess || hr < f.MinChildHess {
				continue
			}
			if !defLeft || missH > 0 {
				gain := 0.5*(gl*gl/(hl+f.Lambda)+gr*gr/(hr+f.Lambda)-parent) - f.Gamma
				if gain > bestGain {
					bestGain = gain
					found = true
				}
			}
		}
	}
	return bestGain, found
}

func TestFindBestMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := &Finder{Lambda: 1.0, Gamma: 0.1}
	for trial := 0; trial < 100; trial++ {
		nb := 2 + rng.Intn(10)
		h := New(Layout{NumFeat: 1, MaxBins: nb, NumClass: 1})
		var totalG, totalH float64
		for b := 0; b < nb; b++ {
			g := rng.NormFloat64()
			hs := rng.Float64()
			h.Add(0, b, 0, g, hs)
			totalG += g
			totalH += hs
		}
		// Sometimes add missing mass (instances absent from the
		// histogram but present in the node totals).
		if rng.Intn(2) == 0 {
			totalG += rng.NormFloat64()
			totalH += rng.Float64()
		}
		got := f.FindBest(h, []float64{totalG}, []float64{totalH}, []int{nb})
		wantGain, wantValid := bruteForceBest(h, totalG, totalH, f, nb)
		if got.Valid != wantValid {
			t.Fatalf("trial %d: Valid=%v, brute force %v", trial, got.Valid, wantValid)
		}
		if wantValid && math.Abs(got.Gain-wantGain) > 1e-9 {
			t.Fatalf("trial %d: Gain=%v, brute force %v", trial, got.Gain, wantGain)
		}
	}
}

func TestFindBestPicksObviousSplit(t *testing.T) {
	// Two bins: all-negative gradients in bin 0, all-positive in bin 1.
	// The split must separate them at bin 0 with large gain.
	f := &Finder{Lambda: 1.0}
	h := New(Layout{NumFeat: 1, MaxBins: 2, NumClass: 1})
	h.Add(0, 0, 0, -50, 25)
	h.Add(0, 1, 0, 50, 25)
	s := f.FindBest(h, []float64{0}, []float64{50}, []int{2})
	if !s.Valid || s.Feature != 0 || s.Bin != 0 {
		t.Fatalf("split = %+v", s)
	}
	// Gain: 0.5*(2500/26 + 2500/26 - 0) ~ 96.2
	if s.Gain < 90 {
		t.Fatalf("gain = %v, want ~96", s.Gain)
	}
}

func TestFindBestHonorsMinChildHess(t *testing.T) {
	f := &Finder{Lambda: 1.0, MinChildHess: 30}
	h := New(Layout{NumFeat: 1, MaxBins: 2, NumClass: 1})
	h.Add(0, 0, 0, -50, 25) // left child hess 25 < 30
	h.Add(0, 1, 0, 50, 25)
	s := f.FindBest(h, []float64{0}, []float64{50}, []int{2})
	if s.Valid {
		t.Fatalf("split %+v violates MinChildHess", s)
	}
}

func TestFindBestDefaultDirection(t *testing.T) {
	// Missing mass has strongly positive gradients; placing it left with
	// the negative bin is worse than right. The finder must choose
	// default-right.
	f := &Finder{Lambda: 1.0}
	h := New(Layout{NumFeat: 1, MaxBins: 2, NumClass: 1})
	h.Add(0, 0, 0, -40, 20)
	h.Add(0, 1, 0, 30, 15)
	// Node totals include extra missing mass (g=+30, h=15).
	s := f.FindBest(h, []float64{20}, []float64{50}, []int{2})
	if !s.Valid {
		t.Fatal("no split found")
	}
	if s.DefaultLeft {
		t.Fatalf("split sent positive missing mass left: %+v", s)
	}
}

func TestFindBestSkipsSingleBinFeatures(t *testing.T) {
	f := &Finder{Lambda: 1.0}
	h := New(Layout{NumFeat: 2, MaxBins: 4, NumClass: 1})
	h.Add(0, 0, 0, -50, 25) // feature 0 has only 1 real bin
	h.Add(1, 0, 0, -50, 25)
	h.Add(1, 3, 0, 50, 25)
	s := f.FindBest(h, []float64{0}, []float64{50}, []int{1, 4})
	if !s.Valid || s.Feature != 1 {
		t.Fatalf("split = %+v, want feature 1", s)
	}
}

func TestGammaSuppressesWeakSplits(t *testing.T) {
	f := &Finder{Lambda: 1.0, Gamma: 1e6}
	h := New(Layout{NumFeat: 1, MaxBins: 2, NumClass: 1})
	h.Add(0, 0, 0, -50, 25)
	h.Add(0, 1, 0, 50, 25)
	if s := f.FindBest(h, []float64{0}, []float64{50}, []int{2}); s.Valid {
		t.Fatalf("split %+v survived gamma=1e6", s)
	}
}

func TestLeafWeights(t *testing.T) {
	f := &Finder{Lambda: 1.0}
	w := f.LeafWeights([]float64{2, -3}, []float64{3, 5})
	if w[0] != -0.5 || w[1] != 0.5 {
		t.Fatalf("weights = %v", w)
	}
}

func TestMultiClassGainAggregatesClasses(t *testing.T) {
	// With two identical classes the gain must be exactly twice the
	// single-class gain.
	f := &Finder{Lambda: 1.0}
	h1 := New(Layout{NumFeat: 1, MaxBins: 2, NumClass: 1})
	h1.Add(0, 0, 0, -50, 25)
	h1.Add(0, 1, 0, 50, 25)
	s1 := f.FindBest(h1, []float64{0}, []float64{50}, []int{2})

	h2 := New(Layout{NumFeat: 1, MaxBins: 2, NumClass: 2})
	for k := 0; k < 2; k++ {
		h2.Add(0, 0, k, -50, 25)
		h2.Add(0, 1, k, 50, 25)
	}
	s2 := f.FindBest(h2, []float64{0, 0}, []float64{50, 50}, []int{2})
	if math.Abs(s2.Gain-2*s1.Gain) > 1e-9 {
		t.Fatalf("2-class gain %v, want 2x %v", s2.Gain, s1.Gain)
	}
}

func TestMergeSubRoundTripQuick(t *testing.T) {
	l := Layout{NumFeat: 2, MaxBins: 3, NumClass: 2}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomHist(rng, l)
		b := randomHist(rng, l)
		sum := a.Clone()
		sum.Merge(b)
		sum.Sub(b)
		for i := range sum.Grad {
			if math.Abs(sum.Grad[i]-a.Grad[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
