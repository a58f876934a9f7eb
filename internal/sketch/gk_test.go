package sketch

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactRank returns the fraction of values in sorted xs that are <= v.
func exactRank(xs []float64, v float64) float64 {
	i := sort.SearchFloat64s(xs, math.Nextafter(v, math.Inf(1)))
	return float64(i) / float64(len(xs))
}

func checkQuantiles(t *testing.T, s *GK, xs []float64, slack float64) {
	t.Helper()
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	bound := s.Eps()*slack + 1e-9
	for _, phi := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		got := s.Query(phi)
		r := exactRank(sorted, got)
		// got must have rank within bound of phi. Use the rank of the
		// value interval [rank(got-), rank(got)] to handle duplicates.
		lo := float64(sort.SearchFloat64s(sorted, got)) / float64(len(sorted))
		if phi < lo-bound || phi > r+bound {
			t.Errorf("phi=%v: Query=%v has rank [%v,%v], outside +/-%v", phi, got, lo, r, bound)
		}
	}
}

func TestEmptySketch(t *testing.T) {
	s := New(0.01)
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
	if !math.IsNaN(s.Query(0.5)) {
		t.Fatal("Query on empty sketch did not return NaN")
	}
	if s.CandidateSplits(10) != nil {
		t.Fatal("CandidateSplits on empty sketch not nil")
	}
}

func TestNewPanicsOnBadEps(t *testing.T) {
	for _, eps := range []float64{0, -0.1, 1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", eps)
				}
			}()
			New(eps)
		}()
	}
}

func TestSingleValue(t *testing.T) {
	s := New(0.1)
	s.Add(7.5)
	for _, phi := range []float64{0, 0.5, 1} {
		if got := s.Query(phi); got != 7.5 {
			t.Fatalf("Query(%v) = %v, want 7.5", phi, got)
		}
	}
}

func TestNaNIgnored(t *testing.T) {
	s := New(0.1)
	s.Add(math.NaN())
	s.Add(1)
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1 (NaN ignored)", s.Count())
	}
}

func TestUniformStream(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := New(0.01)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.Float64()
		s.Add(xs[i])
	}
	checkQuantiles(t, s, xs, 2)
}

func TestSortedAndReversedStreams(t *testing.T) {
	for name, gen := range map[string]func(i int) float64{
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return float64(-i) },
	} {
		t.Run(name, func(t *testing.T) {
			s := New(0.02)
			xs := make([]float64, 10000)
			for i := range xs {
				xs[i] = gen(i)
				s.Add(xs[i])
			}
			checkQuantiles(t, s, xs, 2)
		})
	}
}

func TestHeavyDuplicates(t *testing.T) {
	// Sparse features have long runs of identical values; the sketch must
	// stay correct and candidate splits must deduplicate.
	rng := rand.New(rand.NewSource(2))
	s := New(0.01)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64(rng.Intn(5))
		s.Add(xs[i])
	}
	checkQuantiles(t, s, xs, 2)
	splits := s.CandidateSplits(20)
	if len(splits) > 5 {
		t.Fatalf("got %d candidate splits from 5 distinct values", len(splits))
	}
	for k := 1; k < len(splits); k++ {
		if splits[k-1] >= splits[k] {
			t.Fatalf("splits not strictly increasing: %v", splits)
		}
	}
}

func TestSpaceBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := New(0.01)
	for i := 0; i < 200000; i++ {
		s.Add(rng.NormFloat64())
	}
	// GK keeps O((1/eps) log(eps n)) tuples; allow a generous constant.
	limit := int(11.0 / 0.01 * math.Log2(0.01*200000))
	if got := s.NumTuples(); got > limit {
		t.Fatalf("summary has %d tuples, budget %d", got, limit)
	}
}

func TestCandidateSplitsCoverDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := New(0.005)
	for i := 0; i < 50000; i++ {
		s.Add(rng.Float64() * 100)
	}
	splits := s.CandidateSplits(20)
	if len(splits) != 20 {
		t.Fatalf("got %d splits, want 20", len(splits))
	}
	// Splits of a uniform[0,100] stream should be near 5,10,...,100.
	for i, sp := range splits {
		want := float32(5 * (i + 1))
		if math.Abs(float64(sp-want)) > 3 {
			t.Errorf("split %d = %v, want ~%v", i, sp, want)
		}
	}
}

func TestQuantilesMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New(0.01)
	for i := 0; i < 30000; i++ {
		s.Add(rng.NormFloat64())
	}
	qs := s.Quantiles(50)
	for i := 1; i < len(qs); i++ {
		if qs[i] < qs[i-1] {
			t.Fatalf("quantiles not monotone at %d: %v > %v", i, qs[i-1], qs[i])
		}
	}
}

func BenchmarkAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := New(0.01)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(rng.Float64())
	}
}

// refGK is the GK summary as it was before flush reused its tuple slice:
// flush and compress below are kept verbatim as the reference the
// double-buffered flush must reproduce tuple for tuple.
type refGK struct {
	eps    float64
	n      int64
	tuples []tuple
	buf    []float64
	bufCap int
}

func newRef(eps float64) *refGK { return &refGK{eps: eps, bufCap: New(eps).bufCap} }

func (s *refGK) Add(v float64) {
	if math.IsNaN(v) {
		return
	}
	s.buf = append(s.buf, v)
	if len(s.buf) >= s.bufCap {
		s.flush()
	}
}

func (s *refGK) flush() {
	if len(s.buf) == 0 {
		return
	}
	sort.Float64s(s.buf)
	// Merge the sorted buffer into the sorted tuple list in one pass.
	out := make([]tuple, 0, len(s.tuples)+len(s.buf))
	ti := 0
	for _, v := range s.buf {
		for ti < len(s.tuples) && s.tuples[ti].v < v {
			out = append(out, s.tuples[ti])
			ti++
		}
		s.n++
		var delta int64
		if len(out) == 0 || ti >= len(s.tuples) {
			// A new minimum, or a value inserted past the current end of
			// the summary: at insertion time it is a running maximum, so
			// its rank is known exactly (delta = 0).
			delta = 0
		} else {
			delta = int64(2 * s.eps * float64(s.n))
		}
		out = append(out, tuple{v: v, g: 1, delta: delta})
	}
	out = append(out, s.tuples[ti:]...)
	s.tuples = out
	s.buf = s.buf[:0]
	s.compress()
}

func (s *refGK) compress() {
	if len(s.tuples) < 3 {
		return
	}
	threshold := int64(2 * s.eps * float64(s.n))
	out := s.tuples[:0]
	out = append(out, s.tuples[0])
	for i := 1; i < len(s.tuples); i++ {
		t := s.tuples[i]
		last := &out[len(out)-1]
		// Never merge away the global min/max tuples (first and last).
		if len(out) > 1 && i < len(s.tuples)-1 && last.g+t.g+t.delta <= threshold {
			t.g += last.g
			out[len(out)-1] = t
		} else {
			out = append(out, t)
		}
	}
	s.tuples = out
}

// sameSummary compares two summaries tuple for tuple, values by bits so
// that -0 and +0 are told apart.
func sameSummary(t *testing.T, at int, got *GK, want *refGK) {
	t.Helper()
	if got.n != want.n || len(got.buf) != len(want.buf) || len(got.tuples) != len(want.tuples) {
		t.Fatalf("after %d adds: n %d/%d, buffered %d/%d, tuples %d/%d (got/want)",
			at, got.n, want.n, len(got.buf), len(want.buf), len(got.tuples), len(want.tuples))
	}
	for i, w := range want.tuples {
		g := got.tuples[i]
		if math.Float64bits(g.v) != math.Float64bits(w.v) || g.g != w.g || g.delta != w.delta {
			t.Fatalf("after %d adds: tuple %d is %+v, want %+v", at, i, g, w)
		}
	}
}

// checkAgainstReference streams xs through both summaries and compares
// them after every flush, then after the final one.
func checkAgainstReference(t *testing.T, eps float64, xs []float64) {
	t.Helper()
	got, want := New(eps), newRef(eps)
	for i, v := range xs {
		got.Add(v)
		want.Add(v)
		if len(want.buf) == 0 || len(got.buf) == 0 {
			sameSummary(t, i+1, got, want)
		}
	}
	got.flush()
	want.flush()
	sameSummary(t, len(xs), got, want)
}

// TestFlushMatchesReference holds the double-buffered flush to the
// allocating one over the streams that stress its order: signed zeros,
// NaN, heavy duplicates, sorted, reversed and random order, at lengths
// around multiples of the buffer capacity.
func TestFlushMatchesReference(t *testing.T) {
	const eps = 0.01
	bufCap := New(eps).bufCap
	rng := rand.New(rand.NewSource(11))
	streams := map[string]func(i int) float64{
		"random":     func(int) float64 { return rng.NormFloat64() },
		"sorted":     func(i int) float64 { return float64(i) },
		"reversed":   func(i int) float64 { return float64(-i) },
		"duplicates": func(int) float64 { return float64(rng.Intn(3)) },
		"zeros":      func(i int) float64 { return math.Copysign(0, float64(rng.Intn(2)*2-1)) },
		"nan":        func(i int) float64 { return []float64{math.NaN(), 1, -0.0, 0, 2}[rng.Intn(5)] },
	}
	for name, gen := range streams {
		for _, k := range []int{0, 1, 2, 7, 40} {
			for _, d := range []int{-1, 0, 1} {
				n := k*bufCap + d
				if n < 0 {
					continue
				}
				xs := make([]float64, n)
				for i := range xs {
					xs[i] = gen(i)
				}
				t.Run(fmt.Sprintf("%s/%d", name, n), func(t *testing.T) { checkAgainstReference(t, eps, xs) })
			}
		}
	}
}

// FuzzFlushMatchesReference decodes bytes into a stream over a small
// alphabet (signed zeros, NaN, infinities, a few repeated values, and raw
// bit patterns) and holds the double-buffered flush to the reference.
func FuzzFlushMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(0))
	f.Add(bytes.Repeat([]byte{1, 0}, 300), uint8(3))
	f.Add(bytes.Repeat([]byte{9, 200, 17, 3}, 200), uint8(200))
	f.Fuzz(func(t *testing.T, data []byte, epsByte uint8) {
		eps := 0.001 + float64(epsByte)/256*0.2
		alphabet := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1, 2.5}
		var xs []float64
		for i := 0; i < len(data); i++ {
			b := data[i]
			if int(b) < len(alphabet) {
				xs = append(xs, alphabet[b])
				continue
			}
			if i+2 < len(data) {
				xs = append(xs, float64(math.Float32frombits(uint32(b)<<24|uint32(data[i+1])<<16|uint32(data[i+2])<<8)))
				i += 2
				continue
			}
			xs = append(xs, float64(b))
		}
		checkAgainstReference(t, eps, xs)
	})
}

// TestWarmAddAllocatesNothing: once the tuple slice and its spare have
// grown to the summary's size, Add allocates nothing, flushes included.
// Each measured run adds one buffer's worth, so it contains one flush.
func TestWarmAddAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := New(0.01)
	for i := 0; i < 200000; i++ {
		s.Add(rng.NormFloat64())
	}
	if a := testing.AllocsPerRun(2000, func() {
		for i := 0; i < s.bufCap; i++ {
			s.Add(rng.NormFloat64())
		}
	}); a != 0 {
		t.Fatalf("warm Add allocates %v times per flush", a)
	}
}
