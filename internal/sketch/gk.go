package sketch

import (
	"fmt"
	"math"
	"sort"
)

// tuple is one GK summary entry. For the i-th tuple (ordered by value),
// g is rmin(i) - rmin(i-1) and delta is rmax(i) - rmin(i).
type tuple struct {
	v     float64
	g     int64
	delta int64
}

// GK is a Greenwald–Khanna epsilon-approximate quantile summary.
// The zero value is not usable; construct with New.
type GK struct {
	eps    float64
	n      int64
	tuples []tuple
	spare  []tuple   // the previous tuple slice, reused by the next flush
	buf    []float64 // pending unsorted inserts, folded in lazily
	bufCap int
}

// New returns an empty sketch with the given error bound (0 < eps < 1).
func New(eps float64) *GK {
	if eps <= 0 || eps >= 1 {
		panic(fmt.Sprintf("sketch: eps %v out of (0,1)", eps))
	}
	cap := int(1.0/(2.0*eps)) + 1
	if cap < 16 {
		cap = 16
	}
	return &GK{eps: eps, buf: make([]float64, 0, cap), bufCap: cap}
}

// Eps returns the nominal error bound the sketch was created with.
func (s *GK) Eps() float64 { return s.eps }

// Count returns the number of values inserted.
func (s *GK) Count() int64 { return s.n + int64(len(s.buf)) }

// Add inserts one value into the sketch.
func (s *GK) Add(v float64) {
	if math.IsNaN(v) {
		return // NaN values carry no rank information; treat as missing
	}
	s.buf = append(s.buf, v)
	if len(s.buf) >= s.bufCap {
		s.flush()
	}
}

// flush folds buffered values into the tuple list and compresses. The
// merge writes into the spare slice and the old tuple slice becomes the
// next spare, so once both have grown to the summary's size a flush —
// and with it Add — allocates nothing.
func (s *GK) flush() {
	if len(s.buf) == 0 {
		return
	}
	sort.Float64s(s.buf)
	// Merge the sorted buffer into the sorted tuple list in one pass.
	out := s.spare[:0]
	if need := len(s.tuples) + len(s.buf); cap(out) < need {
		out = make([]tuple, 0, 2*need)
	}
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
	s.spare, s.tuples = s.tuples, out
	s.buf = s.buf[:0]
	s.compress()
}

// compress merges adjacent tuples whose combined band fits the error bound.
func (s *GK) compress() {
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

// Query returns an eps-approximate phi-quantile (phi in [0,1]). It returns
// NaN for an empty sketch.
func (s *GK) Query(phi float64) float64 {
	s.flush()
	if s.n == 0 {
		return math.NaN()
	}
	if phi <= 0 {
		return s.tuples[0].v
	}
	if phi >= 1 {
		return s.tuples[len(s.tuples)-1].v
	}
	r := float64(phi * float64(s.n)) // rounded: never a fused multiply-add
	e := s.eps * float64(s.n)
	// The GK existence guarantee needs a tolerance of at least half the
	// widest tuple band; with few samples eps*n drops below one rank and
	// no tuple would qualify, so floor the tolerance at one.
	if e < 1 {
		e = 1
	}
	var rmin int64
	for i, t := range s.tuples {
		rmin += t.g
		rmax := rmin + t.delta
		if r-float64(rmin) <= e && float64(rmax)-r <= e {
			return t.v
		}
		if i == len(s.tuples)-1 {
			break
		}
	}
	return s.tuples[len(s.tuples)-1].v
}

// Quantiles returns the k values at phi = 1/k, 2/k, ..., 1. It is the
// "propose candidate splits" primitive of Figure 3.
func (s *GK) Quantiles(k int) []float64 {
	out := make([]float64, k)
	for i := 1; i <= k; i++ {
		out[i-1] = s.Query(float64(i) / float64(k))
	}
	return out
}

// CandidateSplits returns up to q strictly increasing candidate split
// values for this feature, derived from the q-quantiles with duplicates
// removed. An empty sketch yields nil.
func (s *GK) CandidateSplits(q int) []float32 {
	s.flush()
	if s.n == 0 {
		return nil
	}
	qs := s.Quantiles(q)
	out := make([]float32, 0, q)
	for _, v := range qs {
		f := float32(v)
		if len(out) == 0 || f > out[len(out)-1] {
			out = append(out, f)
		}
	}
	return out
}

// NumTuples reports the summary size; exported for space-bound tests.
func (s *GK) NumTuples() int {
	s.flush()
	return len(s.tuples)
}
