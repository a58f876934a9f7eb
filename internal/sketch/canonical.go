package sketch

import "vero/internal/sparse"

// Canonical builds one quantile sketch per feature of x by inserting
// values in global row order. The result is independent of how the matrix
// is partitioned across workers, so candidate splits derived from it are
// identical for every quadrant and worker count — which is what lets the
// reproduction verify that all four data-management policies grow
// bit-identical trees. Features with no stored values get a nil sketch.
// A CSC column keeps global row order, so each column is sketched alone.
func Canonical(x *sparse.CSR, eps float64) []*GK {
	c := x.ToCSC()
	sks := make([]*GK, x.Cols())
	for f := range sks {
		_, vals := c.Col(f)
		sks[f] = Column(vals, eps)
	}
	return sks
}

// Column sketches one feature from its values in insertion order. An
// empty column has no sketch (nil); a column of NaNs has an empty one.
func Column(vals []float32, eps float64) *GK {
	if len(vals) == 0 {
		return nil
	}
	s := New(eps)
	for _, v := range vals {
		s.Add(float64(v))
	}
	return s
}
