package sketch

import "vero/internal/sparse"

// Canonical derives every feature's candidate splits (up to q) and value
// count from one sketch per column of c, the values inserted in global
// row order. The result is independent of how the matrix is partitioned
// across workers, so candidate splits derived from it are identical for
// every quadrant and worker count — which is what lets the reproduction
// verify that all four data-management policies grow bit-identical
// trees. A sketch depends on no other feature, so the columns are dealt
// to up to workers goroutines by nnz and the result does not depend on
// the dealing. A column with no stored values, or only NaNs, has nil
// splits and a zero count.
func Canonical(c *sparse.CSC, eps float64, q, workers int) (splits [][]float32, count []int64) {
	splits, count = make([][]float32, c.Cols()), make([]int64, c.Cols())
	sparse.EachColumn(c.ColPtr, workers, func(f int) {
		_, vals := c.Col(f)
		if len(vals) == 0 {
			return
		}
		s := New(eps)
		for _, v := range vals {
			s.Add(float64(v))
		}
		if s.Count() > 0 {
			splits[f], count[f] = s.CandidateSplits(q), s.Count()
		}
	})
	return splits, count
}

// Local sketches rows [lo, hi) of x in row order: one sketch per feature
// that has a value in the range, nil for the others. It is a worker's
// local summary, whose size prices the sketch exchange.
func Local(x *sparse.CSR, lo, hi int, eps float64) []*GK {
	sks := make([]*GK, x.Cols())
	for i := lo; i < hi; i++ {
		feats, vals := x.Row(i)
		for k, f := range feats {
			if sks[f] == nil {
				sks[f] = New(eps)
			}
			sks[f].Add(float64(vals[k]))
		}
	}
	return sks
}
