package histogram

// Split finding per Equation 2 of the paper: for every candidate split of
// every feature, compute
//
//	Gain = 1/2 * [ GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda) ] - gamma
//
// summed over classes, and keep the maximum. Instances with a missing
// value on the split feature (zero entries of a sparse dataset) carry the
// gradient mass (node total - histogram total); both default directions
// are tried and the better one is recorded, following DimBoost [17].

// minSplitGain is the smallest gain accepted as a real split. A node whose
// every candidate split has mathematically zero gain (e.g. a pure node)
// computes gains of +/- a few ulps depending on accumulation order; the
// threshold keeps such noise from splitting in one quadrant but not
// another.
const minSplitGain = 1e-9

// gainTieEps is the relative tolerance under which two split gains are
// considered tied. Different data-management policies accumulate the same
// gradient sums in different orders, so mathematically equal gains can
// differ in their last bits; ties are broken deterministically by
// (feature, bin, default direction) so that every quadrant grows the same
// tree.
const gainTieEps = 1e-10

// Prefer reports whether candidate cand should replace best, comparing
// gains with a relative tolerance and breaking ties by lower feature, then
// lower bin, then default-right.
func Prefer(cand, best Split) bool {
	if !cand.Valid {
		return false
	}
	if !best.Valid {
		return true
	}
	eps := float64(gainTieEps * (abs(best.Gain) + 1)) // rounded: never a fused multiply-add
	if cand.Gain > best.Gain+eps {
		return true
	}
	if cand.Gain < best.Gain-eps {
		return false
	}
	if cand.Feature != best.Feature {
		return cand.Feature < best.Feature
	}
	if cand.Bin != best.Bin {
		return cand.Bin < best.Bin
	}
	return !cand.DefaultLeft && best.DefaultLeft
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Split describes the best split found for one node on one worker.
type Split struct {
	// Feature is the worker-local feature slot as Finder returns it; after
	// the trainer's split exchange it is the global feature id.
	Feature int
	// Bin is the candidate-split index: instances with bin <= Bin go left.
	Bin int
	// Gain is the split gain of Equation 2.
	Gain float64
	// DefaultLeft directs instances with a missing value on Feature.
	DefaultLeft bool
	// Valid is false when no split improves on the leaf.
	Valid bool
}

// Finder holds the regularization hyper-parameters of the objective
// (Section 2.1.1): lambda is the L2 penalty on leaf weights, gamma the
// per-leaf complexity penalty, MinChildHess the minimum second-order mass
// of each child (a min_child_weight analogue).
type Finder struct {
	Lambda       float64
	Gamma        float64
	MinChildHess float64
}

// score is the leaf objective contribution sum_k G_k^2 / (H_k + lambda).
func (f *Finder) score(g, h []float64) float64 {
	var s float64
	for k := range g {
		s += g[k] * g[k] / (h[k] + f.Lambda)
	}
	return s
}

func sumSlice(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// FindBest scans the histograms of node hist, whose per-class totals over
// all node instances are totalG/totalH, and returns the best split across
// the worker's feature slots. numBins[feat] gives the true candidate count
// of each slot (<= MaxBins).
func (f *Finder) FindBest(hist *Hist, totalG, totalH []float64, numBins []int) Split {
	return f.FindBestInRange(hist, totalG, totalH, numBins, 0, hist.NumFeat)
}

// FindBestInRange is FindBest restricted to feature slots [featLo, featHi).
// Horizontal systems that shard aggregated histograms across workers
// (LightGBM's reduce-scatter, DimBoost's parameter servers) use it for
// per-worker split finding on their feature shard.
func (f *Finder) FindBestInRange(hist *Hist, totalG, totalH []float64, numBins []int, featLo, featHi int) Split {
	c := hist.NumClass
	best := Split{Gain: 0, Valid: false}
	parentScore := f.score(totalG, totalH)
	totalHess := sumSlice(totalH)

	featG := make([]float64, c)
	featH := make([]float64, c)
	missG := make([]float64, c)
	missH := make([]float64, c)
	leftG := make([]float64, c)
	leftH := make([]float64, c)
	rightG := make([]float64, c)
	rightH := make([]float64, c)

	for feat := featLo; feat < featHi; feat++ {
		nb := hist.MaxBins
		if numBins != nil {
			nb = numBins[feat]
		}
		if nb < 2 {
			continue // a single bin admits no split
		}
		hist.FeatTotals(feat, featG, featH)
		for k := 0; k < c; k++ {
			missG[k] = totalG[k] - featG[k]
			missH[k] = totalH[k] - featH[k]
		}
		missHess := sumSlice(missH)

		// Prefix scan over bins; the last bin cannot be a split point
		// (everything would go left).
		for k := 0; k < c; k++ {
			leftG[k] = 0
			leftH[k] = 0
		}
		base := hist.offset(feat, 0)
		var leftHess float64
		for bin := 0; bin < nb-1; bin++ {
			for k := 0; k < c; k++ {
				leftG[k] += hist.Grad[base+bin*c+k]
				leftH[k] += hist.Hess[base+bin*c+k]
			}
			leftHess = sumSlice(leftH)

			// Default right: missing mass joins the right child.
			if leftHess >= f.MinChildHess && totalHess-leftHess >= f.MinChildHess {
				for k := 0; k < c; k++ {
					rightG[k] = totalG[k] - leftG[k]
					rightH[k] = totalH[k] - leftH[k]
				}
				gain := float64(0.5*(f.score(leftG, leftH)+f.score(rightG, rightH)-parentScore)) - f.Gamma // rounded: never a fused multiply-add
				if gain > minSplitGain {
					cand := Split{Feature: feat, Bin: bin, Gain: gain, DefaultLeft: false, Valid: true}
					if Prefer(cand, best) {
						best = cand
					}
				}
			}
			// Default left: missing mass joins the left child. Skip when
			// there is no missing mass — identical to default right.
			if missHess > 0 && leftHess+missHess >= f.MinChildHess && totalHess-leftHess-missHess >= f.MinChildHess {
				for k := 0; k < c; k++ {
					lg := leftG[k] + missG[k]
					lh := leftH[k] + missH[k]
					rightG[k] = totalG[k] - lg
					rightH[k] = totalH[k] - lh
					leftG[k] = lg // temporarily fold missing in
					leftH[k] = lh
				}
				gain := float64(0.5*(f.score(leftG, leftH)+f.score(rightG, rightH)-parentScore)) - f.Gamma // rounded: never a fused multiply-add
				if gain > minSplitGain {
					cand := Split{Feature: feat, Bin: bin, Gain: gain, DefaultLeft: true, Valid: true}
					if Prefer(cand, best) {
						best = cand
					}
				}
				for k := 0; k < c; k++ { // restore the prefix
					leftG[k] -= missG[k]
					leftH[k] -= missH[k]
				}
			}
		}
	}
	return best
}

// LeafWeights returns the optimal leaf weight vector of Equation 1,
// w_k = -G_k / (H_k + lambda), for a node with the given totals.
func (f *Finder) LeafWeights(totalG, totalH []float64) []float64 {
	w := make([]float64, len(totalG))
	for k := range totalG {
		w[k] = -totalG[k] / (totalH[k] + f.Lambda)
	}
	return w
}
