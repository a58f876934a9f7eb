package loss

import (
	"fmt"
	"math"
	"sort"
)

// RMSE returns the root-mean-square error between predictions and labels.
func RMSE(pred []float64, labels []float32) float64 {
	if len(pred) != len(labels) {
		panic(fmt.Sprintf("loss: %d predictions vs %d labels", len(pred), len(labels)))
	}
	if len(pred) == 0 {
		return 0
	}
	var sum float64
	for i, p := range pred {
		d := p - float64(labels[i])
		sum += float64(d * d) // rounded: never a fused multiply-add
	}
	return math.Sqrt(sum / float64(len(pred)))
}

// AUC returns the area under the ROC curve for binary labels in {0,1} and
// raw scores (any monotone transform of the probability). Ties receive
// average rank. It returns NaN if either class is absent.
func AUC(score []float64, labels []float32) float64 {
	if len(score) != len(labels) {
		panic(fmt.Sprintf("loss: %d scores vs %d labels", len(score), len(labels)))
	}
	n := len(score)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return score[idx[a]] < score[idx[b]] })
	var rankSumPos float64
	var nPos, nNeg float64
	i := 0
	for i < n {
		j := i
		for j < n && score[idx[j]] == score[idx[i]] {
			j++
		}
		// Average rank of the tie group (1-based ranks i+1 .. j).
		avgRank := float64(float64(i+1+j) / 2) // rounded: never a fused multiply-add
		for k := i; k < j; k++ {
			if labels[idx[k]] >= 0.5 {
				rankSumPos += avgRank
				nPos++
			} else {
				nNeg++
			}
		}
		i = j
	}
	if nPos == 0 || nNeg == 0 {
		return math.NaN()
	}
	return (rankSumPos - float64(nPos*(nPos+1)/2)) / (nPos * nNeg) // rounded: never a fused multiply-add
}

// BinaryAccuracy returns the fraction of instances whose raw score sign
// matches the {0,1} label (threshold at margin 0, i.e. probability 0.5).
func BinaryAccuracy(score []float64, labels []float32) float64 {
	if len(score) == 0 {
		return 0
	}
	correct := 0
	for i, s := range score {
		if (s >= 0) == (labels[i] >= 0.5) {
			correct++
		}
	}
	return float64(correct) / float64(len(score))
}

// MultiAccuracy returns the fraction of instances whose argmax score
// matches the class label. score is row-major with stride numClass.
func MultiAccuracy(score []float64, labels []float32, numClass int) float64 {
	n := len(labels)
	if len(score) != n*numClass {
		panic(fmt.Sprintf("loss: %d scores for %d instances x %d classes", len(score), n, numClass))
	}
	if n == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < n; i++ {
		best, bestV := 0, score[i*numClass]
		for k := 1; k < numClass; k++ {
			if v := score[i*numClass+k]; v > bestV {
				best, bestV = k, v
			}
		}
		if best == int(labels[i]) {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// LogLoss returns the mean binary cross-entropy of raw scores against
// labels in {0,1}.
func LogLoss(score []float64, labels []float32) float64 {
	if len(score) == 0 {
		return 0
	}
	var sum float64
	for i, s := range score {
		p := Sigmoid(s)
		p = math.Min(math.Max(p, 1e-15), 1-1e-15)
		if labels[i] >= 0.5 {
			sum -= math.Log(p)
		} else {
			sum -= math.Log(1 - p)
		}
	}
	return sum / float64(len(score))
}

// MultiLogLoss returns the mean softmax cross-entropy. score is row-major
// with stride numClass.
func MultiLogLoss(score []float64, labels []float32, numClass int) float64 {
	n := len(labels)
	if n == 0 {
		return 0
	}
	var sum float64
	for i := 0; i < n; i++ {
		row := score[i*numClass : (i+1)*numClass]
		maxv := row[0]
		for _, v := range row[1:] {
			if v > maxv {
				maxv = v
			}
		}
		var z float64
		for _, v := range row {
			z += math.Exp(v - maxv)
		}
		sum += math.Log(z) - (row[int(labels[i])] - maxv)
	}
	return sum / float64(n)
}
