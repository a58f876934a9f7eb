package gbdt

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"vero/internal/datasets"
	"vero/internal/sparse"
	"vero/internal/testutil"
)

func trainSmall(t testing.TB, classes int) (*Model, *Dataset) {
	t.Helper()
	var ds *Dataset
	if classes == 1 {
		ds = testutil.Regression(t, 2000, 40, 0.4, 0.1, 3)
	} else {
		ds = testutil.Classification(t, datasets.SyntheticConfig{
			N: 2000, D: 40, C: classes,
			InformativeRatio: 0.3, Density: 0.4, Seed: 3,
		})
	}
	model, _, err := Train(ds, Options{Workers: 4, Trees: 8, Layers: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return model, ds
}

// TestPredictorMatchesPointerWalk pins the serving engine to the training
// forest's pointer-walk output, bit-exactly, across task types.
func TestPredictorMatchesPointerWalk(t *testing.T) {
	for _, classes := range []int{1, 2, 4} {
		model, ds := trainSmall(t, classes)
		want := model.Forest().PredictCSR(ds.X)

		p, err := NewPredictor(model, PredictorOptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := p.Predict(ds)
		if len(got) != len(want) {
			t.Fatalf("classes=%d: %d scores, want %d", classes, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("classes=%d: score[%d] = %v, want %v", classes, i, got[i], want[i])
			}
		}

		// Model.Predict now routes through the same engine.
		viaModel := model.Predict(ds)
		for i := range viaModel {
			if viaModel[i] != want[i] {
				t.Fatalf("classes=%d: Model.Predict[%d] = %v, want %v", classes, i, viaModel[i], want[i])
			}
		}

		// Single-row path.
		feat, val := ds.X.Row(5)
		rowGot := p.PredictRow(feat, val)
		k := p.NumClass()
		for c := range rowGot {
			if rowGot[c] != want[5*k+c] {
				t.Fatalf("classes=%d: PredictRow[%d] = %v, want %v", classes, c, rowGot[c], want[5*k+c])
			}
		}
	}
}

// thresholdRows builds sparse rows whose values sit exactly on the model's
// candidate splits — the boundary cases where routing could disagree with
// the pointer walk's if a threshold key were off by one — plus
// out-of-range and between-split values.
func thresholdRows(rng *rand.Rand, splits [][]float32, rows int) ([][]uint32, [][]float32) {
	feats := make([][]uint32, rows)
	vals := make([][]float32, rows)
	for i := 0; i < rows; i++ {
		for f, s := range splits {
			if len(s) == 0 || rng.Float64() < 0.4 {
				continue
			}
			var v float32
			switch rng.Intn(4) {
			case 0:
				v = s[rng.Intn(len(s))] // exactly on a split
			case 1:
				v = s[len(s)-1] + 1 // above every split
			case 2:
				v = s[0] - 1 // below every split
			default:
				k := rng.Intn(len(s))
				v = s[k] + 1e-4 // just past a split
			}
			feats[i] = append(feats[i], uint32(f))
			vals[i] = append(vals[i], v)
		}
	}
	return feats, vals
}

// TestPredictorAllQuadrants is the serving tier's bit-identity property
// test: for a model trained through each quadrant QD1-QD4, Predict,
// PredictRows and PredictRow must reproduce the pointer walk
// (Forest.PredictRow) exactly — on every training row and on rows placed
// on the split thresholds themselves — whatever the worker count and
// however the rows are cut into requests.
func TestPredictorAllQuadrants(t *testing.T) {
	ds, err := Synthetic(SyntheticConfig{N: 900, D: 35, C: 3, InformativeRatio: 0.4, Density: 0.4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Quadrant{QD1, QD2, QD3, QD4} {
		t.Run(q.String(), func(t *testing.T) {
			m, _, err := Train(ds, Options{Quadrant: q, Workers: 3, Trees: 4, Layers: 5, Splits: 16})
			if err != nil {
				t.Fatal(err)
			}
			// Every training row, then the threshold rows.
			rng := rand.New(rand.NewSource(int64(q)))
			extraFeats, extraVals := thresholdRows(rng, m.forest.Splits, 200)
			var feats [][]uint32
			var vals [][]float32
			rowPtr := []int64{0}
			var flatFeat []uint32
			var flatVal []float32
			for i := 0; i < ds.X.Rows()+len(extraFeats); i++ {
				var f []uint32
				var v []float32
				if i < ds.X.Rows() {
					f, v = ds.X.Row(i)
				} else {
					f, v = extraFeats[i-ds.X.Rows()], extraVals[i-ds.X.Rows()]
				}
				feats, vals = append(feats, f), append(vals, v)
				flatFeat, flatVal = append(flatFeat, f...), append(flatVal, v...)
				rowPtr = append(rowPtr, int64(len(flatFeat)))
			}
			x, err := sparse.NewCSR(len(feats), ds.X.Cols(), rowPtr, flatFeat, flatVal)
			if err != nil {
				t.Fatal(err)
			}
			all := &Dataset{X: x}
			k := m.forest.NumClass
			want := make([]float64, 0, len(feats)*k)
			for i := range feats {
				want = append(want, m.forest.PredictRow(feats[i], vals[i])...)
			}
			same := func(t *testing.T, what string, got []float64, lo int) {
				t.Helper()
				for i, g := range got {
					if g != want[lo*k+i] {
						t.Fatalf("%s: row %d class %d = %v, pointer walk %v", what, lo+i/k, i%k, g, want[lo*k+i])
					}
				}
			}

			for _, workers := range []int{1, 2, 3} {
				p, err := NewPredictor(m, PredictorOptions{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				same(t, fmt.Sprintf("Predict workers=%d", workers), p.Predict(all), 0)
				for _, batch := range []int{1, 63, 64, 65, 257, len(feats)} {
					got := make([]float64, 0, len(want))
					for lo := 0; lo < len(feats); lo += batch {
						hi := min(lo+batch, len(feats))
						got = append(got, p.PredictRows(feats[lo:hi], vals[lo:hi])...)
					}
					same(t, fmt.Sprintf("PredictRows workers=%d batch=%d", workers, batch), got, 0)
				}
				if workers == 1 {
					for i := range feats {
						same(t, "PredictRow", p.PredictRow(feats[i], vals[i]), i)
					}
				}
			}
		})
	}
}

func TestPredictorConcurrentUse(t *testing.T) {
	model, ds := trainSmall(t, 2)
	p, err := NewPredictor(model, PredictorOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := p.Predict(ds)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := p.Predict(ds)
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("concurrent Predict diverged at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestPredictorProbabilities(t *testing.T) {
	// Binary: sigmoid of margins, in (0,1).
	model, ds := trainSmall(t, 2)
	p, err := NewPredictor(model, PredictorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Objective() != "logistic" {
		t.Fatalf("objective %q, want logistic", p.Objective())
	}
	scores := p.Predict(ds)
	probs := p.Probabilities(scores)
	for i, pr := range probs {
		if pr <= 0 || pr >= 1 {
			t.Fatalf("prob[%d] = %v outside (0,1)", i, pr)
		}
		want := 1 / (1 + math.Exp(-scores[i]))
		if math.Abs(pr-want) > 1e-15 {
			t.Fatalf("prob[%d] = %v, want sigmoid %v", i, pr, want)
		}
	}

	// Multi-class: softmax rows sum to 1.
	model, ds = trainSmall(t, 3)
	p, err = NewPredictor(model, PredictorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	probs = p.Probabilities(p.Predict(ds))
	k := p.NumClass()
	for i := 0; i+k <= len(probs); i += k {
		sum := 0.0
		for _, v := range probs[i : i+k] {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("softmax row %d sums to %v", i/k, sum)
		}
	}

	// Regression: identity.
	model, ds = trainSmall(t, 1)
	p, err = NewPredictor(model, PredictorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	scores = p.Predict(ds)
	probs = p.Probabilities(scores)
	for i := range probs {
		if probs[i] != scores[i] {
			t.Fatalf("regression Probabilities altered score %d", i)
		}
	}
}
