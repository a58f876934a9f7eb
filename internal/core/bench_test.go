package core

import (
	"fmt"
	"testing"

	"vero/internal/cluster"
	"vero/internal/datasets"
)

// BenchmarkTrainTree isolates the per-tree training loop — gradient
// computation, histogram construction (the dominant phase), split finding
// and node splitting — from data preparation, so allocs/op reflects the
// steady-state loop rather than one-time sketching and binning. The
// repo-root BenchmarkTrainHist* suite measures the end-to-end picture.
func BenchmarkTrainTree(b *testing.B) {
	for _, c := range []int{2, 5} {
		name := "binary"
		if c > 2 {
			name = "multiclass"
		}
		ds, err := datasets.Synthetic(datasets.SyntheticConfig{
			N: 8000, D: 60, C: c,
			InformativeRatio: 0.3, Density: 0.3, LabelNoise: 0.05, Seed: 17,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range []Quadrant{QD1, QD2, QD3, QD4} {
			b.Run(fmt.Sprintf("QD%d/%s", int(q), name), func(b *testing.B) {
				cl := cluster.New(4, cluster.Gigabit())
				t := newTestTrainer(b, cl, ds, Config{Quadrant: q, Trees: 1, Layers: 6, Splits: 20})
				t.allocRunState(t.obj.InitScore(ds.Labels))
				t.eng.computeGradients()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t.trainTree()
				}
			})
		}
	}
}
