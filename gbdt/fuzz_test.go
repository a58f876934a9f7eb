package gbdt

import (
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"vero/internal/tree"
)

// decodeBudget bounds one input's decode, validation, compilation and
// scoring: all of them are linear in the encoded model.
const decodeBudget = 2 * time.Second

// FuzzDecodeModel feeds arbitrary bytes through the model decoder, the
// path every untrusted model takes (veroserve's admin hot swap,
// checkpoint resume): decode, validate, compile, score a few rows. It
// must never panic or run past decodeBudget, and wherever decoding
// succeeds the compiled kernel must score every row bit for bit as the
// pointer walk (Forest.PredictRow) does.
func FuzzDecodeModel(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.golden.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no testdata/*.golden.json seeds: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		start := time.Now()
		m, err := DecodeModel(data)
		if err != nil {
			return
		}
		forest := m.Forest()
		if err := forest.Validate(); err != nil {
			t.Fatalf("decoded forest fails validation: %v", err)
		}
		flat := tree.Compile(forest)
		feats, vals := probeRows(forest)
		block := make([]float64, len(feats)*forest.NumClass)
		flat.PredictBlock(feats, vals, block, 0)
		for i := range feats {
			want := forest.PredictRow(feats[i], vals[i])
			for _, got := range [][]float64{m.PredictRow(feats[i], vals[i]), block[i*forest.NumClass : (i+1)*forest.NumClass]} {
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
						t.Fatalf("row %d (%v:%v) class %d: compiled %v, pointer walk %v", i, feats[i], vals[i], k, got[k], want[k])
					}
				}
			}
		}
		if d := time.Since(start); d > decodeBudget {
			t.Fatalf("decode, compile and score took %v, over the %v budget", d, decodeBudget)
		}
	})
}

// probeRows builds sparse rows that land on and beside the forest's split
// thresholds: an empty row, then per split feature (up to 16) its first
// threshold, the next float above it and NaN, and one row holding every
// probed feature at its threshold.
func probeRows(f *tree.Forest) ([][]uint32, [][]float32) {
	thr := map[uint32]float32{}
	for _, t := range f.Trees {
		for _, n := range t.Nodes {
			if _, seen := thr[uint32(n.Feature)]; !n.IsLeaf() && !seen && len(thr) < 16 {
				thr[uint32(n.Feature)] = n.SplitValue
			}
		}
	}
	keys := make([]uint32, 0, len(thr))
	for k := range thr {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	feats, vals := [][]uint32{nil}, [][]float32{nil}
	all := make([]float32, 0, len(keys))
	for _, k := range keys {
		v := thr[k]
		for _, x := range []float32{v, math.Nextafter32(v, float32(math.Inf(1))), float32(math.NaN())} {
			feats, vals = append(feats, []uint32{k}), append(vals, []float32{x})
		}
		all = append(all, v)
	}
	return append(feats, keys), append(vals, all)
}
