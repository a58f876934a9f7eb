package datasets_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"vero/internal/datasets"
)

// corpusSeeds reads every testdata/*.libsvm file; they seed the fuzzer
// and double as fixed parser fixtures.
func corpusSeeds(tb testing.TB) map[string][]byte {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "*.libsvm"))
	if err != nil {
		tb.Fatal(err)
	}
	if len(paths) == 0 {
		tb.Fatal("no testdata/*.libsvm seed files")
	}
	seeds := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		seeds[filepath.Base(p)] = data
	}
	return seeds
}

// TestReadLibSVMSeedCorpus pins the seed corpus itself: every committed
// fixture parses, with the shape the file encodes.
func TestReadLibSVMSeedCorpus(t *testing.T) {
	want := map[string]struct {
		numClass, rows, cols int
	}{
		"binary.libsvm":     {2, 4, 8},
		"multiclass.libsvm": {3, 4, 5},
		"regression.libsvm": {1, 3, 3},
		"edge.libsvm":       {2, 2, 1001},
	}
	seeds := corpusSeeds(t)
	for name, data := range seeds {
		w, ok := want[name]
		if !ok {
			t.Fatalf("fixture %s has no expectation; add one", name)
		}
		ds, err := readLibSVM(bytes.NewReader(data), w.numClass)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ds.NumInstances() != w.rows || ds.NumFeatures() != w.cols {
			t.Fatalf("%s: shape %dx%d, want %dx%d", name, ds.NumInstances(), ds.NumFeatures(), w.rows, w.cols)
		}
	}
}

// FuzzReadLibSVM feeds arbitrary bytes through the parser
// (ingest.ReadDataset) at every task type: it must never panic, and any
// input it accepts must satisfy the Dataset invariants and survive a
// WriteLibSVM/read round trip unchanged.
func FuzzReadLibSVM(f *testing.F) {
	for _, data := range corpusSeeds(f) {
		f.Add(data)
	}
	f.Add([]byte("1 0:1.5 2:nan\n0 1:inf\n"))
	f.Add([]byte("2.5e-1 4294967295:1\n"))
	f.Add([]byte("# only a comment\n\n"))
	f.Add([]byte("1 5:0\n1 0:-0 5:1e39\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, numClass := range []int{1, 2, 3} {
			ds, err := readLibSVM(bytes.NewReader(data), numClass)
			if err != nil {
				continue
			}
			if ds.NumInstances() != len(ds.Labels) {
				t.Fatalf("numClass %d: %d rows but %d labels", numClass, ds.NumInstances(), len(ds.Labels))
			}
			for i := 0; i < ds.NumInstances(); i++ {
				feat, val := ds.X.Row(i)
				if len(feat) != len(val) {
					t.Fatalf("row %d: %d indices, %d values", i, len(feat), len(val))
				}
				for j := 1; j < len(feat); j++ {
					if feat[j] <= feat[j-1] {
						t.Fatalf("row %d not strictly sorted at %d", i, j)
					}
				}
			}

			// Round trip: write and re-read reproduces the matrix bitwise.
			var buf bytes.Buffer
			if err := datasets.WriteLibSVM(&buf, ds); err != nil {
				t.Fatalf("write: %v", err)
			}
			back, err := readLibSVM(bytes.NewReader(buf.Bytes()), numClass)
			if err != nil {
				t.Fatalf("re-read rejected written output: %v\n%s", err, buf.Bytes())
			}
			if back.NumInstances() != ds.NumInstances() {
				t.Fatalf("round trip rows %d, want %d", back.NumInstances(), ds.NumInstances())
			}
			for i := 0; i < ds.NumInstances(); i++ {
				if math.Float32bits(back.Labels[i]) != math.Float32bits(ds.Labels[i]) {
					t.Fatalf("row %d label %v became %v", i, ds.Labels[i], back.Labels[i])
				}
				f0, v0 := ds.X.Row(i)
				f1, v1 := back.X.Row(i)
				if len(f0) != len(f1) {
					t.Fatalf("row %d nnz %d became %d", i, len(f0), len(f1))
				}
				for j := range f0 {
					if f0[j] != f1[j] || math.Float32bits(v0[j]) != math.Float32bits(v1[j]) {
						t.Fatalf("row %d entry %d (%d:%v) became (%d:%v)", i, j, f0[j], v0[j], f1[j], v1[j])
					}
				}
			}
		}
	})
}
