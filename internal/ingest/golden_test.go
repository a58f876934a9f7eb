package ingest

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vero/internal/datasets"
)

// goldenLibSVM renders a seeded LibSVM file whose columns cover the edge
// cases a .vbin image must encode: heavy duplicates and signed zeros, a
// column where some entries are NaN (d-4), a column whose every entry is
// NaN (d-2, so it has entries but no splits), and an interior feature with
// no entries at all (d-3). Values are printed with %g, which round-trips
// float32 exactly.
func goldenLibSVM(seed int64, n, d, c int) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%d", rng.Intn(c))
		for f := 0; f < d; f++ {
			if f == d-3 || rng.Float64() >= 0.4 {
				continue
			}
			var v string
			switch {
			case f == d-2, f == d-4 && rng.Intn(3) == 0:
				v = "nan"
			case f%3 == 0:
				v = fmt.Sprintf("%g", float32(rng.Intn(5)))
			case f%5 == 1 && rng.Intn(4) == 0:
				v = []string{"0", "-0"}[rng.Intn(2)]
			default:
				v = fmt.Sprintf("%g", float32(rng.NormFloat64()*10))
			}
			fmt.Fprintf(&sb, " %d:%s", f, v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// goldenImages returns every pinned .vbin image by name: Cached cold on
// seeded LibSVM files, and WriteCache over Prebinned datasets.
func goldenImages(t *testing.T) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	out := map[string][]byte{}
	cached := func(name string, seed int64, n, d, c int, opts Options) {
		src := filepath.Join(dir, name+".libsvm")
		if err := writeFile(src, goldenLibSVM(seed, n, d, c)); err != nil {
			t.Fatal(err)
		}
		opts.NumClass, opts.ChunkRows, opts.Workers = c, 61, 3
		if _, status, err := Cached(filepath.Join(dir, "cache"), src, opts); err != nil || status != CacheCold {
			t.Fatalf("%s: Cached: %v %s", name, err, status)
		}
		path, err := CachePath(filepath.Join(dir, "cache"), src, opts)
		if err != nil {
			t.Fatal(err)
		}
		img, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = img
	}
	prebinned := func(name string, ds *datasets.Dataset, eps float64, q int) {
		var buf bytes.Buffer
		if err := WriteCache(&buf, ds, Prebinned(ds, eps, q)); err != nil {
			t.Fatalf("%s: WriteCache: %v", name, err)
		}
		out[name] = buf.Bytes()
	}

	cached("cached-c2", 1, 700, 24, 2, Options{})
	cached("cached-c5", 2, 700, 24, 5, Options{})
	cached("cached-c2-wide", 3, 1500, 12, 2, Options{SketchEps: 0.001, Q: 300})

	syn, err := datasets.Synthetic(datasets.SyntheticConfig{N: 400, D: 30, C: 2, InformativeRatio: 0.3, Density: 0.3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	prebinned("prebinned-synthetic", syn, DefaultSketchEps, 20)
	edge, err := referenceReadLibSVM(strings.NewReader(goldenLibSVM(17, 1500, 12, 3)), 3)
	if err != nil {
		t.Fatal(err)
	}
	prebinned("prebinned-edge", edge, DefaultSketchEps, 20)
	prebinned("prebinned-edge-wide", edge, 0.001, 300)
	return out
}

// TestGoldenCacheBytes pins the SHA-256 of every golden image. The hashes
// were taken from the serial sketch-then-bin writer this package used
// before the column pass; any change to how the pass orders, sketches or
// bins a column changes them.
func TestGoldenCacheBytes(t *testing.T) {
	want := map[string]string{
		"cached-c2":           "3344983c3b998f5f6efd694a684d62fe0ddf355cad05f89bc63cdd76d99f0b5b",
		"cached-c5":           "2594e48aab3fe21857c5ca1bf47b8c1ded202e8dc6739e9a550e34c3b7c2907e",
		"cached-c2-wide":      "ac6d0139d3ab3075e55b35af07bb7a155ff2e2ca6c3a5a400e096f2f758dd788",
		"prebinned-synthetic": "310683657aaafd9630ae5bbe8f825eaea4386bba1f35a88c269079d266304ad9",
		"prebinned-edge":      "b6187c03bf5654a674dbd6a94624163d72af8995b8fc50197dfe88c6a1237a09",
		"prebinned-edge-wide": "dcf0fe792366e36791239a59336526c8bc342e56d46d97f1a8687adda0c2cb21",
	}
	wantWidth := map[string]uint32{"cached-c2-wide": 2, "prebinned-edge-wide": 2}
	for name, img := range goldenImages(t) {
		sum := sha256.Sum256(img)
		if got := hex.EncodeToString(sum[:]); got != want[name] {
			t.Errorf("%s: sha256 %s, want %s", name, got, want[name])
		}
		if w := binary.LittleEndian.Uint32(img[48:]); w != max(wantWidth[name], 1) {
			t.Errorf("%s: bin width %d, want %d", name, w, max(wantWidth[name], 1))
		}
	}
}
