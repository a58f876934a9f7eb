package ingest

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// wideSparseLibSVM writes n rows over d features with perRow entries each.
func wideSparseLibSVM(seed int64, n, d, perRow int) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	feats := make([]int, 0, perRow)
	for i := 0; i < n; i++ {
		feats = feats[:0]
		for len(feats) < perRow {
			if f := rng.Intn(d); !slices.Contains(feats, f) {
				feats = append(feats, f)
			}
		}
		slices.Sort(feats)
		fmt.Fprintf(&sb, "%d", rng.Intn(2))
		for _, f := range feats {
			fmt.Fprintf(&sb, " %d:%g", f, float32(rng.NormFloat64()))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestWideSparseTransposition: a wide sparse input ingested in 64-row and
// in 4096-row blocks yields the same image and prebin as the serial
// transposition (serialToCSC) and column pass over the reference parser's
// matrix, and the cold image costs about the same allocation at both
// block sizes: the transposition's bookkeeping grows with the workers, not
// with blocks × columns (313 blocks × 200k columns would be 250 MB).
func TestWideSparseTransposition(t *testing.T) {
	const rows, d = 20000, 200000
	text := wideSparseLibSVM(3, rows, d, 5)
	ref, err := referenceReadLibSVM(strings.NewReader(text), 2)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{NumClass: 2, Workers: 4}
	base, err = base.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	serial := serialToCSC(ref.X)
	wantPB := prebin(serial, base.SketchEps, base.Q, 1)
	var want bytes.Buffer
	if err := writeImage(&want, ref.Labels, 2, serial, wantPB, 1); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	src := filepath.Join(dir, "wide.libsvm")
	if err := writeFile(src, text); err != nil {
		t.Fatal(err)
	}
	alloc := map[int]uint64{}
	for _, chunk := range []int{4096, 64} {
		opts := base
		opts.ChunkRows = chunk
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		path, status, err := EnsureCache(filepath.Join(dir, fmt.Sprint("ensure", chunk)), src, opts)
		runtime.ReadMemStats(&after)
		if err != nil || status != CacheCold {
			t.Fatalf("chunk %d: EnsureCache: %v %s", chunk, err, status)
		}
		alloc[chunk] = after.TotalAlloc - before.TotalAlloc
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("chunk %d: EnsureCache image differs from the serial transposition's", chunk)
		}

		ds, status, err := Cached(filepath.Join(dir, fmt.Sprint("cached", chunk)), src, opts)
		if err != nil || status != CacheCold {
			t.Fatalf("chunk %d: Cached: %v %s", chunk, err, status)
		}
		if !reflect.DeepEqual(ds.Prebin, wantPB) {
			t.Fatalf("chunk %d: Cached prebin differs from the serial column pass", chunk)
		}
		path, err = CachePath(filepath.Join(dir, fmt.Sprint("cached", chunk)), src, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got, err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("chunk %d: Cached image differs from the serial transposition's", chunk)
		}
	}
	t.Logf("cold EnsureCache allocated %.1f MB in 4096-row blocks, %.1f MB in 64-row blocks",
		float64(alloc[4096])/1e6, float64(alloc[64])/1e6)
	if float64(alloc[64]) > 1.15*float64(alloc[4096]) {
		t.Fatalf("64-row blocks allocated %d B, more than 1.15 × the 4096-row blocks' %d B", alloc[64], alloc[4096])
	}
}
