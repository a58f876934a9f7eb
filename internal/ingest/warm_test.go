package ingest

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestWarmCacheFasterThanCold is the acceptance guard for the cache: the
// warm path must beat the cold parse by a wide margin (the benchmark
// BenchmarkIngestWarmVsCold measures about 7.4x on 2 vCPUs; this test
// asserts a deliberately loose 1.5x best-of-three so CI noise cannot
// flake it).
func TestWarmCacheFasterThanCold(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison")
	}
	dir := t.TempDir()
	_, text := sampleLibSVM(t, 20000, 100, 2, 99)
	src := filepath.Join(dir, "train.libsvm")
	if err := os.WriteFile(src, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := IngestFile(src, Options{NumClass: 2})
	if err != nil {
		t.Fatal(err)
	}
	vbin := filepath.Join(dir, "train.vbin")
	if err := WriteCacheFile(vbin, ds, ds.Prebin); err != nil {
		t.Fatal(err)
	}

	best := func(f func() error) time.Duration {
		bestD := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if err := f(); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(t0); d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	cold := best(func() error { _, err := IngestFile(src, Options{NumClass: 2}); return err })
	warm := best(func() error { _, err := ReadCacheFile(vbin); return err })
	t.Logf("cold %v, warm %v (%.1fx)", cold, warm, float64(cold)/float64(warm))
	if float64(cold) < 1.5*float64(warm) {
		t.Errorf("warm cache load (%v) is not >=1.5x faster than cold parse (%v)", warm, cold)
	}
}
