package ingest

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vero/internal/cluster"
	"vero/internal/core"
	"vero/internal/datasets"
)

// encodeTrained trains with the given quadrant's reference policy and
// returns the serialized forest.
func encodeTrained(t *testing.T, ds *datasets.Dataset, q core.Quadrant, splits int) []byte {
	t.Helper()
	cfg, err := core.ConfigureQuadrant(q, core.Config{Trees: 4, Layers: 4, Splits: splits})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Train(cluster.New(4, cluster.Gigabit()), ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := res.Forest.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestTrainFromCacheBitIdentical is the acceptance property of the cache:
// for every quadrant, training from the reconstructed .vbin dataset
// produces byte-identical model encodings to training from the source
// LibSVM text, and the cold chunked-ingest path (raw values + prebin)
// matches too.
func TestTrainFromCacheBitIdentical(t *testing.T) {
	_, text := sampleLibSVM(t, 300, 40, 2, 33)

	// Cold reference: the plain single-threaded parser, no prebin.
	ref, err := referenceReadLibSVM(strings.NewReader(text), 2)
	if err != nil {
		t.Fatal(err)
	}
	// Cold ingest: chunked parse with streaming sketches attached.
	cold, err := Ingest(strings.NewReader(text), Options{NumClass: 2, ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Warm: through the binary cache.
	var buf bytes.Buffer
	if err := WriteCache(&buf, cold, cold.Prebin); err != nil {
		t.Fatal(err)
	}
	warm, err := ReadCache(bytes.NewReader(buf.Bytes()), "warm")
	if err != nil {
		t.Fatal(err)
	}

	for _, q := range []core.Quadrant{core.QD1, core.QD2, core.QD3, core.QD4} {
		want := encodeTrained(t, ref, q, 20)
		if got := encodeTrained(t, cold, q, 20); !bytes.Equal(got, want) {
			t.Fatalf("%v: cold-ingest model differs from reference", q)
		}
		if got := encodeTrained(t, warm, q, 20); !bytes.Equal(got, want) {
			t.Fatalf("%v: warm-cache model differs from reference", q)
		}
	}
}

// TestQuantizedParameterMismatchRejected: a cache-loaded dataset cannot
// be trained with different sketch parameters — the source values are
// gone, so the trainer must refuse rather than silently drift.
func TestQuantizedParameterMismatchRejected(t *testing.T) {
	_, text := sampleLibSVM(t, 100, 20, 2, 8)
	ds, err := Ingest(strings.NewReader(text), Options{NumClass: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCache(&buf, ds, ds.Prebin); err != nil {
		t.Fatal(err)
	}
	warm, err := ReadCache(bytes.NewReader(buf.Bytes()), "warm")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []core.Quadrant{core.QD1, core.QD4} {
		cfg, err := core.ConfigureQuadrant(q, core.Config{Trees: 2, Layers: 3, Splits: 16})
		if err != nil {
			t.Fatal(err)
		}
		_, err = core.Train(cluster.New(4, cluster.Gigabit()), warm, cfg)
		if err == nil || !strings.Contains(err.Error(), "re-ingest") {
			t.Fatalf("%v: err = %v, want parameter-mismatch rejection", q, err)
		}
	}
}

// TestRawPrebinMismatchFallsBack: a cold-ingested dataset still has its
// source values, so training with different parameters just re-sketches.
func TestRawPrebinMismatchFallsBack(t *testing.T) {
	_, text := sampleLibSVM(t, 150, 20, 2, 12)
	ref, err := referenceReadLibSVM(strings.NewReader(text), 2)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Ingest(strings.NewReader(text), Options{NumClass: 2}) // prebin at q=20
	if err != nil {
		t.Fatal(err)
	}
	want := encodeTrained(t, ref, core.QD2, 16)
	if got := encodeTrained(t, cold, core.QD2, 16); !bytes.Equal(got, want) {
		t.Fatal("fallback re-sketch model differs from reference")
	}
}

// TestCachedEndToEnd drives the whole warm path through the file system:
// source file -> Cached cold -> Cached warm -> identical models.
func TestCachedEndToEnd(t *testing.T) {
	dir := t.TempDir()
	_, text := sampleLibSVM(t, 200, 25, 2, 40)
	src := filepath.Join(dir, "train.libsvm")
	if err := writeFile(src, text); err != nil {
		t.Fatal(err)
	}
	opts := Options{NumClass: 2}
	cold, status, err := Cached(filepath.Join(dir, "cache"), src, opts)
	if err != nil || status != CacheCold {
		t.Fatalf("cold: %v %s", err, status)
	}
	warm, status, err := Cached(filepath.Join(dir, "cache"), src, opts)
	if err != nil || status != CacheWarm {
		t.Fatalf("warm: %v %s", err, status)
	}
	want := encodeTrained(t, cold, core.QD4, 20)
	if got := encodeTrained(t, warm, core.QD4, 20); !bytes.Equal(got, want) {
		t.Fatal("warm model differs from cold model")
	}
}

func writeFile(path, text string) error {
	return os.WriteFile(path, []byte(text), 0o644)
}
