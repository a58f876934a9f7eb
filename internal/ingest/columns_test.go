package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"vero/internal/failpoint"
)

// TestColumnPassDeterministic: the column pass deals features to
// goroutines, and neither the worker count nor GOMAXPROCS may show in its
// output. Ingest's prebin and the cold cache's bytes must equal, for every
// combination, the serial canonical pass over the reference parser's
// dataset written by WriteCache — at q = 20 (one fused pass, byte bins)
// and at q = 300 (bin width known only after sketching).
func TestColumnPassDeterministic(t *testing.T) {
	text := goldenLibSVM(5, 900, 18, 3)
	ref, err := referenceReadLibSVM(strings.NewReader(text), 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "train.libsvm")
	if err := writeFile(src, text); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, p := range []struct {
		eps float64
		q   int
	}{{DefaultSketchEps, 20}, {0.001, 300}} {
		wantPB := Prebinned(ref, p.eps, p.q)
		var want bytes.Buffer
		if err := WriteCache(&want, ref, wantPB); err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for _, workers := range []int{1, 2, 3, 8} {
				opts := Options{NumClass: 3, ChunkRows: 53, Workers: workers, SketchEps: p.eps, Q: p.q}
				ds, err := Ingest(strings.NewReader(text), opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(ds.Prebin, wantPB) {
					t.Fatalf("q=%d GOMAXPROCS=%d workers=%d: Ingest prebin differs from the canonical pass", p.q, procs, workers)
				}
				cache := filepath.Join(dir, fmt.Sprintf("cache-q%d-p%d-w%d", p.q, procs, workers))
				path, status, err := EnsureCache(cache, src, opts)
				if err != nil || status != CacheCold {
					t.Fatalf("EnsureCache: %v %s", err, status)
				}
				got, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("q=%d GOMAXPROCS=%d workers=%d: cold cache image differs from Prebinned + WriteCache", p.q, procs, workers)
				}
			}
		}
	}
}

// settle waits for the goroutine count to fall back to before, failing
// with every stack if it does not within a few seconds.
func settle(t *testing.T, before int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%s: %d goroutines outlive the call (%d before):\n%s",
				what, runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}

// TestAbortedIngestLeaksNoGoroutine: after an ingest fails — in a parse
// worker, in the consumer, or when the finished image cannot be written —
// no goroutine of the scan or of the column pass is left running.
func TestAbortedIngestLeaksNoGoroutine(t *testing.T) {
	defer failpoint.Reset()
	_, text := sampleLibSVM(t, 2000, 30, 2, 21)
	dir := t.TempDir()
	src := filepath.Join(dir, "train.libsvm")
	if err := writeFile(src, text); err != nil {
		t.Fatal(err)
	}
	opts := Options{NumClass: 2, ChunkRows: 16, Workers: 4}
	before := runtime.NumGoroutine()
	if err := failpoint.Enable(FailpointParseBlock, "5*error"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Cached(filepath.Join(dir, "fp"), src, opts); !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("Cached under %s: %v, want the injected failure", FailpointParseBlock, err)
	}
	failpoint.Reset()
	settle(t, before, "parse-block failpoint")

	stop := errors.New("consumer stops")
	blocks := 0
	err := ScanBlocks(strings.NewReader(text), opts, func(*Block) error {
		if blocks++; blocks == 4 {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("ScanBlocks: %v, want the consumer's error", err)
	}
	settle(t, before, "consumer error")

	// The image is built before the write fails: the column pass has run.
	readOnly := filepath.Join(dir, "ro")
	if err := os.Mkdir(readOnly, 0o555); err != nil {
		t.Fatal(err)
	}
	if f, err := os.CreateTemp(readOnly, "probe"); err == nil {
		f.Close()
		os.Remove(f.Name())
		t.Log("read-only directory is writable by this user; covering only the blocked rename")
	} else if _, _, err := Cached(readOnly, src, opts); err == nil {
		t.Fatal("Cached into a read-only directory succeeded")
	}
	settle(t, before, "cache write into a read-only directory")

	cacheDir := filepath.Join(dir, "blocked")
	path, err := CachePath(cacheDir, src, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Cached(cacheDir, src, opts); err == nil {
		t.Fatal("Cached over a directory at the cache path succeeded")
	}
	settle(t, before, "cache rename onto a directory")
	if left, _ := filepath.Glob(filepath.Join(cacheDir, "*.tmp*")); len(left) != 0 {
		t.Fatalf("failed write left temp files: %v", left)
	}
}

// TestParseUnicodeSpacesMatchReference: fields split on every
// unicode.IsSpace rune, multi-byte ones included, and an invalid UTF-8
// byte is field content — exactly as strings.Fields splits the reference
// parser's lines.
func TestParseUnicodeSpacesMatchReference(t *testing.T) {
	for _, text := range []string{
		"1 0:1 2:2\n0\u00851:3\n",
		"　# comment after an ideographic space\n1 0:1\v2:3\f\n0\u20031:2\u3000\n",
		"1 0:1  2:2\r\n0\t1:4  \n",
		"1 0:1 2:\xff2\n",
		"1 0:\xc2\xa02\n",
	} {
		ref, refErr := referenceReadLibSVM(strings.NewReader(text), 2)
		got, gotErr := ReadDataset(strings.NewReader(text), Options{NumClass: 2, ChunkRows: 1})
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: reference err %v, chunked err %v", text, refErr, gotErr)
		}
		if refErr == nil {
			sameMatrix(t, got, ref, strings.ToValidUTF8(text, "?"))
		}
	}
}
