package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"vero/internal/cluster"
	"vero/internal/core"
	"vero/internal/datasets"
	"vero/internal/failpoint"
)

// sampleCacheImage builds one valid .vbin image for corruption tests.
func sampleCacheImage(t *testing.T) []byte {
	t.Helper()
	ds, err := datasets.Synthetic(datasets.SyntheticConfig{
		N: 50, D: 10, C: 2, InformativeRatio: 0.4, Density: 0.5, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	pb := Prebinned(ds, DefaultSketchEps, 8)
	var buf bytes.Buffer
	if err := WriteCache(&buf, ds, pb); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReadCacheEveryTruncationRejected cuts a valid image at every single
// byte offset: each prefix must come back as a wrapped ErrCacheCorrupt (or
// a version mismatch for the degenerate sub-header prefixes) — never a
// panic, never an accepted dataset.
func TestReadCacheEveryTruncationRejected(t *testing.T) {
	img := sampleCacheImage(t)
	for cut := 0; cut < len(img); cut++ {
		_, err := ReadCache(bytes.NewReader(img[:cut]), "trunc")
		if err == nil {
			t.Fatalf("truncation at %d of %d accepted", cut, len(img))
		}
		var mismatch *CacheMismatchError
		if !errors.Is(err, ErrCacheCorrupt) && !errors.As(err, &mismatch) {
			t.Fatalf("truncation at %d: error does not wrap ErrCacheCorrupt: %v", cut, err)
		}
	}
	if _, err := ReadCache(bytes.NewReader(img), "whole"); err != nil {
		t.Fatalf("untruncated image rejected: %v", err)
	}
}

// TestReadCacheOversizedHeaderRejected forges headers claiming huge
// section tables over a tiny payload. The header sits outside the CRC, so
// the reader must cross-check it against the file size and reject before
// allocating anything of the claimed magnitude.
func TestReadCacheOversizedHeaderRejected(t *testing.T) {
	img := sampleCacheImage(t)
	for _, field := range []struct {
		name string
		off  int
	}{
		{"rows", 8}, {"cols", 16}, {"nnz", 24},
	} {
		for _, dim := range []uint64{1 << 20, 1 << 39, 1 << 40} {
			bad := append([]byte(nil), img...)
			binary.LittleEndian.PutUint64(bad[field.off:], dim)
			_, err := ReadCache(bytes.NewReader(bad), "oversized")
			if err == nil {
				t.Fatalf("%s=%d accepted", field.name, dim)
			}
			if !errors.Is(err, ErrCacheCorrupt) {
				t.Fatalf("%s=%d: error does not wrap ErrCacheCorrupt: %v", field.name, dim, err)
			}
		}
	}
	// Beyond the plausibility bound entirely.
	bad := append([]byte(nil), img...)
	binary.LittleEndian.PutUint64(bad[24:], 1<<50)
	if _, err := ReadCache(bytes.NewReader(bad), "absurd"); !errors.Is(err, ErrCacheCorrupt) {
		t.Fatalf("nnz=1<<50: %v", err)
	}
}

// countingReader counts how many bytes ReadCache actually consumes.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestReadCacheHeaderValidatedFromPrefix: a corrupt or forged header must
// be rejected from the 64-byte prefix alone — the reader is never asked
// for the body, so a hostile header cannot make ReadCache slurp (or
// allocate for) a huge claimed payload.
func TestReadCacheHeaderValidatedFromPrefix(t *testing.T) {
	img := sampleCacheImage(t)
	body := make([]byte, 1<<20) // a large tail the reader must never see
	for _, tc := range []struct {
		name string
		mut  func([]byte)
	}{
		{"magic", func(b []byte) { b[0] = 'X' }},
		{"version", func(b []byte) { binary.LittleEndian.PutUint32(b[4:], 999) }},
		{"implausible nnz", func(b []byte) { binary.LittleEndian.PutUint64(b[24:], 1<<50) }},
		{"bin width", func(b []byte) { binary.LittleEndian.PutUint32(b[48:], 7) }},
	} {
		hdr := append([]byte(nil), img[:vbinHeaderSize]...)
		tc.mut(hdr)
		cr := &countingReader{r: io.MultiReader(bytes.NewReader(hdr), bytes.NewReader(body))}
		if _, err := ReadCache(cr, tc.name); err == nil {
			t.Fatalf("%s: corrupt header accepted", tc.name)
		}
		if cr.n > vbinHeaderSize {
			t.Fatalf("%s: reader consumed %d bytes, want <= %d (header prefix only)",
				tc.name, cr.n, vbinHeaderSize)
		}
	}
}

// TestReadCacheBitFlipRejected flips one payload bit: the checksum must
// catch it.
func TestReadCacheBitFlipRejected(t *testing.T) {
	img := sampleCacheImage(t)
	bad := append([]byte(nil), img...)
	bad[vbinHeaderSize+len(bad)/2] ^= 0x10
	_, err := ReadCache(bytes.NewReader(bad), "flip")
	if !errors.Is(err, ErrCacheCorrupt) || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("bit flip: %v", err)
	}
}

// TestReadCacheFailpoint arms ingest.readcache and checks the injected
// failure surfaces as a cache-read error, not a panic or silent miss.
func TestReadCacheFailpoint(t *testing.T) {
	defer failpoint.Reset()
	img := sampleCacheImage(t)
	if err := failpoint.Enable(FailpointReadCache, "error"); err != nil {
		t.Fatal(err)
	}
	_, err := ReadCache(bytes.NewReader(img), "fp")
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("want injected failure, got %v", err)
	}
	failpoint.Reset()
	if _, err := ReadCache(bytes.NewReader(img), "fp"); err != nil {
		t.Fatalf("disarmed read failed: %v", err)
	}
}

// TestOneDefinitionOfValidImage swaps two instance ids inside one column
// and recomputes the checksum: the image is CRC-correct but breaks the
// ascending-instance invariant block reads binary-search on. Every entry
// point must reject it as corrupt — an image is valid for all readers or
// for none.
func TestOneDefinitionOfValidImage(t *testing.T) {
	img := sampleCacheImage(t)
	good, err := MapCacheBytes(img, "good")
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), img...)
	swapped := false
	for j := 0; j < good.Cols() && !swapped; j++ {
		if lo, hi := good.ColRange(j); hi-lo >= 2 {
			a, b := bad[good.instOff+4*lo:][:4], bad[good.instOff+4*(lo+1):][:4]
			for k := range a {
				a[k], b[k] = b[k], a[k]
			}
			swapped = true
		}
	}
	if !swapped {
		t.Fatal("sample image has no column with two entries")
	}
	binary.LittleEndian.PutUint32(bad[52:], crc32.Checksum(bad[vbinHeaderSize:], crcTable))
	path := writeCacheImage(t, bad)

	_, errRead := ReadCache(bytes.NewReader(bad), "swapped")
	_, errFile := ReadCacheFile(path)
	_, errShard := ReadCacheShard(path, datasets.ShardRows, 0, 2)
	_, errMap := MapCacheBytes(bad, "swapped")
	for name, err := range map[string]error{
		"ReadCache": errRead, "ReadCacheFile": errFile, "ReadCacheShard": errShard, "MapCacheBytes": errMap,
	} {
		if !errors.Is(err, ErrCacheCorrupt) {
			t.Errorf("%s on a column with swapped instances: %v, want ErrCacheCorrupt", name, err)
		}
	}
}

// openFDs counts this process's open descriptors, skipping the test where
// /proc is not available.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd on %s: %v", runtime.GOOS, err)
	}
	return len(ents)
}

// TestReadCacheFileReleasesMapping: the ordinary load path maps the file,
// so every outcome — success, each truncation, an injected read failure —
// must leave the descriptor count where it started and fail descriptively,
// and a loaded dataset must not alias the released mapping: it still
// trains after the view is gone and the collector has run.
func TestReadCacheFileReleasesMapping(t *testing.T) {
	defer failpoint.Reset()
	img := sampleCacheImage(t)
	path := writeCacheImage(t, img)
	before := openFDs(t)

	ds, err := ReadCacheFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(img); cut += 64 {
		_, err := ReadCacheFile(writeCacheImage(t, img[:cut]))
		var mismatch *CacheMismatchError
		if err == nil || (!errors.Is(err, ErrCacheCorrupt) && !errors.As(err, &mismatch)) {
			t.Fatalf("truncation at %d of %d: %v, want a corrupt-cache error", cut, len(img), err)
		}
	}
	if err := failpoint.Enable(FailpointMmapRead, "error"); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCacheFile(path); !errors.Is(err, ErrCacheCorrupt) || !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("load under %s: %v, want the injected failure as a corrupt-cache error", FailpointMmapRead, err)
	}
	failpoint.Reset()
	if after := openFDs(t); after != before {
		t.Fatalf("open descriptors: %d before, %d after", before, after)
	}

	runtime.GC()
	cfg, err := core.ConfigureQuadrant(core.QD4, core.Config{Trees: 1, Layers: 3, Splits: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Train(cluster.New(2, cluster.Gigabit()), ds, cfg); err != nil {
		t.Fatalf("training on the loaded dataset after its view was released: %v", err)
	}
}

// TestScanBlocksWorkerFailpoint injects a failure into the parse worker
// pool: the scan must stop with the injected error — deterministically,
// with no goroutine leak or hang — and succeed again once disarmed.
func TestScanBlocksWorkerFailpoint(t *testing.T) {
	defer failpoint.Reset()
	var text strings.Builder
	for i := 0; i < 64; i++ {
		text.WriteString("1 0:1 3:2\n0 1:0.5\n")
	}
	opts := Options{NumClass: 2, ChunkRows: 4, Workers: 4}

	if err := failpoint.Enable(FailpointParseBlock, "3*error"); err != nil {
		t.Fatal(err)
	}
	err := ScanBlocks(strings.NewReader(text.String()), opts, func(*Block) error { return nil })
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("want injected failure, got %v", err)
	}

	failpoint.Reset()
	blocks := 0
	if err := ScanBlocks(strings.NewReader(text.String()), opts, func(*Block) error { blocks++; return nil }); err != nil {
		t.Fatalf("disarmed scan failed: %v", err)
	}
	if blocks == 0 {
		t.Fatal("disarmed scan produced no blocks")
	}
}
