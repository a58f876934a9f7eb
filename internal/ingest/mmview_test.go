package ingest

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vero/internal/failpoint"
)

// writeCacheImage writes a .vbin image to a temp file and returns its path.
func writeCacheImage(t *testing.T, img []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sample.vbin")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// openModes returns the same image opened every way a view can be served:
// mmap (where available), forced pread, and an in-memory byte image.
func openModes(t *testing.T, img []byte) map[string]*MappedCache {
	t.Helper()
	path := writeCacheImage(t, img)
	modes := map[string]*MappedCache{}
	mm, err := mapCacheFile(path, true)
	if err != nil {
		t.Fatalf("mmap open: %v", err)
	}
	modes["mmap"] = mm
	pr, err := mapCacheFile(path, false)
	if err != nil {
		t.Fatalf("pread open: %v", err)
	}
	modes["pread"] = pr
	by, err := MapCacheBytes(img, "sample")
	if err != nil {
		t.Fatalf("bytes open: %v", err)
	}
	modes["bytes"] = by
	return modes
}

// TestMappedCacheModesAgree is the access-path equivalence property: the
// mmap view, the pread fallback and the byte-image view must expose
// identical shape, column ranges, entries, probes and fingerprints, and
// every column must satisfy the strictly-ascending instance invariant the
// block readers binary-search on.
func TestMappedCacheModesAgree(t *testing.T) {
	img := sampleCacheImage(t)
	modes := openModes(t, img)
	ref := modes["bytes"]
	defer func() {
		for _, m := range modes {
			m.Close()
		}
	}()

	nnz := ref.NNZ()
	refInst := make([]uint32, nnz)
	refBins := make([]uint16, nnz)
	for name, m := range modes {
		if m.Rows() != ref.Rows() || m.Cols() != ref.Cols() || m.NNZ() != nnz {
			t.Fatalf("%s: shape %dx%d/%d, want %dx%d/%d", name,
				m.Rows(), m.Cols(), m.NNZ(), ref.Rows(), ref.Cols(), nnz)
		}
		if m.Fingerprint() != ref.Fingerprint() {
			t.Fatalf("%s: fingerprint %q, want %q", name, m.Fingerprint(), ref.Fingerprint())
		}
	}
	ds := ref.Dataset()
	instBuf := make([]uint32, nnz)
	binBuf := make([]uint16, nnz)
	for j := 0; j < ref.Cols(); j++ {
		lo, hi := ref.ColRange(j)
		if got := hi - lo; got != ds.Prebin.FeatCount[j] {
			t.Fatalf("column %d holds %d entries, FeatCount says %d", j, got, ds.Prebin.FeatCount[j])
		}
		ri, rb, err := ref.Entries(lo, hi, refInst, refBins)
		if err != nil {
			t.Fatalf("column %d reference read: %v", j, err)
		}
		for k := 1; k < len(ri); k++ {
			if ri[k] <= ri[k-1] {
				t.Fatalf("column %d instances not strictly ascending at %d", j, k)
			}
		}
		for name, m := range modes {
			clo, chi := m.ColRange(j)
			if clo != lo || chi != hi {
				t.Fatalf("%s: column %d range [%d,%d), want [%d,%d)", name, j, clo, chi, lo, hi)
			}
			gi, gb, err := m.Entries(lo, hi, instBuf, binBuf)
			if err != nil {
				t.Fatalf("%s: column %d read: %v", name, j, err)
			}
			for k := range ri {
				if gi[k] != ri[k] || gb[k] != rb[k] {
					t.Fatalf("%s: column %d entry %d = (%d,%d), want (%d,%d)",
						name, j, k, gi[k], gb[k], ri[k], rb[k])
				}
			}
			// Every stored entry must be findable; SearchInst must bracket
			// the column.
			for k, inst := range ri {
				bin, found, err := m.LookupInst(lo, hi, inst)
				if err != nil || !found || bin != rb[k] {
					t.Fatalf("%s: lookup(%d,%d) = (%d,%v,%v), want (%d,true,nil)",
						name, j, inst, bin, found, err, rb[k])
				}
			}
			if pos, err := m.SearchInst(lo, hi, 0); err != nil || pos != lo {
				t.Fatalf("%s: search start = %d,%v want %d", name, pos, err, lo)
			}
			if pos, err := m.SearchInst(lo, hi, uint32(m.Rows())); err != nil || pos != hi {
				t.Fatalf("%s: search end = %d,%v want %d", name, pos, err, hi)
			}
		}
	}
	// An instance absent from a column reads as missing, not as garbage.
	for j := 0; j < ref.Cols(); j++ {
		lo, hi := ref.ColRange(j)
		ri, _, err := ref.Entries(lo, hi, refInst, refBins)
		if err != nil {
			t.Fatal(err)
		}
		present := map[uint32]bool{}
		for _, inst := range ri {
			present[inst] = true
		}
		for inst := uint32(0); inst < uint32(ref.Rows()); inst++ {
			if present[inst] {
				continue
			}
			if _, found, err := ref.LookupInst(lo, hi, inst); err != nil || found {
				t.Fatalf("column %d: absent instance %d reported present (err %v)", j, inst, err)
			}
			break
		}
	}
}

// TestMappedCacheEveryTruncationRejected cuts the image at every byte:
// open-time validation (header cross-check, checksum, column invariants)
// must reject each prefix with a wrapped ErrCacheCorrupt or a version
// mismatch — never a panic, never a working view.
func TestMappedCacheEveryTruncationRejected(t *testing.T) {
	img := sampleCacheImage(t)
	for cut := 0; cut < len(img); cut++ {
		m, err := MapCacheBytes(img[:cut], "trunc")
		if err == nil {
			m.Close()
			t.Fatalf("truncation at %d of %d accepted", cut, len(img))
		}
		var mismatch *CacheMismatchError
		if !errors.Is(err, ErrCacheCorrupt) && !errors.As(err, &mismatch) {
			t.Fatalf("truncation at %d: error does not wrap ErrCacheCorrupt: %v", cut, err)
		}
	}
	m, err := MapCacheBytes(img, "whole")
	if err != nil {
		t.Fatalf("untruncated image rejected: %v", err)
	}
	m.Close()
}

// TestMappedCacheBitFlipRejected flips one payload bit: the open-time
// checksum pass must catch it in both access modes.
func TestMappedCacheBitFlipRejected(t *testing.T) {
	img := sampleCacheImage(t)
	bad := append([]byte(nil), img...)
	bad[vbinHeaderSize+len(bad)/2] ^= 0x10
	path := writeCacheImage(t, bad)
	for _, disable := range []bool{false, true} {
		_, err := mapCacheFile(path, !disable)
		if !errors.Is(err, ErrCacheCorrupt) || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("disableMmap=%v: bit flip: %v", disable, err)
		}
	}
}

// TestMappedCacheForgedHeaderRejected forges oversized dimensions: the
// header sits outside the checksum, so the view must cross-check it
// against the file size before any allocation of the claimed magnitude.
func TestMappedCacheForgedHeaderRejected(t *testing.T) {
	img := sampleCacheImage(t)
	for _, off := range []int{8, 16, 24} { // rows, cols, nnz
		bad := append([]byte(nil), img...)
		binary.LittleEndian.PutUint64(bad[off:], 1<<39)
		if _, err := MapCacheBytes(bad, "forged"); !errors.Is(err, ErrCacheCorrupt) {
			t.Fatalf("offset %d forged to 1<<39: %v", off, err)
		}
	}
}

// TestMappedCacheFailpoint arms ingest.mmap.read: block reads on an open
// view must fail with an error wrapping both ErrCacheCorrupt and the
// injected failure — in both access modes — and recover once disarmed.
// Open-time validation is deliberately outside the failpoint, so arming
// it does not prevent opening.
func TestMappedCacheFailpoint(t *testing.T) {
	defer failpoint.Reset()
	img := sampleCacheImage(t)
	path := writeCacheImage(t, img)
	for _, disable := range []bool{false, true} {
		m, err := mapCacheFile(path, !disable)
		if err != nil {
			t.Fatal(err)
		}
		if err := failpoint.Enable(FailpointMmapRead, "error"); err != nil {
			t.Fatal(err)
		}
		lo, hi := m.ColRange(0)
		instBuf := make([]uint32, hi-lo)
		binBuf := make([]uint16, hi-lo)
		if _, _, err := m.Entries(lo, hi, instBuf, binBuf); !errors.Is(err, ErrCacheCorrupt) || !errors.Is(err, failpoint.ErrInjected) {
			t.Fatalf("disableMmap=%v: Entries under failpoint: %v", disable, err)
		}
		if _, err := m.SearchInst(lo, hi, 0); !errors.Is(err, ErrCacheCorrupt) || !errors.Is(err, failpoint.ErrInjected) {
			t.Fatalf("disableMmap=%v: SearchInst under failpoint: %v", disable, err)
		}
		if _, _, err := m.LookupInst(lo, hi, 0); !errors.Is(err, ErrCacheCorrupt) || !errors.Is(err, failpoint.ErrInjected) {
			t.Fatalf("disableMmap=%v: LookupInst under failpoint: %v", disable, err)
		}
		failpoint.Reset()
		if _, _, err := m.Entries(lo, hi, instBuf, binBuf); err != nil {
			t.Fatalf("disableMmap=%v: disarmed read failed: %v", disable, err)
		}
		m.Close()
	}
}
