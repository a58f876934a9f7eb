package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"vero/internal/datasets"
	"vero/internal/failpoint"
	"vero/internal/sparse"
)

// The .vbin binned binary cache format, version 1. All integers are
// little-endian; the byte-level specification lives in docs/DATA.md.
//
// A 64-byte header is followed by seven payload sections at offsets
// computable from the header alone (an mmap-friendly property: every
// section is a fixed-width array):
//
//	split counts   cols      x uint32
//	split values   sum(cnt)  x float32
//	feature counts cols      x uint64
//	colPtr         cols+1    x uint64
//	instances      nnz       x uint32
//	bins           nnz       x binWidth bytes
//	labels         rows      x float32
const (
	vbinMagic      = "VBIN"
	vbinVersion    = 1
	vbinHeaderSize = 64
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCacheCorrupt marks a .vbin image rejected for structural corruption
// — truncation, checksum mismatch, out-of-range section tables. Every
// such rejection wraps it, so callers distinguish "rebuild the cache"
// from I/O errors with errors.Is.
var ErrCacheCorrupt = errors.New("ingest: cache corrupt")

// corruptf wraps ErrCacheCorrupt with the specific structural complaint.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrCacheCorrupt, fmt.Sprintf(format, args...))
}

// Failpoint names of the ingest seams (see internal/failpoint).
const (
	// FailpointReadCache fails a .vbin cache read.
	FailpointReadCache = "ingest.readcache"
	// FailpointParseBlock fails one parsed block inside the scan worker
	// pool ("N*error" fails the Nth block in arrival order).
	FailpointParseBlock = "ingest.parseblock"
)

// CacheMismatchError marks a structurally valid cache whose parameters
// (version, sketch eps, q, class count) do not match what the caller
// needs. Callers treat it as a miss and rebuild.
type CacheMismatchError struct{ Reason string }

// Error implements error.
func (e *CacheMismatchError) Error() string { return "ingest: cache mismatch: " + e.Reason }

// WriteCache bins the dataset with its prebin's candidate splits and
// writes the .vbin image. The prebin is required: it carries the splits
// the cache stores and the (eps, q) identity of the binning.
func WriteCache(w io.Writer, ds *datasets.Dataset, pb *datasets.Prebin) error {
	if pb == nil {
		return fmt.Errorf("ingest: cache write requires a prebin (see Ingest or Prebinned)")
	}
	if len(pb.Splits) != ds.NumFeatures() || len(pb.FeatCount) != ds.NumFeatures() {
		return fmt.Errorf("ingest: prebin covers %d features, dataset has %d", len(pb.Splits), ds.NumFeatures())
	}
	return writeImage(w, ds.Labels, ds.NumClass, sparse.TransposeCSR(ds.X, runtime.GOMAXPROCS(0)), pb, runtime.GOMAXPROCS(0))
}

// writeImage writes the .vbin image of the matrix with the given labels
// from its transposition c. The columns are binned on workers goroutines
// straight into the bins section, the instance section is c's own
// instance column, and the sections are checksummed and written where
// they lie: no payload buffer is assembled.
func writeImage(w io.Writer, labels []float32, numClass int, c *sparse.CSC, pb *datasets.Prebin, workers int) error {
	rows, cols, nnz := len(labels), len(pb.Splits), c.NNZ()
	splitsTotal, binWidth := 0, 1
	for _, s := range pb.Splits {
		splitsTotal += len(s)
		if len(s) > 1<<8 {
			binWidth = 2
		}
	}
	tail := make([]byte, binWidth*nnz+4*rows) // bins section, then labels section
	sparse.EachColumn(c.ColPtr, workers, func(f int) {
		binner := sparse.Binner{Splits: pb.Splits[f : f+1]}
		lo := c.ColPtr[f]
		_, vals := c.Col(f)
		for k, v := range vals {
			if b := binner.BinValue(0, v); binWidth == 1 {
				tail[lo+int64(k)] = byte(b)
			} else {
				binary.LittleEndian.PutUint16(tail[2*(lo+int64(k)):], b)
			}
		}
	})
	for i, y := range labels {
		binary.LittleEndian.PutUint32(tail[binWidth*nnz+4*i:], math.Float32bits(y))
	}
	head := make([]byte, 0, 4*cols+4*splitsTotal+8*cols+8*(cols+1))
	for _, s := range pb.Splits {
		head = binary.LittleEndian.AppendUint32(head, uint32(len(s)))
	}
	for _, s := range pb.Splits {
		for _, v := range s {
			head = binary.LittleEndian.AppendUint32(head, math.Float32bits(v))
		}
	}
	for _, n := range pb.FeatCount {
		head = binary.LittleEndian.AppendUint64(head, uint64(n))
	}
	for _, p := range c.ColPtr {
		head = binary.LittleEndian.AppendUint64(head, uint64(p))
	}
	inst := u32ByteView(c.Inst)
	if !hostLittleEndian {
		inst = make([]byte, 0, 4*nnz)
		for _, i := range c.Inst {
			inst = binary.LittleEndian.AppendUint32(inst, i)
		}
	}

	header := make([]byte, vbinHeaderSize)
	copy(header, vbinMagic)
	binary.LittleEndian.PutUint32(header[4:], vbinVersion)
	binary.LittleEndian.PutUint64(header[8:], uint64(rows))
	binary.LittleEndian.PutUint64(header[16:], uint64(cols))
	binary.LittleEndian.PutUint64(header[24:], uint64(nnz))
	binary.LittleEndian.PutUint32(header[32:], uint32(numClass))
	binary.LittleEndian.PutUint32(header[36:], uint32(pb.Q))
	binary.LittleEndian.PutUint64(header[40:], math.Float64bits(pb.SketchEps))
	binary.LittleEndian.PutUint32(header[48:], uint32(binWidth))
	binary.LittleEndian.PutUint32(header[52:], crc32.Update(crc32.Update(crc32.Checksum(head, crcTable), crcTable, inst), crcTable, tail))
	for _, sec := range [][]byte{header, head, inst, tail} {
		if _, err := w.Write(sec); err != nil {
			return fmt.Errorf("ingest: cache write: %w", err)
		}
	}
	return nil
}

// WriteCacheFile writes the cache atomically: a temp file in the target
// directory, then a rename, so concurrent readers never see a torn image.
func WriteCacheFile(path string, ds *datasets.Dataset, pb *datasets.Prebin) error {
	return writeFileAtomic(path, func(w io.Writer) error { return WriteCache(w, ds, pb) })
}

// writeFileAtomic writes path through a temp file and a rename.
func writeFileAtomic(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("ingest: cache write: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("ingest: cache write: %w", err)
	}
	return os.Rename(tmp.Name(), path)
}

// vbinHeader is the decoded 64-byte .vbin header. The header sits outside
// the payload checksum, so every field here has passed only plausibility
// checks — sizes must still be cross-checked against the real payload
// length (checkPayloadSize) before allocation.
type vbinHeader struct {
	rows, cols int
	nnz        int64
	numClass   int
	q          int
	eps        float64
	binWidth   int
	crc        uint32
}

// parseVbinHeader validates a 64-byte header prefix: magic, version,
// dimension plausibility and bin width. It reads nothing beyond buf, so
// callers can reject corrupt or forged headers from a capped prefix read
// without allocating room for the claimed payload.
func parseVbinHeader(buf []byte) (vbinHeader, error) {
	var h vbinHeader
	if len(buf) < vbinHeaderSize || string(buf[:4]) != vbinMagic {
		return h, corruptf("not a .vbin cache (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != vbinVersion {
		return h, &CacheMismatchError{Reason: fmt.Sprintf("cache version %d, want %d", v, vbinVersion)}
	}
	rows64 := binary.LittleEndian.Uint64(buf[8:])
	cols64 := binary.LittleEndian.Uint64(buf[16:])
	nnz64 := binary.LittleEndian.Uint64(buf[24:])
	// The header is outside the checksum's reach of plausibility: bound the
	// dimensions before any size arithmetic or allocation can overflow. The
	// exact per-section length checks downstream do the rest.
	const maxDim = 1 << 40
	if rows64 > maxDim || cols64 > maxDim || nnz64 > maxDim {
		return h, corruptf("implausible shape %dx%d, nnz %d", rows64, cols64, nnz64)
	}
	h.rows = int(rows64)
	h.cols = int(cols64)
	h.nnz = int64(nnz64)
	h.numClass = int(binary.LittleEndian.Uint32(buf[32:]))
	h.q = int(binary.LittleEndian.Uint32(buf[36:]))
	h.eps = math.Float64frombits(binary.LittleEndian.Uint64(buf[40:]))
	h.binWidth = int(binary.LittleEndian.Uint32(buf[48:]))
	h.crc = binary.LittleEndian.Uint32(buf[52:])
	if h.binWidth != 1 && h.binWidth != 2 {
		return h, corruptf("bin width %d", h.binWidth)
	}
	return h, nil
}

// minPayload is the smallest payload length consistent with the header
// (the split-values section has unknown length until the split counts are
// decoded, so this is a lower bound).
func (h vbinHeader) minPayload() int64 {
	c := int64(h.cols)
	return 4*c + 8*c + 8*(c+1) + 4*h.nnz + int64(h.binWidth)*h.nnz + 4*int64(h.rows)
}

// checkPayloadSize cross-checks the header's claimed shape against the
// actual payload size: the checksum covers only the payload, so a corrupt
// header claiming huge dimensions must be rejected here, not discovered
// inside a multi-GB allocation further down.
func (h vbinHeader) checkPayloadSize(payloadLen int64) error {
	if payloadLen < h.minPayload() {
		return corruptf("header claims shape %dx%d with %d nonzeros (needs >= %d payload bytes), file holds %d",
			h.rows, h.cols, h.nnz, h.minPayload(), payloadLen)
	}
	return nil
}

// ReadCache decodes a .vbin image into a dataset whose values are bin
// representatives (the upper boundary of each value's bin, which re-bins
// to the identical bin index) and whose Prebin carries the cached splits
// with Quantized set. Training the result with the cache's (eps, q)
// yields a model bit-identical to training from the original source.
//
// The 64-byte header is read and validated on its own before the payload:
// a corrupt or forged header fails from the prefix read alone, without
// the reader ever being asked for (or memory allocated for) the body. The
// image is then opened as a view (MapCacheBytes — the one decoder, with
// all its checks) and materialized whole; the dataset aliases none of the
// bytes read.
func ReadCache(r io.Reader, name string) (*datasets.Dataset, error) {
	if err := failpoint.Inject(FailpointReadCache); err != nil {
		return nil, fmt.Errorf("ingest: cache read: %w", err)
	}
	img := make([]byte, vbinHeaderSize)
	if n, err := io.ReadFull(r, img); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// A sub-header prefix can never parse; report whichever
			// structural complaint the partial header earns.
			_, herr := parseVbinHeader(img[:n])
			return nil, herr
		}
		return nil, fmt.Errorf("ingest: cache read: %w", err)
	}
	if _, err := parseVbinHeader(img); err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(img)
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("ingest: cache read: %w", err)
	}
	m, err := MapCacheBytes(buf.Bytes(), name)
	if err != nil {
		return nil, err
	}
	return shardFromView(m, "", 0, 1)
}

// ReadCacheFile reads a .vbin cache from disk; the dataset is named after
// the file. The file is mapped (or, where mapping is unavailable, read
// positionally), validated against its real size before anything is
// allocated for the body, materialized, and released again before the
// dataset is returned.
func ReadCacheFile(path string) (*datasets.Dataset, error) {
	if err := failpoint.Inject(FailpointReadCache); err != nil {
		return nil, fmt.Errorf("ingest: cache read: %w", err)
	}
	m, err := MapCacheFile(path)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return shardFromView(m, "", 0, 1)
}
