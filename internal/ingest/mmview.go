package ingest

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"unsafe"

	"vero/internal/datasets"
	"vero/internal/failpoint"
)

// FailpointMmapRead fails a block read on a mapped .vbin view
// (MappedCache.Entries / SearchInst / LookupInst). The injected failure
// surfaces as an ErrCacheCorrupt-wrapped error so out-of-core training
// aborts with a descriptive message instead of crashing mid-train.
const FailpointMmapRead = "ingest.mmap.read"

// hostLittleEndian reports whether this machine stores integers
// little-endian — the .vbin wire order. Only then can mapped sections be
// reinterpreted in place; otherwise every read decodes through scratch.
var hostLittleEndian = func() bool {
	var x uint16 = 0x0102
	return *(*byte)(unsafe.Pointer(&x)) == 0x02
}()

// MappedCache is a read-only, out-of-core view over a .vbin cache image.
//
// Opening decodes only the O(cols+rows) metadata sections — split tables,
// feature counts, column pointers and labels — onto the heap, and verifies
// the payload checksum plus the structural invariants of the O(nnz)
// instance/bin sections in one streaming pass. The instance and bin arrays
// themselves stay on disk: they are either memory-mapped (and, on
// little-endian hosts, reinterpreted in place with zero copies) or served
// by positional reads into caller-provided scratch. Resident memory is
// therefore bounded by the metadata plus whatever scratch the caller
// passes to Entries, no matter how large the cache is.
//
// MappedCache implements datasets.BlockSource. All accessor methods are
// safe for concurrent use; Close must not race with them.
type MappedCache struct {
	name string
	f    *os.File // nil for byte-image views
	hdr  vbinHeader

	mapped  []byte // whole-file image (mmap or caller bytes); nil in pread mode
	ownsMap bool   // whether Close must munmap

	// Decoded metadata (heap-resident, O(cols+rows)).
	splits    [][]float32
	featCount []int64
	colPtr    []int64
	labels    []float32
	task      datasets.Task

	// Absolute file offsets of the on-disk sections.
	instOff int64
	binsOff int64

	// Zero-copy reinterpretations of the mapped sections, available only
	// on little-endian hosts with the expected (guaranteed) alignment.
	instView []uint32
	binsView []uint16 // binWidth == 2
	binsRaw  []byte   // binWidth == 1
}

// MapCacheFile opens a .vbin cache as an out-of-core view, preferring
// mmap and falling back to positional reads where mapping is unavailable.
func MapCacheFile(path string) (*MappedCache, error) {
	return mapCacheFile(path, true)
}

// mapCacheFile is MapCacheFile with the access mode chosen: useMmap false
// forces the positional-read (pread) path even where mapping is available,
// so the tests can hold both paths to the same decoded view.
func mapCacheFile(path string, useMmap bool) (*MappedCache, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	m := &MappedCache{
		name: strings.TrimSuffix(filepath.Base(path), filepath.Ext(path)),
		f:    f,
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ingest: cache map: %w", err)
	}
	if mmapAvailable && useMmap && st.Size() > 0 {
		if data, merr := mmapFile(f, st.Size()); merr == nil {
			m.mapped = data
			m.ownsMap = true
		}
		// On mmap failure fall through to pread silently: the view works
		// either way, mapping is only the faster path.
	}
	if err := m.open(st.Size()); err != nil {
		m.Close()
		return nil, err
	}
	return m, nil
}

// MapCacheBytes opens an in-memory .vbin image as a view. It exists for
// tests and for callers that already hold the image; no file is involved.
func MapCacheBytes(data []byte, name string) (*MappedCache, error) {
	m := &MappedCache{name: name, mapped: data}
	if err := m.open(int64(len(data))); err != nil {
		return nil, err
	}
	return m, nil
}

// Close releases the mapping and the underlying file. It is safe to call
// more than once, but must not race with in-flight reads.
func (m *MappedCache) Close() error {
	var err error
	if m.ownsMap && m.mapped != nil {
		err = munmapFile(m.mapped)
	}
	m.mapped = nil
	m.instView, m.binsView, m.binsRaw = nil, nil, nil
	m.ownsMap = false
	if m.f != nil {
		if cerr := m.f.Close(); err == nil {
			err = cerr
		}
		m.f = nil
	}
	return err
}

// open validates the image of the given total size and decodes the
// metadata sections. On return the view is ready for block reads.
func (m *MappedCache) open(size int64) error {
	var hbuf [vbinHeaderSize]byte
	if err := m.readRaw(hbuf[:], 0); err != nil {
		return err
	}
	h, err := parseVbinHeader(hbuf[:])
	if err != nil {
		return err
	}
	m.hdr = h
	payloadLen := size - vbinHeaderSize
	if err := h.checkPayloadSize(payloadLen); err != nil {
		return err
	}
	// The checksum covers the whole payload and comes first, so no section
	// is interpreted before the bytes are known to be the ones written.
	if err := m.verifyChecksum(payloadLen); err != nil {
		return err
	}

	// Split counts pin the one variable-length section; after them the
	// payload size must match the header exactly.
	counts := make([]uint32, h.cols)
	if err := m.readU32s(counts, vbinHeaderSize); err != nil {
		return err
	}
	var splitsTotal int64
	for f, c := range counts {
		// A bin index is binWidth bytes wide; the writer never stores more
		// splits than it can address.
		if int64(c) > 1<<(8*h.binWidth) {
			return corruptf("feature %d has %d splits, more than %d-byte bins address", f, c, h.binWidth)
		}
		splitsTotal += int64(c)
		if 4*splitsTotal > payloadLen {
			return corruptf("split table overruns payload")
		}
	}
	if want := h.minPayload() + 4*splitsTotal; payloadLen != want {
		return corruptf("payload is %d bytes, header implies %d", payloadLen, want)
	}

	// Section offsets (absolute). The instance section is always 4-aligned
	// and the bin section 2-aligned: every preceding section is a
	// fixed-width array of 4- or 8-byte elements (see docs/DATA.md).
	c64 := int64(h.cols)
	splitValsOff := int64(vbinHeaderSize) + 4*c64
	featCountOff := splitValsOff + 4*splitsTotal
	colPtrOff := featCountOff + 8*c64
	m.instOff = colPtrOff + 8*(c64+1)
	m.binsOff = m.instOff + 4*h.nnz
	labelsOff := m.binsOff + int64(h.binWidth)*h.nnz

	// Decode the O(cols+rows) metadata onto the heap.
	m.splits = make([][]float32, h.cols)
	{
		vals := make([]uint32, splitsTotal)
		if err := m.readU32s(vals, splitValsOff); err != nil {
			return err
		}
		off := 0
		for f, n := range counts {
			if n == 0 {
				continue
			}
			s := make([]float32, n)
			for k := range s {
				s[k] = math.Float32frombits(vals[off])
				off++
			}
			m.splits[f] = s
		}
	}
	m.featCount = make([]int64, h.cols)
	m.colPtr = make([]int64, h.cols+1)
	{
		raw := make([]uint64, h.cols)
		if err := m.readU64s(raw, featCountOff); err != nil {
			return err
		}
		for f, v := range raw {
			m.featCount[f] = int64(v)
		}
		raw = append(raw, 0)
		if err := m.readU64s(raw, colPtrOff); err != nil {
			return err
		}
		for j, v := range raw {
			m.colPtr[j] = int64(v)
		}
	}
	if m.colPtr[0] != 0 || m.colPtr[h.cols] != h.nnz {
		return corruptf("colPtr endpoints [%d,%d], want [0,%d]", m.colPtr[0], m.colPtr[h.cols], h.nnz)
	}
	for j := 0; j < h.cols; j++ {
		if m.colPtr[j] > m.colPtr[j+1] || m.colPtr[j+1] > h.nnz {
			return corruptf("colPtr not monotone at column %d", j)
		}
	}
	m.labels = make([]float32, h.rows)
	{
		raw := make([]uint32, h.rows)
		if err := m.readU32s(raw, labelsOff); err != nil {
			return err
		}
		for i, v := range raw {
			m.labels[i] = math.Float32frombits(v)
		}
	}
	switch {
	case h.numClass == 2:
		m.task = datasets.TaskBinary
	case h.numClass > 2:
		m.task = datasets.TaskMulti
	case h.numClass == 1:
		m.task = datasets.TaskRegression
	default:
		return corruptf("numClass %d", h.numClass)
	}

	m.setupViews()
	return m.validateColumns()
}

// verifyChecksum runs CRC-32C over the whole payload: directly on the
// image when mapped, in fixed-size chunks (O(1) memory) when reading
// positionally.
func (m *MappedCache) verifyChecksum(payloadLen int64) error {
	var got uint32
	if m.mapped != nil {
		got = crc32.Checksum(m.mapped[vbinHeaderSize:], crcTable)
	} else {
		buf := make([]byte, 1<<20)
		off := int64(vbinHeaderSize)
		remain := payloadLen
		for remain > 0 {
			n := int64(len(buf))
			if n > remain {
				n = remain
			}
			if err := m.readRaw(buf[:n], off); err != nil {
				return err
			}
			got = crc32.Update(got, crcTable, buf[:n])
			off += n
			remain -= n
		}
	}
	if got != m.hdr.crc {
		return corruptf("checksum %08x, want %08x", got, m.hdr.crc)
	}
	return nil
}

// setupViews installs zero-copy reinterpretations of the mapped instance
// and bin sections where byte order and alignment allow; reads fall back
// to decoding through scratch otherwise.
func (m *MappedCache) setupViews() {
	if m.mapped == nil {
		return
	}
	if m.hdr.binWidth == 1 {
		m.binsRaw = m.mapped[m.binsOff : m.binsOff+m.hdr.nnz]
	}
	if !hostLittleEndian {
		return
	}
	if m.hdr.nnz > 0 {
		inst := m.mapped[m.instOff : m.instOff+4*m.hdr.nnz]
		if uintptr(unsafe.Pointer(&inst[0]))%4 == 0 {
			m.instView = unsafe.Slice((*uint32)(unsafe.Pointer(&inst[0])), m.hdr.nnz)
		}
		if m.hdr.binWidth == 2 {
			bins := m.mapped[m.binsOff : m.binsOff+2*m.hdr.nnz]
			if uintptr(unsafe.Pointer(&bins[0]))%2 == 0 {
				m.binsView = unsafe.Slice((*uint16)(unsafe.Pointer(&bins[0])), m.hdr.nnz)
			}
		}
	}
}

// validateColumns streams the instance and bin sections once, checking
// per-column instance monotonicity (the invariant block reads binary-search
// on), instance range, and bin range against the split tables — the same
// guarantees ReadCache establishes while transposing.
func (m *MappedCache) validateColumns() error {
	const chunk = 32 << 10
	var instBuf []uint32
	var binBuf []uint16
	if m.instView == nil || (m.binsView == nil && m.binsRaw == nil) {
		instBuf = make([]uint32, chunk)
		binBuf = make([]uint16, chunk)
	} else {
		// Zero-copy views cover both sections; no scratch needed.
		instBuf = nil
		binBuf = make([]uint16, chunk)
	}
	rows := uint32(m.hdr.rows)
	for j := 0; j < m.hdr.cols; j++ {
		nb := len(m.splits[j])
		prev := int64(-1)
		for lo, hi := m.colPtr[j], m.colPtr[j+1]; lo < hi; {
			n := hi - lo
			if n > chunk {
				n = chunk
			}
			insts, bins, err := m.entriesRaw(lo, lo+n, instBuf, binBuf)
			if err != nil {
				return err
			}
			for k := range insts {
				if insts[k] >= rows {
					return corruptf("instance %d out of range (rows=%d)", insts[k], m.hdr.rows)
				}
				if int64(insts[k]) <= prev {
					return corruptf("column %d instances not strictly ascending at entry %d", j, lo+int64(k))
				}
				prev = int64(insts[k])
				if int(bins[k]) >= nb && !(nb == 0 && bins[k] == 0) {
					return corruptf("bin %d of feature %d out of range (%d bins)", bins[k], j, nb)
				}
			}
			lo += n
		}
	}
	return nil
}

// readRaw fills dst from the image at absolute offset off, copying from
// the mapped bytes or issuing a positional read. I/O failures wrap
// ErrCacheCorrupt so out-of-core training reports them uniformly.
func (m *MappedCache) readRaw(dst []byte, off int64) error {
	if len(dst) == 0 {
		return nil
	}
	if m.mapped != nil {
		if off < 0 || off+int64(len(dst)) > int64(len(m.mapped)) {
			return corruptf("read [%d,%d) beyond %d-byte image", off, off+int64(len(dst)), len(m.mapped))
		}
		copy(dst, m.mapped[off:])
		return nil
	}
	if _, err := m.f.ReadAt(dst, off); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return corruptf("%s: read [%d,%d) beyond end of file", m.name, off, off+int64(len(dst)))
		}
		return fmt.Errorf("%w: %s: read at offset %d: %v", ErrCacheCorrupt, m.name, off, err)
	}
	return nil
}

// u32ByteView reinterprets a uint32 slice as its backing bytes.
func u32ByteView(s []uint32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

// u16ByteView reinterprets a uint16 slice as its backing bytes.
func u16ByteView(s []uint16) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 2*len(s))
}

// u64ByteView reinterprets a uint64 slice as its backing bytes.
func u64ByteView(s []uint64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 8*len(s))
}

// readU32s fills dst with little-endian uint32s from absolute offset off.
func (m *MappedCache) readU32s(dst []uint32, off int64) error {
	raw := u32ByteView(dst)
	if err := m.readRaw(raw, off); err != nil {
		return err
	}
	if !hostLittleEndian {
		for k := range dst {
			dst[k] = binary.LittleEndian.Uint32(raw[4*k:])
		}
	}
	return nil
}

// readU16s fills dst with little-endian uint16s from absolute offset off.
func (m *MappedCache) readU16s(dst []uint16, off int64) error {
	raw := u16ByteView(dst)
	if err := m.readRaw(raw, off); err != nil {
		return err
	}
	if !hostLittleEndian {
		for k := range dst {
			dst[k] = binary.LittleEndian.Uint16(raw[2*k:])
		}
	}
	return nil
}

// readU64s fills dst with little-endian uint64s from absolute offset off.
func (m *MappedCache) readU64s(dst []uint64, off int64) error {
	raw := u64ByteView(dst)
	if err := m.readRaw(raw, off); err != nil {
		return err
	}
	if !hostLittleEndian {
		for k := range dst {
			dst[k] = binary.LittleEndian.Uint64(raw[8*k:])
		}
	}
	return nil
}

// injectRead is the ingest.mmap.read failpoint seam shared by the block
// accessors; an injected fault reads as cache corruption to the trainer.
func (m *MappedCache) injectRead() error {
	if err := failpoint.Inject(FailpointMmapRead); err != nil {
		return fmt.Errorf("%w: %s: mapped view read failed: %w", ErrCacheCorrupt, m.name, err)
	}
	return nil
}

// Rows returns the number of instances.
func (m *MappedCache) Rows() int { return m.hdr.rows }

// Cols returns the number of features.
func (m *MappedCache) Cols() int { return m.hdr.cols }

// NNZ returns the number of stored (instance, bin) entries.
func (m *MappedCache) NNZ() int64 { return m.hdr.nnz }

// ColRange returns the half-open entry range [lo, hi) of column col in
// the global entry space.
func (m *MappedCache) ColRange(col int) (lo, hi int64) {
	return m.colPtr[col], m.colPtr[col+1]
}

// Entries materializes the entry range [lo, hi): instance ids and bin
// indexes in on-disk order (ascending instance within a column). The
// returned slices are either zero-copy views into the mapping — valid
// until Close, and must not be modified — or the provided scratch buffers
// filled by positional reads; callers must size the scratch to at least
// hi-lo entries unless views are guaranteed. Entries is safe for
// concurrent use with distinct scratch.
func (m *MappedCache) Entries(lo, hi int64, instBuf []uint32, binBuf []uint16) ([]uint32, []uint16, error) {
	if err := m.injectRead(); err != nil {
		return nil, nil, err
	}
	if lo < 0 || lo > hi || hi > m.hdr.nnz {
		return nil, nil, fmt.Errorf("ingest: entry range [%d,%d) outside [0,%d)", lo, hi, m.hdr.nnz)
	}
	return m.entriesRaw(lo, hi, instBuf, binBuf)
}

// entriesRaw is Entries without the failpoint and range validation; open
// -time validation uses it directly so armed failpoints count only
// training-time block reads.
func (m *MappedCache) entriesRaw(lo, hi int64, instBuf []uint32, binBuf []uint16) ([]uint32, []uint16, error) {
	n := int(hi - lo)
	var insts []uint32
	if m.instView != nil {
		insts = m.instView[lo:hi]
	} else {
		if len(instBuf) < n {
			return nil, nil, fmt.Errorf("ingest: instance scratch holds %d entries, need %d", len(instBuf), n)
		}
		insts = instBuf[:n]
		if err := m.readU32s(insts, m.instOff+4*lo); err != nil {
			return nil, nil, err
		}
	}
	var bins []uint16
	switch {
	case m.binsView != nil:
		bins = m.binsView[lo:hi]
	case len(binBuf) < n:
		return nil, nil, fmt.Errorf("ingest: bin scratch holds %d entries, need %d", len(binBuf), n)
	case m.binsRaw != nil:
		bins = binBuf[:n]
		for k, b := range m.binsRaw[lo:hi] {
			bins[k] = uint16(b)
		}
	case m.hdr.binWidth == 2:
		bins = binBuf[:n]
		if err := m.readU16s(bins, m.binsOff+2*lo); err != nil {
			return nil, nil, err
		}
	default:
		// pread, 1-byte bins: stage the raw bytes in the upper half of the
		// scratch's byte view, then widen forward in place. Writing entry k
		// touches bytes [2k, 2k+1], always below the unread stage byte n+k'.
		bins = binBuf[:n]
		raw := u16ByteView(bins)
		stage := raw[n : 2*n]
		if err := m.readRaw(stage, m.binsOff+lo); err != nil {
			return nil, nil, err
		}
		for k := 0; k < n; k++ {
			bins[k] = uint16(stage[k])
		}
	}
	return insts, bins, nil
}

// instAt reads the instance id at entry position pos.
func (m *MappedCache) instAt(pos int64) (uint32, error) {
	if m.instView != nil {
		return m.instView[pos], nil
	}
	if m.mapped != nil {
		return binary.LittleEndian.Uint32(m.mapped[m.instOff+4*pos:]), nil
	}
	var b [4]byte
	if err := m.readRaw(b[:], m.instOff+4*pos); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}

// binAt reads the bin index at entry position pos.
func (m *MappedCache) binAt(pos int64) (uint16, error) {
	switch {
	case m.binsView != nil:
		return m.binsView[pos], nil
	case m.binsRaw != nil:
		return uint16(m.binsRaw[pos]), nil
	case m.mapped != nil && m.hdr.binWidth == 2:
		return binary.LittleEndian.Uint16(m.mapped[m.binsOff+2*pos:]), nil
	}
	var b [2]byte
	if err := m.readRaw(b[:m.hdr.binWidth], m.binsOff+int64(m.hdr.binWidth)*pos); err != nil {
		return 0, err
	}
	if m.hdr.binWidth == 1 {
		return uint16(b[0]), nil
	}
	return binary.LittleEndian.Uint16(b[:]), nil
}

// searchInst is SearchInst without the failpoint.
func (m *MappedCache) searchInst(lo, hi int64, inst uint32) (int64, error) {
	for lo < hi {
		mid := lo + (hi-lo)/2
		v, err := m.instAt(mid)
		if err != nil {
			return 0, err
		}
		if v < inst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, nil
}

// SearchInst returns the first position in [lo, hi) whose instance id is
// >= inst (hi if none). The range must lie within one column, where
// instance ids are strictly ascending.
func (m *MappedCache) SearchInst(lo, hi int64, inst uint32) (int64, error) {
	if err := m.injectRead(); err != nil {
		return 0, err
	}
	return m.searchInst(lo, hi, inst)
}

// LookupInst binary-searches [lo, hi) — which must lie within one column —
// for an entry of instance inst, returning its bin and whether it exists.
func (m *MappedCache) LookupInst(lo, hi int64, inst uint32) (uint16, bool, error) {
	if err := m.injectRead(); err != nil {
		return 0, false, err
	}
	pos, err := m.searchInst(lo, hi, inst)
	if err != nil {
		return 0, false, err
	}
	if pos >= hi {
		return 0, false, nil
	}
	v, err := m.instAt(pos)
	if err != nil {
		return 0, false, err
	}
	if v != inst {
		return 0, false, nil
	}
	b, err := m.binAt(pos)
	return b, err == nil, err
}

// Fingerprint identifies the image for checkpoint validation: payload
// checksum plus shape.
func (m *MappedCache) Fingerprint() string {
	return fmt.Sprintf("vbin:%08x:%dx%d:%d", m.hdr.crc, m.hdr.rows, m.hdr.cols, m.hdr.nnz)
}

// Dataset wraps the view as an out-of-core dataset: X is nil, Blocks
// serves the binned matrix, and the Prebin carries the cached splits with
// Quantized set (training adopts them exactly as warm-cache datasets do).
// Closing the view invalidates the dataset.
func (m *MappedCache) Dataset() *datasets.Dataset {
	return &datasets.Dataset{
		Name:     m.name,
		Labels:   m.labels,
		NumClass: m.hdr.numClass,
		Task:     m.task,
		Blocks:   m,
		Prebin: &datasets.Prebin{
			SketchEps: m.hdr.eps,
			Q:         m.hdr.q,
			Splits:    m.splits,
			FeatCount: m.featCount,
			Quantized: true,
		},
	}
}
