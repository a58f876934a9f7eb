package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vero/internal/datasets"
	"vero/internal/failpoint"
	"vero/internal/partition"
	"vero/internal/sparse"
)

// serialShardFromView is the warm transposition before row blocks: one
// serial count pass and one serial fill pass over the selected columns,
// every entry scattered to its row's cursor across the whole output. It is
// kept, frozen, as the referee of shardFromView.
func serialShardFromView(m *MappedCache, kind datasets.ShardKind, rank, workers int) (*datasets.Dataset, error) {
	rows, cols := m.Rows(), m.Cols()
	selLo := make([]int64, cols)
	selHi := make([]int64, cols)
	var shard *datasets.Shard
	if kind != "" {
		shard = &datasets.Shard{
			Kind:        kind,
			Rank:        rank,
			Workers:     workers,
			Fingerprint: m.Fingerprint(),
			GlobalNNZ:   m.NNZ(),
		}
	}
	switch kind {
	case "":
		for j := 0; j < cols; j++ {
			selLo[j], selHi[j] = m.ColRange(j)
		}
	case datasets.ShardRows:
		r := partition.HorizontalRanges(rows, workers)[rank]
		for j := 0; j < cols; j++ {
			var err error
			if selLo[j], selHi[j], err = datasets.RowSpan(m, j, r[0], r[1]); err != nil {
				return nil, err
			}
		}
	case datasets.ShardCols:
		groups := partition.GroupColumnsBalanced(m.featCount, workers)
		for _, f := range groups[rank] {
			selLo[f], selHi[f] = m.ColRange(f)
		}
		shard.GroupNNZ = make([][]int64, workers)
		for s, r := range partition.HorizontalRanges(rows, workers) {
			var err error
			if shard.GroupNNZ[s], err = partition.RangeGroupNNZ(m, r[0], r[1], groups); err != nil {
				return nil, err
			}
		}
	}

	instBuf := make([]uint32, shardChunk)
	binBuf := make([]uint16, shardChunk)
	rowCnt := make([]int64, rows+1)
	var localNNZ int64
	for j := 0; j < cols; j++ {
		for lo, hi := selLo[j], selHi[j]; lo < hi; {
			n := min(hi-lo, shardChunk)
			insts, _, err := m.Entries(lo, lo+n, instBuf, binBuf)
			if err != nil {
				return nil, err
			}
			for _, i := range insts {
				rowCnt[i+1]++
			}
			localNNZ += n
			lo += n
		}
	}
	rowPtr := make([]int64, rows+1)
	for i := 0; i < rows; i++ {
		rowPtr[i+1] = rowPtr[i] + rowCnt[i+1]
	}

	feat := make([]uint32, localNNZ)
	val := make([]float32, localNNZ)
	next := make([]int64, rows)
	copy(next, rowPtr[:rows])
	nan := float32(math.NaN())
	for j := 0; j < cols; j++ {
		s := m.splits[j]
		for lo, hi := selLo[j], selHi[j]; lo < hi; {
			n := min(hi-lo, shardChunk)
			insts, bins, err := m.Entries(lo, lo+n, instBuf, binBuf)
			if err != nil {
				return nil, err
			}
			for k, i := range insts {
				p := next[i]
				feat[p] = uint32(j)
				if int(bins[k]) < len(s) {
					val[p] = s[bins[k]]
				} else if len(s) == 0 && bins[k] == 0 {
					val[p] = nan
				} else {
					return nil, corruptf("bin %d of feature %d out of range (%d bins)", bins[k], j, len(s))
				}
				next[i] = p + 1
			}
			lo += n
		}
	}
	x, err := sparse.NewCSR(rows, cols, rowPtr, feat, val)
	if err != nil {
		return nil, corruptf("%v", err)
	}
	ds := m.Dataset()
	ds.X = x
	ds.Blocks = nil
	ds.Shard = shard
	return ds, nil
}

// sameLoad fails unless got is want bit for bit: the row pointers, the
// feature indices, the value bits, the shard description and the
// replicated labels and prebin.
func sameLoad(t *testing.T, what string, got, want *datasets.Dataset) {
	t.Helper()
	if got.X.Rows() != want.X.Rows() || got.X.Cols() != want.X.Cols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.X.Rows(), got.X.Cols(), want.X.Rows(), want.X.Cols())
	}
	if !slices.Equal(got.X.RowPtr, want.X.RowPtr) {
		t.Fatalf("%s: RowPtr differs from the serial transposition's", what)
	}
	if !slices.Equal(got.X.Feat, want.X.Feat) {
		t.Fatalf("%s: Feat differs from the serial transposition's", what)
	}
	for k := range want.X.Val {
		if math.Float32bits(got.X.Val[k]) != math.Float32bits(want.X.Val[k]) {
			t.Fatalf("%s: value %d is %v, the serial transposition's %v", what, k, got.X.Val[k], want.X.Val[k])
		}
	}
	if !reflect.DeepEqual(got.Shard, want.Shard) {
		t.Fatalf("%s: shard %+v, want %+v", what, got.Shard, want.Shard)
	}
	if !reflect.DeepEqual(got.Labels, want.Labels) || !reflect.DeepEqual(got.Prebin, want.Prebin) {
		t.Fatalf("%s: labels or prebin differ from the serial transposition's", what)
	}
}

// warmShape is a synthetic image for the warm-load tests: rows × cols
// entries present with probability density, binned with (eps, q). Column
// empty holds no entry and column allNaN only NaNs (-1: none of either).
type warmShape struct {
	name          string
	rows, cols    int
	density       float64
	eps           float64
	q             int
	empty, allNaN int
	// minBlocks is the fewest row blocks the image must be cut into; above
	// one, the last block must be partial.
	minBlocks int
}

var warmShapes = []warmShape{
	{name: "ragged", rows: 9001, cols: 24, density: 0.3, empty: -1, allNaN: -1, minBlocks: 4},
	{name: "fewer-rows-than-workers", rows: 3, cols: 6, density: 0.6, empty: -1, allNaN: -1, minBlocks: 1},
	{name: "single-feature", rows: 50001, cols: 1, density: 0.5, empty: -1, allNaN: -1, minBlocks: 2},
	{name: "empty-and-nan-columns", rows: 7001, cols: 12, density: 0.4, empty: 4, allNaN: 7, minBlocks: 2},
	{name: "bin-width-2", rows: 6007, cols: 8, density: 0.9, eps: 0.001, q: 300, empty: -1, allNaN: -1, minBlocks: 3},
}

// warmImage ingests the shape's LibSVM text and writes its .vbin image
// under dir.
func warmImage(t testing.TB, dir string, sh warmShape) string {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(sh.rows*31 + sh.cols)))
	var sb strings.Builder
	for i := 0; i < sh.rows; i++ {
		sb.WriteString(strconv.Itoa(rng.Intn(2)))
		for f := 0; f < sh.cols; f++ {
			if f == sh.empty || rng.Float64() >= sh.density {
				continue
			}
			if f == sh.allNaN {
				fmt.Fprintf(&sb, " %d:nan", f)
			} else {
				fmt.Fprintf(&sb, " %d:%g", f, float32(rng.NormFloat64()))
			}
		}
		sb.WriteByte('\n')
	}
	ds, err := Ingest(strings.NewReader(sb.String()), Options{NumClass: 2, SketchEps: sh.eps, Q: sh.q})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, sh.name+".vbin")
	if err := WriteCacheFile(path, ds, ds.Prebin); err != nil {
		t.Fatal(err)
	}
	return path
}

// warmLoad names one shardFromView call.
type warmLoad struct {
	kind          datasets.ShardKind
	rank, workers int
}

// warmLoads is the referee's grid of loads: the whole image, and every
// rank's row and column shard at W ∈ {1, 2, 3, 5}.
func warmLoads() []warmLoad {
	loads := []warmLoad{{"", 0, 1}}
	for _, w := range []int{1, 2, 3, 5} {
		for _, kind := range []datasets.ShardKind{datasets.ShardRows, datasets.ShardCols} {
			for rank := 0; rank < w; rank++ {
				loads = append(loads, warmLoad{kind, rank, w})
			}
		}
	}
	return loads
}

// TestWarmTranspositionMatchesSerial is the differential referee of the
// blocked, parallel warm transposition: over every load of warmLoads, at
// GOMAXPROCS 1, 2 and 4, through the mapping and through the pread
// fallback, shardFromView must equal the frozen serial transposition bit
// for bit. The shapes cut into several blocks with a partial last one, have
// fewer rows than workers, a single feature, an empty column, a NaN-only
// column (zero splits) and two-byte bins.
func TestWarmTranspositionMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	for _, sh := range warmShapes {
		path := warmImage(t, dir, sh)
		ref, err := MapCacheFile(path)
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		if sh.q > 256 && ref.hdr.binWidth != 2 {
			t.Fatalf("%s: bin width %d, want 2", sh.name, ref.hdr.binWidth)
		}
		entries := func(col int) int64 { lo, hi := ref.ColRange(col); return hi - lo }
		if sh.empty >= 0 && entries(sh.empty) != 0 {
			t.Fatalf("%s: column %d holds %d entries, want none", sh.name, sh.empty, entries(sh.empty))
		}
		if sh.allNaN >= 0 && (entries(sh.allNaN) == 0 || len(ref.splits[sh.allNaN]) != 0) {
			t.Fatalf("%s: column %d is not a NaN-only column without splits", sh.name, sh.allNaN)
		}
		size := blockRows(ref.Rows(), ref.Cols(), ref.NNZ())
		blocks := (sh.rows + size - 1) / size
		if blocks < sh.minBlocks || (blocks > 1 && sh.rows%size == 0) {
			t.Fatalf("%s: %d rows cut into %d blocks of %d rows, want at least %d with a partial last",
				sh.name, sh.rows, blocks, size, sh.minBlocks)
		}
		want := map[warmLoad]*datasets.Dataset{}
		for _, l := range warmLoads() {
			if want[l], err = serialShardFromView(ref, l.kind, l.rank, l.workers); err != nil {
				t.Fatal(err)
			}
		}
		for _, procs := range []int{1, 2, 4} {
			for _, disable := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/procs%d/nommap=%v", sh.name, procs, disable), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					m, err := mapCacheFile(path, !disable)
					if err != nil {
						t.Fatal(err)
					}
					defer m.Close()
					for _, l := range warmLoads() {
						got, err := shardFromView(m, l.kind, l.rank, l.workers)
						if err != nil {
							t.Fatalf("%+v: %v", l, err)
						}
						sameLoad(t, fmt.Sprintf("%+v", l), got, want[l])
					}
					full, err := ReadCacheFile(path)
					if err != nil {
						t.Fatal(err)
					}
					sameLoad(t, "ReadCacheFile", full, want[warmLoad{"", 0, 1}])
				})
			}
		}
	}
}

// TestWideWarmTransposition: a wide sparse image (20k rows × 200k columns,
// about 5 entries a row) loads equal to the serial transposition, and its
// bookkeeping grows with workers × columns, not blocks × columns: the load
// allocates within the serial load's bytes plus two int64 cursors per
// column per worker and 1 MiB. Each block holds at least 8 entries per
// column, so the cursor sweep stays a small share of the work.
func TestWideWarmTransposition(t *testing.T) {
	const rows, d, workers = 20000, 200000, 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
	text := wideSparseLibSVM(5, rows, d, 5)
	ds, err := Ingest(strings.NewReader(text), Options{NumClass: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wide.vbin")
	if err := WriteCacheFile(path, ds, ds.Prebin); err != nil {
		t.Fatal(err)
	}
	ds = nil
	m, err := MapCacheFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if m.Cols() != d {
		t.Fatalf("image has %d columns, want %d", m.Cols(), d)
	}

	// Every block steps all d cursors; it must hold at least 8 entries a
	// column for that sweep to stay a small share of its work.
	size := blockRows(rows, d, m.NNZ())
	if perBlock := float64(size) * float64(m.NNZ()) / rows; perBlock < min(float64(m.NNZ()), 8*d) {
		t.Fatalf("blocks of %d rows hold about %.0f entries, fewer than 8 a column", size, perBlock)
	}

	measure := func(load func() (*datasets.Dataset, error)) (*datasets.Dataset, uint64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		got, err := load()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return got, after.TotalAlloc - before.TotalAlloc
	}
	want, serialAlloc := measure(func() (*datasets.Dataset, error) { return serialShardFromView(m, "", 0, 1) })
	got, alloc := measure(func() (*datasets.Dataset, error) { return shardFromView(m, "", 0, 1) })
	sameLoad(t, "wide", got, want)
	allow := serialAlloc + uint64(workers*2*8*d) + 1<<20
	t.Logf("blocks of %d rows; allocated %.1f MB, the serial load %.1f MB, allowance %.1f MB",
		size, float64(alloc)/1e6, float64(serialAlloc)/1e6, float64(allow)/1e6)
	if alloc > allow {
		t.Fatalf("load allocated %d B, more than the serial load's %d B plus O(workers × columns) (%d B)", alloc, serialAlloc, allow)
	}
}

// corruptImage is img with bin 0xFF written at the given entry
// positions (one-byte bins) and the payload checksum recomputed, so the
// load gets past the checksum to the structural checks.
func corruptImage(t *testing.T, img []byte, binsOff int64, pos ...int64) []byte {
	t.Helper()
	bad := bytes.Clone(img)
	for _, p := range pos {
		bad[binsOff+p] = 0xFF
	}
	binary.LittleEndian.PutUint32(bad[52:], crc32.Checksum(bad[vbinHeaderSize:], crcTable))
	return bad
}

// entryInRows returns the position of the first entry of column col whose
// row lies in [lo, hi).
func entryInRows(t *testing.T, m *MappedCache, col, lo, hi int) int64 {
	t.Helper()
	colLo, colHi := m.ColRange(col)
	p, err := m.SearchInst(colLo, colHi, uint32(lo))
	if err != nil {
		t.Fatal(err)
	}
	if i, err := m.instAt(p); p == colHi || err != nil || int(i) >= hi {
		t.Fatalf("column %d has no entry in rows [%d,%d)", col, lo, hi)
	}
	return p
}

// TestWarmLoadAbortLeaksNothing: a warm load that fails — at each block
// read in turn, or on a corrupt bin — reports ErrCacheCorrupt wrapping the
// cause, and leaves no goroutine and no descriptor behind.
func TestWarmLoadAbortLeaksNothing(t *testing.T) {
	defer failpoint.Reset()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	sh := warmShape{name: "abort", rows: 12001, cols: 8, density: 0.5, empty: -1, allNaN: -1}
	path := warmImage(t, t.TempDir(), sh)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := MapCacheBytes(img, "abort")
	if err != nil {
		t.Fatal(err)
	}
	size := blockRows(m.Rows(), m.Cols(), m.NNZ())
	if blocks := (sh.rows + size - 1) / size; blocks < 3 {
		t.Fatalf("%d rows cut into %d blocks, want at least 3", sh.rows, blocks)
	}
	// One corrupt bin in the first block, in column 1, and one in the last
	// block, in column 5: by block and by column alike, column 1's is first.
	last := (sh.rows - 1) / size * size
	bad := corruptImage(t, img, m.binsOff, entryInRows(t, m, 1, 0, size), entryInRows(t, m, 5, last, sh.rows))
	badPath := writeCacheImage(t, bad)

	loads := []struct {
		name string
		load func(path string) error
	}{
		{"ReadCacheFile", func(p string) error { _, err := ReadCacheFile(p); return err }},
		{"ReadCacheShard/rows", func(p string) error { _, err := ReadCacheShard(p, datasets.ShardRows, 1, 2); return err }},
		{"ReadCacheShard/cols", func(p string) error { _, err := ReadCacheShard(p, datasets.ShardCols, 0, 2); return err }},
	}
	goroutines, fds := runtime.NumGoroutine(), openFDs(t)
	check := func(what string) {
		t.Helper()
		settle(t, goroutines, what)
		if n := openFDs(t); n != fds {
			t.Fatalf("%s: open descriptors %d, %d before", what, n, fds)
		}
	}
	for _, l := range loads {
		k := 1
		for ; ; k++ {
			if err := failpoint.Enable(FailpointMmapRead, fmt.Sprintf("%d-%d*error", k, k)); err != nil {
				t.Fatal(err)
			}
			err := l.load(path)
			failpoint.Reset()
			what := fmt.Sprintf("%s, read %d failing", l.name, k)
			check(what)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrCacheCorrupt) || !errors.Is(err, failpoint.ErrInjected) {
				t.Fatalf("%s: %v, want the injected fault as a corrupt-cache error", what, err)
			}
		}
		if k <= 2 {
			t.Fatalf("%s: succeeded with read %d failing; the load makes fewer reads than its two passes", l.name, k)
		}
		t.Logf("%s: %d reads swept", l.name, k-1)

		err := l.load(badPath)
		check(l.name + " of a corrupt bin")
		if want := "bin 255 of feature 1 "; !errors.Is(err, ErrCacheCorrupt) || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s of two corrupt bins: %v, want ErrCacheCorrupt naming %q", l.name, err, want)
		}
	}
	if _, err := ReadCache(bytes.NewReader(bad), "bad"); !errors.Is(err, ErrCacheCorrupt) {
		t.Fatalf("ReadCache of two corrupt bins: %v, want ErrCacheCorrupt", err)
	}
	check("ReadCache of a corrupt bin")
}

// TestWarmTranspositionReportsLowestBlock: when bins turn corrupt behind
// an open view, the transposition reports the error of the lowest row
// block, whatever the column order and the worker count. The corrupt bins
// sit in the first block of column 5 and the last block of column 1, so a
// column-order walk would report column 1's.
func TestWarmTranspositionReportsLowestBlock(t *testing.T) {
	sh := warmShape{name: "lowest", rows: 12001, cols: 8, density: 0.5, empty: -1, allNaN: -1}
	img, err := os.ReadFile(warmImage(t, t.TempDir(), sh))
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			data := bytes.Clone(img)
			m, err := MapCacheBytes(data, "lowest")
			if err != nil {
				t.Fatal(err)
			}
			size := blockRows(m.Rows(), m.Cols(), m.NNZ())
			last := (sh.rows - 1) / size * size
			if last == 0 {
				t.Fatalf("%d rows make a single block of %d", sh.rows, size)
			}
			data[m.binsOff+entryInRows(t, m, 5, 0, size)] = 0xFF
			data[m.binsOff+entryInRows(t, m, 1, last, sh.rows)] = 0xFE
			for _, l := range []warmLoad{{"", 0, 1}, {datasets.ShardRows, 0, 1}, {datasets.ShardCols, 0, 1}} {
				_, err := shardFromView(m, l.kind, l.rank, l.workers)
				if want := "bin 255 of feature 5 "; !errors.Is(err, ErrCacheCorrupt) || !strings.Contains(err.Error(), want) {
					t.Fatalf("GOMAXPROCS %d, %+v: %v, want ErrCacheCorrupt naming %q", procs, l, err, want)
				}
			}
		}()
	}
}

// TestQAboveMaxBinsRejected: a split budget above sparse.MaxBins would let
// bin indices wrap in the image's uint16 bins, so ingestion refuses it up
// front, naming the limit; the limit itself is accepted.
func TestQAboveMaxBinsRejected(t *testing.T) {
	dir := t.TempDir()
	var sb strings.Builder
	for i := 0; i < 70000; i++ {
		fmt.Fprintf(&sb, "%d 0:%d\n", i%2, i)
	}
	src := filepath.Join(dir, "distinct.libsvm")
	if err := writeFile(src, sb.String()); err != nil {
		t.Fatal(err)
	}
	_, _, err := Cached(filepath.Join(dir, "cache"), src, Options{NumClass: 2, Q: 70000, SketchEps: 1e-7})
	if err == nil || !strings.Contains(err.Error(), strconv.Itoa(sparse.MaxBins)) {
		t.Fatalf("Cached with q=70000: %v, want a rejection naming the limit %d", err, sparse.MaxBins)
	}
	if _, err := (Options{NumClass: 2, Q: sparse.MaxBins}).withDefaults(); err != nil {
		t.Fatalf("q=%d: %v", sparse.MaxBins, err)
	}
}

// TestSplitCountBeyondBinWidthRejected: an image whose feature has more
// splits than its bin width addresses — 257 at one byte — is corrupt,
// though its checksum, sizes and every stored bin check out; 256 splits at
// one byte are accepted.
func TestSplitCountBeyondBinWidthRejected(t *testing.T) {
	image := func(nSplits int) []byte {
		t.Helper()
		b := sparse.NewCSRBuilder(1)
		labels := make([]float32, 100)
		for i := range labels {
			if err := b.AddRow([]sparse.KV{{Index: 0, Value: float32(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		splits := make([]float32, nSplits)
		for k := range splits {
			splits[k] = float32(k)
		}
		ds := &datasets.Dataset{Name: "forged", X: b.Build(), Labels: labels, NumClass: 2, Task: datasets.TaskBinary}
		pb := &datasets.Prebin{SketchEps: DefaultSketchEps, Q: 300, Splits: [][]float32{splits}, FeatCount: []int64{100}}
		var buf bytes.Buffer
		if err := WriteCache(&buf, ds, pb); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if _, err := MapCacheBytes(image(256), "256"); err != nil {
		t.Fatalf("256 splits at bin width 1: %v", err)
	}

	// The writer stores 257 splits in two-byte bins; narrow them to one
	// byte (every stored bin is below 100) and re-checksum.
	wide := image(257)
	m, err := MapCacheBytes(wide, "257")
	if err != nil {
		t.Fatal(err)
	}
	if m.hdr.binWidth != 2 {
		t.Fatalf("writer chose bin width %d for 257 splits", m.hdr.binWidth)
	}
	nnz := m.NNZ()
	forged := bytes.Clone(wide[:m.binsOff])
	for k := int64(0); k < nnz; k++ {
		forged = append(forged, byte(binary.LittleEndian.Uint16(wide[m.binsOff+2*k:])))
	}
	forged = append(forged, wide[m.binsOff+2*nnz:]...)
	binary.LittleEndian.PutUint32(forged[48:], 1)
	binary.LittleEndian.PutUint32(forged[52:], crc32.Checksum(forged[vbinHeaderSize:], crcTable))
	if _, err := MapCacheBytes(forged, "forged"); !errors.Is(err, ErrCacheCorrupt) || !strings.Contains(err.Error(), "257 splits") {
		t.Fatalf("257 splits at bin width 1: %v, want ErrCacheCorrupt naming the split count", err)
	}
}
