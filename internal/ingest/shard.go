package ingest

import (
	"fmt"
	"math"

	"vero/internal/datasets"
	"vero/internal/partition"
	"vero/internal/sparse"
)

// shardChunk bounds the scratch of one shard-materialization read, so
// loading a shard never stages more than a fixed slice of the entry
// sections no matter how large the cache is.
const shardChunk = 32 << 10

// ReadCacheShard opens a .vbin cache and materializes only rank's shard
// of it: the rank's row range (ShardRows, horizontal quadrants) or its
// balanced feature group (ShardCols, vertical quadrants). The shard
// bounds derive deterministically from (rank, workers, kind) via
// partition.HorizontalRanges / partition.GroupColumnsBalanced, so every
// rank of a deployment carves the same image identically.
//
// The returned dataset keeps the global n×d shape — X holds entries only
// inside the shard, while labels and the quantized Prebin stay full (the
// objective's init score and every engine's split tables need them) — and
// carries a datasets.Shard describing the slice, including the global
// entry counts communication charges must be derived from. Reads go
// through the mapped view, so only the shard's pages (plus the metadata
// and a binary-search trail) are ever touched: a rank materializes
// O(nnz/W) entries of an image no single rank could hold.
func ReadCacheShard(path string, kind datasets.ShardKind, rank, workers int) (*datasets.Dataset, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("ingest: shard load: worker count %d", workers)
	}
	if rank < 0 || rank >= workers {
		return nil, fmt.Errorf("ingest: shard load: rank %d outside deployment of %d", rank, workers)
	}
	if kind != datasets.ShardRows && kind != datasets.ShardCols {
		return nil, fmt.Errorf("ingest: shard load: unknown shard kind %q", kind)
	}
	m, err := MapCacheFile(path)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return shardFromView(m, kind, rank, workers)
}

// shardFromView materializes the part of an open cache view that kind
// selects: rank's row range, its feature group, or — kind "" — the whole
// image, whose dataset carries no Shard. It is the one place .vbin columns
// are transposed into rows.
func shardFromView(m *MappedCache, kind datasets.ShardKind, rank, workers int) (*datasets.Dataset, error) {
	rows, cols := m.Rows(), m.Cols()

	// Per-column selected entry range [selLo[j], selHi[j]) in global entry
	// space; empty for columns (or row spans) outside the selection.
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
		// GroupNNZ[src][dst]: entries in horizontal range src belonging to
		// feature group dst — the cell counts of the QD4 transformation,
		// derived from the column index alone so every rank computes the
		// identical volumes without touching remote shards.
		shard.GroupNNZ = make([][]int64, workers)
		for s, r := range partition.HorizontalRanges(rows, workers) {
			var err error
			if shard.GroupNNZ[s], err = partition.RangeGroupNNZ(m, r[0], r[1], groups); err != nil {
				return nil, err
			}
		}
	}

	// Count pass: per-row entry tallies of the selected ranges.
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

	// Fill pass: columns ascending, instances ascending within a column, so
	// every row's features come out ascending. Entry (i, f, b) becomes the
	// bin representative splits[f][b] (NaN for features binned without
	// splits, i.e. NaN-only columns).
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
