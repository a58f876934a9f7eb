package datasets

import "io"

// BlockSource serves a binned sparse matrix in fixed-size blocks from
// out-of-core storage (typically an mmap-backed .vbin view,
// ingest.MappedCache). The storage layout is the cache's global binned
// CSC: entries are grouped by column, ascending by instance id within
// each column, addressed by position in one global entry space [0, NNZ).
//
// Implementations must be safe for concurrent reads with distinct
// scratch. A read failure is sticky for the training run: engines record
// the first error and the trainer aborts at the next tree boundary.
type BlockSource interface {
	// Rows returns the number of instances.
	Rows() int
	// Cols returns the number of features.
	Cols() int
	// NNZ returns the number of stored entries.
	NNZ() int64
	// ColRange returns the half-open entry range [lo, hi) of a column.
	ColRange(col int) (lo, hi int64)
	// Entries materializes entry range [lo, hi): instance ids and bin
	// indexes in storage order. The result is either a zero-copy view
	// (valid until the source closes, never to be modified) or the
	// provided scratch filled by reads; scratch must hold hi-lo entries.
	Entries(lo, hi int64, instBuf []uint32, binBuf []uint16) ([]uint32, []uint16, error)
	// SearchInst returns the first position in [lo, hi) — a range within
	// one column — whose instance id is >= inst (hi if none).
	SearchInst(lo, hi int64, inst uint32) (int64, error)
	// LookupInst returns the bin of instance inst within one column's
	// range [lo, hi), and whether the entry exists.
	LookupInst(lo, hi int64, inst uint32) (uint16, bool, error)
	// Fingerprint identifies the backing image for checkpoint validation.
	Fingerprint() string
}

// RowSpan returns the entry range of column col restricted to rows
// [rowLo, rowHi): instance ids ascend within a column, so two binary
// searches bound it, and a bound at the edge of the matrix needs none.
func RowSpan(src BlockSource, col, rowLo, rowHi int) (lo, hi int64, err error) {
	lo, hi = src.ColRange(col)
	if rowLo > 0 {
		if lo, err = src.SearchInst(lo, hi, uint32(rowLo)); err != nil {
			return 0, 0, err
		}
	}
	if rowHi < src.Rows() {
		if hi, err = src.SearchInst(lo, hi, uint32(rowHi)); err != nil {
			return 0, 0, err
		}
	}
	return lo, hi, nil
}

// OutOfCore reports whether the dataset is served from a BlockSource
// instead of a materialized matrix.
func (d *Dataset) OutOfCore() bool { return d.X == nil && d.Blocks != nil }

// NNZ returns the number of stored entries, whichever representation
// holds them.
func (d *Dataset) NNZ() int64 {
	if d.OutOfCore() {
		return d.Blocks.NNZ()
	}
	return int64(d.X.NNZ())
}

// Close releases the block source's backing resources (mapping, file
// descriptor) if it holds any. In-memory datasets close trivially.
func (d *Dataset) Close() error {
	if c, ok := d.Blocks.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
