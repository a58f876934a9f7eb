package partition

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Block is one blockified partial column group (Figure 9): the rows of one
// source file split restricted to one worker's feature group, stored as
// three flat arrays — feature indexes (within-group ids), histogram bin
// indexes, and instance pointers.
type Block struct {
	// RowStart is the global id of the block's first row.
	RowStart int
	// RowPtr has NumRows+1 entries delimiting each row's pairs.
	RowPtr []int64
	// Feat holds within-group feature ids.
	Feat []uint32
	// Bin holds histogram bin indexes.
	Bin []uint16
}

// NumRows returns the number of rows covered by the block.
func (b *Block) NumRows() int { return len(b.RowPtr) - 1 }

// NNZ returns the number of key-value pairs in the block.
func (b *Block) NNZ() int { return len(b.Feat) }

// Row returns the pairs of global row id r, which must lie inside the
// block.
func (b *Block) Row(r int) (feat []uint32, bin []uint16) {
	i := r - b.RowStart
	lo, hi := b.RowPtr[i], b.RowPtr[i+1]
	return b.Feat[lo:hi], b.Bin[lo:hi]
}

// WireSizeBytes returns the block's serialized size under the compact
// encoding: a fixed header, 4-byte row pointers, and featWidth+binWidth
// bytes per pair.
func (b *Block) WireSizeBytes(featWidth, binWidth int64) int64 {
	return blockWireSize(int64(b.NumRows()), int64(b.NNZ()), featWidth, binWidth)
}

// blockWireSize is WireSizeBytes from the counts alone, for callers that
// size a block they never build.
func blockWireSize(rows, nnz, featWidth, binWidth int64) int64 {
	const header = 16 // row start + row count + pair count + widths
	return header + (rows+1)*4 + nnz*(featWidth+binWidth)
}

// Encode serializes the block with the given pair widths. The layout is
// little-endian: header (rowStart, numRows, nnz, widths), row pointers as
// uint32 deltas, then the packed pairs.
func (b *Block) Encode(featWidth, binWidth int64) ([]byte, error) {
	if featWidth != 1 && featWidth != 2 && featWidth != 4 {
		return nil, fmt.Errorf("partition: feature width %d", featWidth)
	}
	if binWidth != 1 && binWidth != 2 {
		return nil, fmt.Errorf("partition: bin width %d", binWidth)
	}
	out := make([]byte, 0, b.WireSizeBytes(featWidth, binWidth))
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(b.RowStart))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(b.NumRows()))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(b.NNZ()))
	hdr[12] = byte(featWidth)
	hdr[13] = byte(binWidth)
	out = append(out, hdr[:]...)
	var u4 [4]byte
	for _, p := range b.RowPtr {
		binary.LittleEndian.PutUint32(u4[:], uint32(p))
		out = append(out, u4[:]...)
	}
	for i := range b.Feat {
		switch featWidth {
		case 1:
			out = append(out, byte(b.Feat[i]))
		case 2:
			binary.LittleEndian.PutUint16(u4[:2], uint16(b.Feat[i]))
			out = append(out, u4[:2]...)
		default:
			binary.LittleEndian.PutUint32(u4[:], b.Feat[i])
			out = append(out, u4[:]...)
		}
		switch binWidth {
		case 1:
			out = append(out, byte(b.Bin[i]))
		default:
			binary.LittleEndian.PutUint16(u4[:2], b.Bin[i])
			out = append(out, u4[:2]...)
		}
	}
	return out, nil
}

// DecodeBlock parses a payload produced by Encode.
func DecodeBlock(data []byte) (*Block, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("partition: block payload too short (%d bytes)", len(data))
	}
	rowStart := int(binary.LittleEndian.Uint32(data[0:]))
	numRows := int(binary.LittleEndian.Uint32(data[4:]))
	nnz := int(binary.LittleEndian.Uint32(data[8:]))
	featWidth := int64(data[12])
	binWidth := int64(data[13])
	want := blockWireSize(int64(numRows), int64(nnz), featWidth, binWidth)
	if int64(len(data)) != want {
		return nil, fmt.Errorf("partition: block payload %d bytes, want %d", len(data), want)
	}
	b := &Block{
		RowStart: rowStart,
		RowPtr:   make([]int64, numRows+1),
		Feat:     make([]uint32, nnz),
		Bin:      make([]uint16, nnz),
	}
	off := 16
	for i := range b.RowPtr {
		b.RowPtr[i] = int64(binary.LittleEndian.Uint32(data[off:]))
		off += 4
	}
	for i := 0; i < nnz; i++ {
		switch featWidth {
		case 1:
			b.Feat[i] = uint32(data[off])
		case 2:
			b.Feat[i] = uint32(binary.LittleEndian.Uint16(data[off:]))
		default:
			b.Feat[i] = binary.LittleEndian.Uint32(data[off:])
		}
		off += int(featWidth)
		switch binWidth {
		case 1:
			b.Bin[i] = uint16(data[off])
		default:
			b.Bin[i] = binary.LittleEndian.Uint16(data[off:])
		}
		off += int(binWidth)
	}
	return b, nil
}

// BlockSet is a worker's vertical data shard after the transformation: the
// blocks of its column group sorted by row offset, accessed through the
// two-phase index of Section 4.2.3 (binary-search the block, then offset
// into its row pointers).
type BlockSet struct {
	Blocks []*Block
	rows   int
}

// NewBlockSet assembles a shard from blocks, sorting them by row offset
// and validating contiguous coverage of [0, n) rows.
func NewBlockSet(blocks []*Block) (*BlockSet, error) {
	bs := &BlockSet{Blocks: append([]*Block(nil), blocks...)}
	sort.Slice(bs.Blocks, func(i, j int) bool { return bs.Blocks[i].RowStart < bs.Blocks[j].RowStart })
	next := 0
	for _, b := range bs.Blocks {
		if b.RowStart != next {
			return nil, fmt.Errorf("partition: block starts at row %d, want %d", b.RowStart, next)
		}
		next += b.NumRows()
	}
	bs.rows = next
	return bs, nil
}

// NumRows returns the total rows covered.
func (bs *BlockSet) NumRows() int { return bs.rows }

// NumBlocks returns the block count (after merging this stays <= 5 in the
// paper's deployments).
func (bs *BlockSet) NumBlocks() int { return len(bs.Blocks) }

// NNZ returns the total pair count.
func (bs *BlockSet) NNZ() int {
	n := 0
	for _, b := range bs.Blocks {
		n += b.NNZ()
	}
	return n
}

// Row locates global row r via the two-phase index: phase one binary
// searches the block, phase two indexes its row pointers.
func (bs *BlockSet) Row(r int) (feat []uint32, bin []uint16) {
	lo, hi := 0, len(bs.Blocks)
	for lo < hi-1 {
		mid := (lo + hi) / 2
		if bs.Blocks[mid].RowStart <= r {
			lo = mid
		} else {
			hi = mid
		}
	}
	return bs.Blocks[lo].Row(r)
}

// Merge coalesces blocks until at most maxBlocks remain (the paper merges
// down to < 5 to amortize the phase-one binary search).
func (bs *BlockSet) Merge(maxBlocks int) {
	if maxBlocks < 1 {
		maxBlocks = 1
	}
	for len(bs.Blocks) > maxBlocks {
		// Merge the adjacent pair with the smallest combined size.
		best, bestSize := 0, int(^uint(0)>>1)
		for i := 0; i+1 < len(bs.Blocks); i++ {
			if s := bs.Blocks[i].NNZ() + bs.Blocks[i+1].NNZ(); s < bestSize {
				best, bestSize = i, s
			}
		}
		a, b := bs.Blocks[best], bs.Blocks[best+1]
		merged := &Block{
			RowStart: a.RowStart,
			RowPtr:   make([]int64, 0, len(a.RowPtr)+len(b.RowPtr)-1),
			Feat:     append(append(make([]uint32, 0, a.NNZ()+b.NNZ()), a.Feat...), b.Feat...),
			Bin:      append(append(make([]uint16, 0, a.NNZ()+b.NNZ()), a.Bin...), b.Bin...),
		}
		merged.RowPtr = append(merged.RowPtr, a.RowPtr...)
		base := a.RowPtr[len(a.RowPtr)-1]
		for _, p := range b.RowPtr[1:] {
			merged.RowPtr = append(merged.RowPtr, base+p)
		}
		bs.Blocks = append(bs.Blocks[:best], append([]*Block{merged}, bs.Blocks[best+2:]...)...)
	}
}
