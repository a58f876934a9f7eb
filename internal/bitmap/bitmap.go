// Package bitmap provides a compact bitset used to broadcast instance
// placements after node splitting in vertically partitioned GBDT training.
//
// Section 3.1.3 of the paper encodes the left/right placement of each
// instance into one bit, so broadcasting the placement of N instances
// costs ceil(N/8) bytes per tree layer instead of 4N bytes, a 32x saving.
package bitmap

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Bitmap is a fixed-length bitset. The zero value is an empty bitmap of
// length zero; use New to allocate one of a given length.
type Bitmap struct {
	words []uint64
	n     int
}

// New returns a Bitmap holding n bits, all cleared.
func New(n int) *Bitmap {
	if n < 0 {
		panic(fmt.Sprintf("bitmap: negative length %d", n))
	}
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits in the bitmap.
func (b *Bitmap) Len() int { return b.n }

// Set sets bit i to 1.
func (b *Bitmap) Set(i int) {
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear sets bit i to 0.
func (b *Bitmap) Clear(i int) {
	b.words[i>>6] &^= 1 << (uint(i) & 63)
}

// SetTo sets bit i to v.
func (b *Bitmap) SetTo(i int, v bool) {
	// Branch-free: placement bits are coin flips to a branch predictor.
	var bit uint64
	if v {
		bit = 1
	}
	w, s := &b.words[i>>6], uint(i)&63
	*w = *w&^(1<<s) | bit<<s
}

// Get reports whether bit i is set.
func (b *Bitmap) Get(i int) bool {
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Words returns the bitmap's backing words: bit i is bit i&63 of word
// i>>6. The slice aliases internal storage and must be treated as
// read-only; it is the flat view the index split kernels read instead of
// calling Get per instance.
func (b *Bitmap) Words() []uint64 { return b.words }

// Count returns the number of set bits.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += popcount(w)
	}
	return c
}

// Reset clears all bits.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// SizeBytes returns the wire size of the bitmap payload, ceil(n/8) bytes.
// This is the quantity the paper's communication model charges for one
// placement broadcast.
func (b *Bitmap) SizeBytes() int { return (b.n + 7) / 8 }

// MarshalBinary encodes the bitmap into a compact byte slice of
// SizeBytes() bytes (little-endian bit order within each byte).
func (b *Bitmap) MarshalBinary() ([]byte, error) {
	// Bit i of the bitmap is bit i&7 of byte i>>3, which is exactly the
	// little-endian byte image of the words; the last word is cut to the
	// payload length.
	buf := make([]byte, 0, b.SizeBytes())
	var tmp [8]byte
	rem := b.SizeBytes()
	for _, w := range b.words {
		binary.LittleEndian.PutUint64(tmp[:], w)
		buf = append(buf, tmp[:min(rem, 8)]...)
		rem -= 8
	}
	return buf, nil
}

// UnmarshalBinary decodes a payload produced by MarshalBinary. The bitmap
// must already have the correct length. Payload bits past Len are dropped,
// as bits no index addresses.
func (b *Bitmap) UnmarshalBinary(data []byte) error {
	if len(data) != b.SizeBytes() {
		return fmt.Errorf("bitmap: payload has %d bytes, want %d", len(data), b.SizeBytes())
	}
	for i := range b.words {
		var tmp [8]byte
		copy(tmp[:], data[i*8:]) // the last word's payload may be short
		b.words[i] = binary.LittleEndian.Uint64(tmp[:])
	}
	if tail := uint(b.n) & 63; tail != 0 {
		b.words[len(b.words)-1] &= 1<<tail - 1
	}
	return nil
}

// Or sets every bit of b that is set in other. Both bitmaps must share
// one length; merging the per-owner placement shards of a distributed
// vertical layer is the intended use (each instance is routed by exactly
// one owner, so OR-ing the shards reconstructs the full placement).
func (b *Bitmap) Or(other *Bitmap) {
	if other.n != b.n {
		panic(fmt.Sprintf("bitmap: or of %d-bit and %d-bit bitmaps", b.n, other.n))
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// Clone returns a deep copy of the bitmap.
func (b *Bitmap) Clone() *Bitmap {
	c := New(b.n)
	copy(c.words, b.words)
	return c
}

// popcount returns the number of set bits of x.
func popcount(x uint64) int { return bits.OnesCount64(x) }
