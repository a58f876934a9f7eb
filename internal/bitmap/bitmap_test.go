package bitmap

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	b := New(0)
	if b.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", b.Len())
	}
	if b.SizeBytes() != 0 {
		t.Fatalf("SizeBytes() = %d, want 0", b.SizeBytes())
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	b := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if b.Get(i) {
			t.Fatalf("bit %d set in fresh bitmap", i)
		}
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		b.Clear(i)
		if b.Get(i) {
			t.Fatalf("bit %d still set after Clear", i)
		}
	}
}

func TestSetTo(t *testing.T) {
	b := New(10)
	b.SetTo(3, true)
	if !b.Get(3) {
		t.Fatal("SetTo(3,true) did not set")
	}
	b.SetTo(3, false)
	if b.Get(3) {
		t.Fatal("SetTo(3,false) did not clear")
	}
}

func TestCount(t *testing.T) {
	b := New(200)
	want := 0
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		if rng.Intn(2) == 1 {
			b.Set(i)
			want++
		}
	}
	if got := b.Count(); got != want {
		t.Fatalf("Count() = %d, want %d", got, want)
	}
}

func TestReset(t *testing.T) {
	b := New(100)
	for i := 0; i < 100; i += 3 {
		b.Set(i)
	}
	b.Reset()
	if b.Count() != 0 {
		t.Fatalf("Count() after Reset = %d, want 0", b.Count())
	}
}

func TestSizeBytes(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 1}, {7, 1}, {8, 1}, {9, 2}, {64, 8}, {65, 9},
	}
	for _, c := range cases {
		if got := New(c.n).SizeBytes(); got != c.want {
			t.Errorf("SizeBytes(n=%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 8, 9, 63, 64, 100, 1000} {
		b := New(n)
		for i := 0; i < n; i++ {
			b.SetTo(i, rng.Intn(2) == 1)
		}
		data, err := b.MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary: %v", err)
		}
		if len(data) != b.SizeBytes() {
			t.Fatalf("payload %d bytes, want %d", len(data), b.SizeBytes())
		}
		c := New(n)
		if err := c.UnmarshalBinary(data); err != nil {
			t.Fatalf("UnmarshalBinary: %v", err)
		}
		for i := 0; i < n; i++ {
			if b.Get(i) != c.Get(i) {
				t.Fatalf("n=%d: bit %d mismatch after round trip", n, i)
			}
		}
	}
}

func TestUnmarshalWrongLength(t *testing.T) {
	b := New(16)
	if err := b.UnmarshalBinary(make([]byte, 3)); err == nil {
		t.Fatal("UnmarshalBinary accepted wrong-length payload")
	}
}

func TestClone(t *testing.T) {
	b := New(70)
	b.Set(69)
	c := b.Clone()
	c.Clear(69)
	if !b.Get(69) {
		t.Fatal("Clone shares storage with original")
	}
}

func TestPopcountQuick(t *testing.T) {
	f := func(x uint64) bool {
		want := 0
		for i := 0; i < 64; i++ {
			if x&(1<<uint(i)) != 0 {
				want++
			}
		}
		return popcount(x) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(bits []bool) bool {
		b := New(len(bits))
		for i, v := range bits {
			b.SetTo(i, v)
		}
		data, _ := b.MarshalBinary()
		c := New(len(bits))
		if err := c.UnmarshalBinary(data); err != nil {
			return false
		}
		for i, v := range bits {
			if c.Get(i) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestMarshalMatchesBitwiseEncoding holds the word-wise codec to the
// bit-by-bit definition of the wire format (bit i is bit i&7 of byte i>>3)
// at lengths around the word and byte boundaries.
func TestMarshalMatchesBitwiseEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 1000} {
		b := New(n)
		want := make([]byte, (n+7)/8)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 1 {
				b.Set(i)
				want[i>>3] |= 1 << (uint(i) & 7)
			}
		}
		buf, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("n=%d: payload %x, want %x", n, buf, want)
		}
		// Set payload bits past Len must not leak into the bitmap.
		dirty := append([]byte(nil), want...)
		if n%8 != 0 {
			dirty[len(dirty)-1] |= 0xff << (uint(n) & 7)
		}
		c := New(n)
		if err := c.UnmarshalBinary(dirty); err != nil {
			t.Fatal(err)
		}
		if c.Count() != b.Count() {
			t.Fatalf("n=%d: decoded %d set bits, want %d", n, c.Count(), b.Count())
		}
		for i := 0; i < n; i++ {
			if c.Get(i) != b.Get(i) {
				t.Fatalf("n=%d: bit %d differs after decode", n, i)
			}
		}
	}
}
