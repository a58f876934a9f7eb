package tcptransport

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strings"
	"testing"
)

// sampleFrames covers every op with empty, tiny, ragged and block-sized
// payloads — the shapes real collectives emit.
func sampleFrames() []frame {
	payload := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i*7 + 3)
		}
		return p
	}
	return []frame{
		{Op: opHello, Rank: 0, PhaseCRC: 0, Seq: 0, Payload: payload(8)},
		{Op: opContrib, Rank: 3, PhaseCRC: phaseCRC("train.histogram"), Seq: 17, Payload: payload(0)},
		{Op: opContrib, Rank: 1, PhaseCRC: phaseCRC("train.gradient"), Seq: 1, Payload: payload(24)},
		{Op: opResult, Rank: 65535, PhaseCRC: phaseCRC("train.split"), Seq: 4294967295, Payload: payload(129)},
		{Op: opRecord, Rank: 7, PhaseCRC: phaseCRC("cluster.syncstats"), Seq: 2, Payload: payload(44)},
		{Op: opBcast, Rank: 2, PhaseCRC: phaseCRC("train.node"), Seq: 9, Payload: payload(1024)},
	}
}

// TestFrameRoundTrip pins the wire encoding: encode, then decode both via
// the in-place parser and the streaming reader, and compare every field.
func TestFrameRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		enc := appendFrame(nil, &f)
		if len(enc) != f.encodedSize() {
			t.Fatalf("%s: encoded %d bytes, encodedSize says %d", f.Op, len(enc), f.encodedSize())
		}
		got, n, err := decodeFrame(enc, 1<<20)
		if err != nil {
			t.Fatalf("%s: decode: %v", f.Op, err)
		}
		if n != len(enc) {
			t.Fatalf("%s: decode consumed %d of %d bytes", f.Op, n, len(enc))
		}
		checkFrameEqual(t, "decodeFrame", got, f)

		sr, err := readFrame(bytes.NewReader(enc), 1<<20)
		if err != nil {
			t.Fatalf("%s: readFrame: %v", f.Op, err)
		}
		checkFrameEqual(t, "readFrame", sr, f)
	}
}

func checkFrameEqual(t *testing.T, via string, got, want frame) {
	t.Helper()
	if got.Op != want.Op || got.Rank != want.Rank || got.PhaseCRC != want.PhaseCRC ||
		got.Seq != want.Seq || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("%s: decoded {%s rank=%d phase=%#x seq=%d |payload|=%d}, want {%s rank=%d phase=%#x seq=%d |payload|=%d}",
			via, got.Op, got.Rank, got.PhaseCRC, got.Seq, len(got.Payload),
			want.Op, want.Rank, want.PhaseCRC, want.Seq, len(want.Payload))
	}
}

// TestDecodeFrameTruncation cuts a valid frame at every byte boundary:
// each prefix must produce an error, never a panic and never a frame with
// a silently shortened payload.
func TestDecodeFrameTruncation(t *testing.T) {
	for _, f := range sampleFrames() {
		enc := appendFrame(nil, &f)
		for cut := 0; cut < len(enc); cut++ {
			if _, _, err := decodeFrame(enc[:cut], 1<<20); err == nil {
				t.Fatalf("%s: decode of %d/%d-byte prefix succeeded", f.Op, cut, len(enc))
			}
			if _, err := readFrame(bytes.NewReader(enc[:cut]), 1<<20); err == nil {
				t.Fatalf("%s: readFrame of %d/%d-byte prefix succeeded", f.Op, cut, len(enc))
			}
		}
	}
}

// TestDecodeFrameBitFlip flips every bit of valid frames: the CRC-32C
// trailer (or an earlier structural check) must reject each mutant — a
// flipped histogram bit that decoded cleanly would be a silently wrong sum.
func TestDecodeFrameBitFlip(t *testing.T) {
	for _, f := range sampleFrames() {
		enc := appendFrame(nil, &f)
		for i := range enc {
			for bit := 0; bit < 8; bit++ {
				mut := append([]byte(nil), enc...)
				mut[i] ^= 1 << bit
				if _, _, err := decodeFrame(mut, 1<<20); err == nil {
					t.Fatalf("%s: decode accepted bit %d of byte %d flipped", f.Op, bit, i)
				}
			}
		}
	}
}

// TestDecodeFrameLengthBomb plants an absurd payload length: both parsers
// must reject it via the cap before allocating or slicing anything.
func TestDecodeFrameLengthBomb(t *testing.T) {
	f := sampleFrames()[1]
	enc := appendFrame(nil, &f)
	enc[16], enc[17], enc[18], enc[19] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := decodeFrame(enc, 1<<20); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("decodeFrame on length bomb: %v", err)
	}
	if _, err := readFrame(bytes.NewReader(enc), 1<<20); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("readFrame on length bomb: %v", err)
	}
}

// TestDecodeFrameRejectsVersion1 pins the wire-version bump: a frame of
// version 1, whose mesh still sent zero-filled frames for charge-only
// collectives, is refused by both parsers, so a mesh mixing the two
// versions fails at its first hello frame instead of desyncing mid-run.
func TestDecodeFrameRejectsVersion1(t *testing.T) {
	f := sampleFrames()[0]
	enc := appendFrame(nil, &f)
	enc[4] = 1
	// Re-seal the trailer so only the version byte is wrong.
	body := enc[:len(enc)-trailerSize]
	binary.LittleEndian.PutUint32(enc[len(body):], crc32.Checksum(body, crcTable))
	if _, _, err := decodeFrame(enc, 1<<20); err == nil || !strings.Contains(err.Error(), "unsupported wire version 1") {
		t.Fatalf("decodeFrame on a version-1 frame: %v", err)
	}
	if _, err := readFrame(bytes.NewReader(enc), 1<<20); err == nil || !strings.Contains(err.Error(), "unsupported wire version 1") {
		t.Fatalf("readFrame on a version-1 frame: %v", err)
	}
}

// FuzzDecodeFrame throws arbitrary bytes at the frame parser. It must
// never panic; when it accepts, the decoded frame must re-encode to
// exactly the consumed bytes (the encoding is canonical) and the
// streaming reader must agree with the in-place parser.
func FuzzDecodeFrame(f *testing.F) {
	for _, sf := range sampleFrames() {
		enc := appendFrame(nil, &sf)
		f.Add(enc)
		f.Add(enc[:len(enc)-1])
		f.Add(enc[:headerSize])
		f.Add(append(enc, enc...))
	}
	f.Add([]byte(frameMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxPayload = 1 << 16
		fr, n, err := decodeFrame(data, maxPayload)
		sf, serr := readFrame(bytes.NewReader(data), maxPayload)
		if err != nil {
			if serr == nil {
				t.Fatalf("decodeFrame rejected (%v) what readFrame accepted", err)
			}
			return
		}
		if n < headerSize+trailerSize || n > len(data) {
			t.Fatalf("decode consumed %d of %d bytes", n, len(data))
		}
		if !bytes.Equal(appendFrame(nil, &fr), data[:n]) {
			t.Fatalf("re-encoding the decoded frame does not reproduce the input")
		}
		if serr != nil {
			t.Fatalf("readFrame rejected (%v) what decodeFrame accepted", serr)
		}
		checkFrameEqual(t, "readFrame-vs-decodeFrame", sf, fr)
	})
}
