// Package tcptransport is the socket backend behind cluster.Transport: it
// carries collective payloads between the W processes of a distributed
// deployment over a full mesh of TCP connections.
//
// Reductions use direct exchange: every rank sends its contribution of
// segment s to the segment's owner (rank s), and the owner accumulates
// the W contributions in rank order starting from zero — exactly the
// simulation's reduction order, which is what makes models trained over
// sockets bit-identical to simulated runs. The wire volume of each
// data-carrying collective equals the alpha-beta model's charged volume
// byte for byte, so measured and accounted communication are directly
// comparable; charge-only collectives never reach the transport.
//
// Every frame carries the sender's rank, a CRC-32C of the phase label and
// a per-transport operation sequence number. Because training is SPMD —
// each rank replays the identical collective sequence — these let a
// receiver detect a desynchronized peer immediately instead of silently
// reducing mismatched data.
package tcptransport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Wire format of one frame:
//
//	offset  size  field
//	0       4     magic "VFRM"
//	4       1     version (2)
//	5       1     op
//	6       2     sender rank (u16 LE)
//	8       4     CRC-32C of the phase label (u32 LE)
//	12      4     operation sequence number (u32 LE)
//	16      4     payload length (u32 LE)
//	20      n     payload
//	20+n    4     CRC-32C of header+payload (u32 LE)
const (
	frameMagic  = "VFRM"
	wireVersion = 2
	headerSize  = 20
	trailerSize = 4
)

// op identifies a frame's role within a collective.
type op uint8

const (
	opHello   op = 1 // connection handshake: W, rank, peer-list hash
	opContrib op = 2 // reduction contribution sent to a segment owner
	opResult  op = 3 // reduced segment distributed back (all-reduce)
	opRecord  op = 4 // fixed-size all-gather record
	// Op 5 carried version 1's zero-filled frames for charge-only
	// collectives and stays unassigned.
	opBcast op = 6 // data-carrying broadcast payload from the root rank
)

func (o op) String() string {
	switch o {
	case opHello:
		return "hello"
	case opContrib:
		return "contrib"
	case opResult:
		return "result"
	case opRecord:
		return "record"
	case opBcast:
		return "bcast"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// phaseCRC hashes a phase label into the fixed-width form frames carry.
func phaseCRC(phase string) uint32 {
	return crc32.Checksum([]byte(phase), crcTable)
}

// frame is one decoded wire frame.
type frame struct {
	Op       op
	Rank     uint16
	PhaseCRC uint32
	Seq      uint32
	Payload  []byte
}

// encodedSize returns the full wire size of the frame.
func (f *frame) encodedSize() int {
	return headerSize + len(f.Payload) + trailerSize
}

// appendFrame appends the frame's wire encoding to dst.
func appendFrame(dst []byte, f *frame) []byte {
	start := len(dst)
	dst = append(dst, frameMagic...)
	dst = append(dst, wireVersion, byte(f.Op))
	dst = binary.LittleEndian.AppendUint16(dst, f.Rank)
	dst = binary.LittleEndian.AppendUint32(dst, f.PhaseCRC)
	dst = binary.LittleEndian.AppendUint32(dst, f.Seq)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(f.Payload)))
	dst = append(dst, f.Payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// decodeFrame parses one frame from the front of b, returning the frame
// and the number of bytes consumed. The payload is aliased, not copied.
// maxPayload bounds the payload length field before any allocation or
// slicing, so a corrupt length cannot cause oversized reads.
func decodeFrame(b []byte, maxPayload int) (frame, int, error) {
	if len(b) < headerSize {
		return frame{}, 0, fmt.Errorf("tcptransport: frame truncated: %d bytes, header needs %d", len(b), headerSize)
	}
	if string(b[:4]) != frameMagic {
		return frame{}, 0, fmt.Errorf("tcptransport: bad frame magic %q", b[:4])
	}
	if b[4] != wireVersion {
		return frame{}, 0, fmt.Errorf("tcptransport: unsupported wire version %d", b[4])
	}
	n := binary.LittleEndian.Uint32(b[16:20])
	if int64(n) > int64(maxPayload) {
		return frame{}, 0, fmt.Errorf("tcptransport: payload length %d exceeds limit %d", n, maxPayload)
	}
	total := headerSize + int(n) + trailerSize
	if len(b) < total {
		return frame{}, 0, fmt.Errorf("tcptransport: frame truncated: %d bytes, frame needs %d", len(b), total)
	}
	body := b[:headerSize+int(n)]
	want := binary.LittleEndian.Uint32(b[headerSize+int(n):])
	if got := crc32.Checksum(body, crcTable); got != want {
		return frame{}, 0, fmt.Errorf("tcptransport: frame checksum mismatch: computed %#x, trailer %#x", got, want)
	}
	return frame{
		Op:       op(b[5]),
		Rank:     binary.LittleEndian.Uint16(b[6:8]),
		PhaseCRC: binary.LittleEndian.Uint32(b[8:12]),
		Seq:      binary.LittleEndian.Uint32(b[12:16]),
		Payload:  b[headerSize : headerSize+int(n)],
	}, total, nil
}

// readFrame reads exactly one frame from r. Unlike decodeFrame it owns
// its buffers, so the returned payload remains valid after further reads.
func readFrame(r io.Reader, maxPayload int) (frame, error) {
	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return frame{}, err
	}
	if string(hdr[:4]) != frameMagic {
		return frame{}, fmt.Errorf("tcptransport: bad frame magic %q", hdr[:4])
	}
	if hdr[4] != wireVersion {
		return frame{}, fmt.Errorf("tcptransport: unsupported wire version %d", hdr[4])
	}
	n := binary.LittleEndian.Uint32(hdr[16:20])
	if int64(n) > int64(maxPayload) {
		return frame{}, fmt.Errorf("tcptransport: payload length %d exceeds limit %d", n, maxPayload)
	}
	rest := make([]byte, int(n)+trailerSize)
	if _, err := io.ReadFull(r, rest); err != nil {
		return frame{}, fmt.Errorf("tcptransport: reading %d-byte payload: %w", n, err)
	}
	crc := crc32.Checksum(hdr, crcTable)
	crc = crc32.Update(crc, crcTable, rest[:n])
	if want := binary.LittleEndian.Uint32(rest[n:]); crc != want {
		return frame{}, fmt.Errorf("tcptransport: frame checksum mismatch: computed %#x, trailer %#x", crc, want)
	}
	return frame{
		Op:       op(hdr[5]),
		Rank:     binary.LittleEndian.Uint16(hdr[6:8]),
		PhaseCRC: binary.LittleEndian.Uint32(hdr[8:12]),
		Seq:      binary.LittleEndian.Uint32(hdr[12:16]),
		Payload:  rest[:n:n],
	}, nil
}
