package core

import (
	"encoding/binary"
	"math"

	"vero/internal/histogram"
)

// Wire codec for best-split records: the per-worker split candidates that
// the engines exchange after local split finding. Each record is exactly
// splitWireBytes so a frontier of f nodes always serializes to
// f*splitWireBytes bytes — the size the collectives have always charged.
// The layout is fixed little-endian: feature id and bin as int32, the
// gain's IEEE-754 bits verbatim (so merging decoded splits is bit-exact),
// one flag byte (bit 0 valid, bit 1 default-left) and 7 zero pad bytes.

// splitWireBytes is the serialized size of one best-split record
// (feature id, bin, gain, default direction).
const splitWireBytes = 24

const (
	splitFlagValid       = 1 << 0
	splitFlagDefaultLeft = 1 << 1
)

// encodeSplits serializes one split per frontier node into a fresh buffer
// of len(splits)*splitWireBytes bytes.
func encodeSplits(splits []histogram.Split) []byte {
	buf := make([]byte, len(splits)*splitWireBytes)
	for i, s := range splits {
		encodeSplit(buf[i*splitWireBytes:], s)
	}
	return buf
}

// encodeSplit writes one record into b[:splitWireBytes].
func encodeSplit(b []byte, s histogram.Split) {
	binary.LittleEndian.PutUint32(b[0:], uint32(int32(s.Feature)))
	binary.LittleEndian.PutUint32(b[4:], uint32(int32(s.Bin)))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(s.Gain))
	var flags byte
	if s.Valid {
		flags |= splitFlagValid
	}
	if s.DefaultLeft {
		flags |= splitFlagDefaultLeft
	}
	b[16] = flags
	clear(b[17:splitWireBytes])
}

// decodeSplit reads one record from b[:splitWireBytes].
func decodeSplit(b []byte) histogram.Split {
	flags := b[16]
	return histogram.Split{
		Feature:     int(int32(binary.LittleEndian.Uint32(b[0:]))),
		Bin:         int(int32(binary.LittleEndian.Uint32(b[4:]))),
		Gain:        math.Float64frombits(binary.LittleEndian.Uint64(b[8:])),
		Valid:       flags&splitFlagValid != 0,
		DefaultLeft: flags&splitFlagDefaultLeft != 0,
	}
}

// exchangeSplits is the split exchange of every policy whose split search
// is spread over workers (vertical feature groups, horizontal feature
// shards): worker w proposes cand(w, nd) for each frontier node, with
// Feature a global id, serializes its proposals, and the records travel in
// one all-gather. Every rank merges the same W records in worker order
// with histogram.Prefer, so the chosen split is identical on every
// backend. Non-hosted workers' records are zero padding (an invalid
// split, which Prefer never picks) until the all-gather fills them.
func (t *trainer) exchangeSplits(frontier []*nodeInfo, cand func(w int, nd *nodeInfo) histogram.Split) map[int32]histogram.Split {
	recs := make([][]byte, t.w)
	t.cl.ParallelLocal(phaseSplit, func(w int) {
		splits := make([]histogram.Split, len(frontier))
		for i, nd := range frontier {
			splits[i] = cand(w, nd)
		}
		recs[w] = encodeSplits(splits)
	})
	for w := range recs {
		if recs[w] == nil {
			recs[w] = make([]byte, len(frontier)*splitWireBytes)
		}
	}
	t.cl.AllGatherFixed(phaseSplit, recs)
	out := make(map[int32]histogram.Split, len(frontier))
	for i, nd := range frontier {
		best := histogram.Split{}
		for w := range recs {
			if s := decodeSplit(recs[w][i*splitWireBytes:]); histogram.Prefer(s, best) {
				best = s
			}
		}
		out[nd.id] = best
	}
	return out
}
