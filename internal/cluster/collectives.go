package cluster

import (
	"fmt"
	"time"
)

// Collective primitives: one entry point per communication shape. Each
// has one body — account the alpha-beta charge under the caller's phase,
// then, on a distributed cluster (WithTransport), move the payload over
// the wire in the simulation's rank-ordered reduction order, so trained
// models are bit-identical, and record the measured bytes and wall-clock.
// On the simulation (the default) every worker lives in one process, the
// data is already in place, and only the charge is recorded.
//
// Cost model (W workers, n payload bytes per worker, alpha seconds per
// latency step, beta seconds per byte — Thakur et al., cited as [36] by
// the paper). A charge records its total bytes and models
// steps*alpha + serial*beta seconds, serial being the bytes on the
// critical path:
//
//	entry point                 kind            total bytes       steps       serial bytes
//	AllReduce                   all-reduce      2(W-1)n           2(W-1)      2(W-1)n/W
//	ReduceScatter               reduce-scatter  (W-1)n            W-1         (W-1)n/W
//	ShardedGather (S shards)    gather          (W-1)n            W-1         (W-1)n/S
//	AllGatherFixed (b/worker)   all-gather      W(W-1)b           ceil(lg W)  (W-1)b
//	Broadcast, BroadcastBytes   broadcast       (W-1)b            ceil(lg W)  ceil(lg W)b
//	PointToPoint                point-to-point  b                 1           b
//	Shuffle (matrix s)          shuffle         sum s[i][j], i≠j  W-1         max_i out_i+in_i
//	ChargeComm                  caller's        bytes             caller's    bytes
//
// The charged totals are exact: they equal the bytes a direct-exchange
// implementation of the collective puts on the wire, which is what the
// TCP backend's measured-vs-accounted equality check relies on.
//
// Reductions work in place (MPI_IN_PLACE): a buffer holds this process's
// contribution on entry — the hosted workers' sum, see SumHosted — and
// the reduced values on return, and a call's buffers are charged as one
// payload.

const float64Size = 8

// EvenBounds splits n elements into parts contiguous segments: segment s
// covers [bounds[s], bounds[s+1]). It is the canonical segment layout
// shared by the collectives and any transport implementation.
func EvenBounds(n, parts int) []int {
	bounds := make([]int, parts+1)
	for s := 0; s <= parts; s++ {
		bounds[s] = s * n / parts
	}
	return bounds
}

// AllReduce completes a global element-wise sum of every buffer: each
// holds the global sum on return, at every rank (ring all-reduce). The
// minimal data transferred per worker is the size of its local histogram
// — the paper's lower bound in Section 3.1.3.
func (c *Cluster) AllReduce(phase string, bufs ...[]float64) {
	n := payloadBytes(bufs)
	c.collective(phase, OpAllReduce, 2*int64(c.w-1)*n,
		c.simTime(2*(c.w-1), float64(n)/float64(c.w)*2*float64(c.w-1)), func() error {
			for _, buf := range bufs {
				if err := c.tr.AllReduce(phase, buf); err != nil {
					return err
				}
			}
			return nil
		})
}

// ReduceScatter reduces every buffer segment-wise: segment s of bounds,
// [bounds[s], bounds[s+1]), is globally reduced at its owner, worker s
// (LightGBM's aggregation, Section 4.1); nil bounds means EvenBounds over
// the W workers, applied to each buffer. On the simulation every segment
// is reduced; on a distributed cluster the rest of a rank's buffer keeps
// its local contribution, so callers read each segment at its owner.
func (c *Cluster) ReduceScatter(phase string, bounds []int, bufs ...[]float64) {
	n := payloadBytes(bufs)
	c.collective(phase, OpReduceScatter, int64(c.w-1)*n,
		c.simTime(c.w-1, float64(n)/float64(c.w)*float64(c.w-1)), func() error {
			return c.scatter(phase, c.w, bounds, bufs)
		})
}

// ShardedGather models a parameter server with `shards` servers
// co-located on workers 0..shards-1 (DimBoost, Section 4.1): each worker
// pushes the shard-sized fraction of its buffers to each server, so the
// per-link volume divides by the shard count and the servers receive in
// parallel. Segment s of bounds (nil: EvenBounds over the shards) is
// reduced at server s, as in ReduceScatter. One shard is a plain gather
// at worker 0.
func (c *Cluster) ShardedGather(phase string, shards int, bounds []int, bufs ...[]float64) {
	if shards <= 0 || shards > c.w {
		panic(fmt.Sprintf("cluster: shard count %d for %d workers", shards, c.w))
	}
	total := int64(c.w-1) * payloadBytes(bufs) // every byte still leaves its worker once
	c.collective(phase, OpGather, total, c.simTime(c.w-1, float64(total)/float64(shards)), func() error {
		return c.scatter(phase, shards, bounds, bufs)
	})
}

// scatter is the wire operation of ReduceScatter and ShardedGather: every
// buffer's segments reduced at their owners, nil bounds meaning an even
// split of each buffer over parts owners.
func (c *Cluster) scatter(phase string, parts int, bounds []int, bufs [][]float64) error {
	for _, buf := range bufs {
		b := bounds
		if b == nil {
			b = EvenBounds(len(buf), parts)
		}
		if err := c.tr.ReduceScatter(phase, buf, b); err != nil {
			return err
		}
	}
	return nil
}

// payloadBytes is the combined byte size of a reduction's buffers.
func payloadBytes(bufs [][]float64) int64 {
	var n int64
	for _, b := range bufs {
		n += int64(len(b)) * float64Size
	}
	return n
}

// AllGatherFixed exchanges one fixed-size opaque record per worker:
// recs[w] is worker w's serialized contribution (the per-worker best
// splits of Section 2.2.1). All entries must be non-nil with one shared
// length. On the simulation the records are already in place; on a
// distributed cluster every non-hosted entry is overwritten with that
// rank's record.
func (c *Cluster) AllGatherFixed(phase string, recs [][]byte) {
	if len(recs) != c.w {
		panic(fmt.Sprintf("cluster: %d records for %d workers", len(recs), c.w))
	}
	b := len(recs[0])
	for w, r := range recs {
		if r == nil || len(r) != b {
			panic(fmt.Sprintf("cluster: record %d has %d bytes, record 0 has %d", w, len(r), b))
		}
	}
	c.collective(phase, OpAllGather, int64(c.w)*int64(c.w-1)*int64(b),
		c.simTime(ceilLog2(c.w), float64(c.w-1)*float64(b)), func() error {
			return c.tr.AllGather(phase, recs)
		})
}

// Broadcast charges a binomial-tree broadcast of b payload bytes from one
// root to the other W-1 workers (e.g. the instance-placement bitmap of
// vertical partitioning, Section 3.1.3). The payload itself is replicated
// state every rank derives locally, so on a distributed cluster the
// charge is realized as shadow traffic of exactly the charged volume
// (rank 0 to every peer), keeping measured equal to accounted.
func (c *Cluster) Broadcast(phase string, b int64) {
	c.broadcast(phase, b, func() error {
		return c.shadow(phase, func(send [][]int64) {
			for j := 1; j < c.w; j++ {
				send[0][j] = b
			}
		})
	})
}

// BroadcastBytes is the data-carrying form of Broadcast: buf moves from
// the root worker to every other worker, charged exactly like Broadcast.
// On the simulation the payload is already in place; on a distributed
// cluster the root's bytes overwrite every peer's buf. len(buf) must be
// identical at every rank. It carries decisions only one rank can make —
// the early-stopping verdict, instance-placement bitmaps of sharded
// vertical training — so every rank proceeds from identical bytes.
func (c *Cluster) BroadcastBytes(phase string, buf []byte, root int) {
	c.broadcast(phase, int64(len(buf)), func() error {
		return c.tr.Broadcast(phase, buf, root)
	})
}

// broadcast is the one charge of both broadcast forms.
func (c *Cluster) broadcast(phase string, b int64, wire func() error) {
	steps := ceilLog2(c.w)
	c.collective(phase, OpBroadcast, int64(c.w-1)*b, c.simTime(steps, float64(steps)*float64(b)), wire)
}

// PointToPoint charges a single b-byte message between two workers (or
// worker and master). Shadow traffic (rank 0 to rank 1) on a distributed
// cluster.
func (c *Cluster) PointToPoint(phase string, b int64) {
	c.collective(phase, OpPointToPoint, b, c.simTime(1, float64(b)), func() error {
		return c.shadow(phase, func(send [][]int64) { send[0][1] = b })
	})
}

// Shuffle charges an all-to-all repartition where sendBytes[i][j] bytes
// move from worker i to worker j (step 4 of the horizontal-to-vertical
// transformation). Simulated time is bounded by the busiest worker's
// send plus receive volume. On a distributed cluster the exact matrix is
// realized as shadow traffic (the repartitioned data is replicated state
// every rank derives locally).
func (c *Cluster) Shuffle(phase string, sendBytes [][]int64) {
	if len(sendBytes) != c.w {
		panic(fmt.Sprintf("cluster: shuffle matrix has %d rows for %d workers", len(sendBytes), c.w))
	}
	var total int64
	var busiest float64
	for i := 0; i < c.w; i++ {
		var out, in int64
		for j := 0; j < c.w; j++ {
			if i != j {
				out += sendBytes[i][j]
				in += sendBytes[j][i]
			}
		}
		total += out
		if v := float64(out + in); v > busiest {
			busiest = v
		}
	}
	c.collective(phase, OpShuffle, total, c.simTime(c.w-1, busiest), func() error {
		return c.tr.Shadow(phase, sendBytes) // the transport ignores the diagonal
	})
}

// ChargeComm records a raw communication volume of kind over the given
// number of latency steps; used by components that size a transfer
// themselves (the sketch exchange, QD3's raw repartition). The volume is
// realized as shadow traffic spread evenly over all ordered worker pairs
// (remainder bytes to the lexicographically first pairs) on a distributed
// cluster. Callers must therefore invoke it with identical arguments at
// every rank — true for all in-tree callers, whose volumes derive from
// replicated state.
func (c *Cluster) ChargeComm(phase string, kind OpKind, bytes int64, steps int) {
	c.collective(phase, kind, bytes, c.simTime(steps, float64(bytes)), func() error {
		return c.shadow(phase, func(send [][]int64) {
			pairs := int64(c.w) * int64(c.w-1)
			base, rem := bytes/pairs, bytes%pairs
			for i := 0; i < c.w; i++ {
				for j := 0; j < c.w; j++ {
					if i == j {
						continue
					}
					send[i][j] = base
					if rem > 0 {
						send[i][j]++
						rem--
					}
				}
			}
		})
	})
}

// collective is the one body of every collective: charge bytes and
// seconds of kind to phase, then — on a distributed cluster of more than
// one worker — run the wire operation, attributing its payload bytes and
// wall-clock to the phase's measured record. The simulation stops after
// the charge, so its measured record stays zero. A wire failure latches
// into the transport's sticky error (surfaced by Err) and the collective
// falls back to the local contribution, so the caller reaches a
// consistency boundary without blocking.
func (c *Cluster) collective(phase string, kind OpKind, bytes int64, seconds float64, wire func() error) {
	c.stats.addComm(phase, kind, bytes, seconds)
	if !c.Distributed() || c.w == 1 {
		return
	}
	before := c.tr.PayloadBytesSent()
	start := time.Now()
	_ = wire() // sticky in the transport; surfaced via Err()
	c.stats.addMeasured(phase, c.tr.PayloadBytesSent()-before, time.Since(start).Seconds())
}

// shadow is the wire operation of a charge-only collective: synthetic
// traffic shaped by fill, which populates the send matrix (send[i][j] =
// bytes from rank i to rank j) and must come out identical at every rank.
func (c *Cluster) shadow(phase string, fill func(send [][]int64)) error {
	send := make([][]int64, c.w)
	for i := range send {
		send[i] = make([]int64, c.w)
	}
	fill(send)
	return c.tr.Shadow(phase, send)
}

func ceilLog2(x int) int {
	n := 0
	for p := 1; p < x; p <<= 1 {
		n++
	}
	return n
}
