package cluster

import (
	"fmt"
	"time"
)

// Transport moves collective payloads between the processes of a
// distributed cluster. A real backend (such as tcptransport) carries each
// rank's contributions over the network. The default simulated backend
// has a private one that moves nothing: every worker lives in one
// process, so each collective's data is already in place.
//
// Every method is called with identical arguments, in identical order, at
// every rank: the training loop is SPMD and each process replays the same
// deterministic sequence of collectives. A transport may (and tcptransport
// does) verify this alignment on the wire and fail fast on divergence.
//
// Reduction order contract: any method that sums contributions MUST
// accumulate them in rank order 0..W-1 starting from zero — the exact
// order of Cluster.SumHosted — so that models trained over a real
// transport are bit-identical to simulated runs (floating-point addition
// does not associate).
type Transport interface {
	// Workers returns the deployment size W.
	Workers() int
	// Rank returns this process's rank in [0, W).
	Rank() int

	// AllReduce completes a global element-wise sum: buf holds this rank's
	// contribution on entry and the rank-ordered global sum on return, at
	// every rank.
	AllReduce(phase string, buf []float64) error
	// ReduceScatter is AllReduce minus the final all-gather: segment s of
	// bounds (bounds[s] to bounds[s+1], owned by rank s) is globally
	// reduced at its owner only; everything else keeps the local
	// contribution. len(bounds)-1 may be less than W, leaving high ranks
	// owning nothing. bounds must be identical at every rank.
	ReduceScatter(phase string, buf []float64, bounds []int) error
	// AllGather exchanges fixed-size opaque records: recs[Rank()] is this
	// rank's contribution, and every other entry is overwritten with the
	// corresponding rank's record. All entries must share one length.
	AllGather(phase string, recs [][]byte) error
	// Broadcast moves buf from the root rank to every peer: on entry only
	// the root's buf is meaningful; on return every rank holds the root's
	// bytes. len(buf) must be identical at every rank.
	Broadcast(phase string, buf []byte, root int) error
	// Shadow moves synthetic traffic shaped like a charged collective:
	// send[i][j] payload bytes from rank i to rank j (diagonal ignored).
	// It exists so that charge-only collectives (Broadcast, PointToPoint,
	// Shuffle, ChargeComm) put real, measurable bytes on the wire in
	// exactly the volume the alpha-beta model accounts.
	Shadow(phase string, send [][]int64) error

	// PayloadBytesSent returns the cumulative collective payload bytes
	// this rank has sent (excluding framing overhead); the cluster diffs
	// it around each operation to attribute measured bytes to phases.
	PayloadBytesSent() int64
	// WireBytes returns the raw bytes written to the network including
	// framing — what a packet counter on the NIC would see.
	WireBytes() int64

	// Err returns the transport's sticky error: the first failure any
	// operation hit. Once set, every subsequent operation fails fast.
	Err() error
	// Close releases connections; pending operations fail.
	Close() error
}

// simulation is the transport of the default backend: one process hosts
// every worker, so nothing crosses a wire. Collectives stop at their
// charge on it (see collective), so its data methods are never reached
// and its measured record stays zero.
type simulation struct{ w int }

func (s simulation) Workers() int                               { return s.w }
func (simulation) Rank() int                                    { return 0 }
func (simulation) AllReduce(string, []float64) error            { return nil }
func (simulation) ReduceScatter(string, []float64, []int) error { return nil }
func (simulation) AllGather(string, [][]byte) error             { return nil }
func (simulation) Broadcast(string, []byte, int) error          { return nil }
func (simulation) Shadow(string, [][]int64) error               { return nil }
func (simulation) PayloadBytesSent() int64                      { return 0 }
func (simulation) WireBytes() int64                             { return 0 }
func (simulation) Err() error                                   { return nil }
func (simulation) Close() error                                 { return nil }

// WithTransport attaches a real transport to the cluster: collectives move
// payloads through it (in simulation-identical reduction order) while
// still charging the alpha-beta model, and Stats additionally records
// measured bytes and wall-clock per phase. The cluster then represents
// one rank of a W-process deployment; see ParallelLocal, Replicated,
// HostsWorker and SumHosted for the work-placement seams.
func WithTransport(tr Transport) Option {
	return func(c *Cluster) {
		if tr.Workers() != c.w {
			panic(fmt.Sprintf("cluster: transport has %d workers, cluster has %d", tr.Workers(), c.w))
		}
		c.tr = tr
	}
}

// Distributed reports whether a real transport is attached.
func (c *Cluster) Distributed() bool {
	_, sim := c.tr.(simulation)
	return !sim
}

// Rank returns this process's rank: 0 on the simulated backend, which
// hosts every worker in-process.
func (c *Cluster) Rank() int { return c.tr.Rank() }

// HostsWorker reports whether logical worker w runs in this process. The
// simulation hosts all workers; a distributed cluster hosts exactly its
// rank (one logical worker per process — partial sums over several local
// workers would change the floating-point reduction order).
func (c *Cluster) HostsWorker(w int) bool {
	return !c.Distributed() || w == c.Rank()
}

// SumHosted element-wise sums the hosted workers' arrays into dst,
// overwriting it: the contribution a reduction's in-place buffer holds on
// entry. Exactly the hosted workers' entries of locals must be non-nil
// (all of them on the simulation — ParallelLocal produces this shape),
// all sharing dst's length, and dst must not alias any local: it is
// cleared before the sum, so an aliased worker's contribution would
// silently vanish. Workers are added in index order, the order every
// transport reproduces on the wire.
func (c *Cluster) SumHosted(locals [][]float64, dst []float64) {
	if len(locals) != c.w {
		panic(fmt.Sprintf("cluster: %d locals for %d workers", len(locals), c.w))
	}
	n := len(dst)
	for w, l := range locals {
		if hosted := c.HostsWorker(w); hosted != (l != nil) {
			panic(fmt.Sprintf("cluster: worker %d hosted=%v but local present=%v", w, hosted, l != nil))
		}
		if l == nil {
			continue
		}
		if len(l) != n {
			panic(fmt.Sprintf("cluster: worker %d array has %d entries, dst has %d", w, len(l), n))
		}
		if n > 0 && &l[0] == &dst[0] {
			panic(fmt.Sprintf("cluster: dst aliases worker %d's array", w))
		}
	}
	clear(dst)
	for _, l := range locals {
		for i, v := range l {
			dst[i] += v
		}
	}
}

// Replicated runs fn once for a replicated step: work every worker of a
// real cluster performs identically on identical state (the vertical
// quadrants' gradient pass and index updates over all N instances, a
// leader's scan of fully reduced histograms), so its result is logically
// present at every worker. W simulated workers hosted in one process would
// compute the same answer W times; the process computes it once, in
// sequential, concurrent and transport modes alike. The measured duration
// is added to the phase's computation seconds — the makespan of W
// identical passes is one pass — and to the busy time of the process's
// lead worker (worker 0 on the simulation, the rank's own worker on a
// distributed cluster), so the sum of WorkerComp stays host seconds.
func (c *Cluster) Replicated(phase string, fn func()) {
	start := time.Now()
	fn()
	e := time.Since(start)
	c.stats.addWorkerComp(c.Rank(), e)
	c.stats.addComp(phase, e.Seconds())
}

// ParallelLocal runs fn for the workers hosted by this process: all of
// them (exactly Parallel) on the simulation, only this rank's worker on a
// distributed cluster. It is the placement seam for sharded work — per-row
// or per-feature-group loops where each rank computes only its own shard.
// Loops whose side effects every rank needs (replicated state that differs
// per worker) must keep using Parallel; a step whose result is the same at
// every worker runs through Replicated.
func (c *Cluster) ParallelLocal(phase string, fn func(worker int)) {
	if !c.Distributed() {
		c.Parallel(phase, fn)
		return
	}
	r := c.Rank()
	start := time.Now()
	fn(r)
	e := time.Since(start)
	c.stats.addWorkerComp(r, e)
	c.stats.addComp(phase, e.Seconds())
}

// Err returns the transport's sticky error (nil on the simulation). After
// a transport failure, collectives degrade to their local contributions
// without blocking; callers poll Err at a consistency boundary (the
// trainer does so per tree) and abort with the rank-attributed cause.
func (c *Cluster) Err() error { return c.tr.Err() }

// Close releases the transport (no-op on the simulation).
func (c *Cluster) Close() error { return c.tr.Close() }

// WireBytes returns the raw bytes this rank wrote to the network,
// including frame headers and checksums (zero on the simulation). The
// per-phase measured bytes count payloads only, so this is the end-to-end
// framing overhead check.
func (c *Cluster) WireBytes() int64 { return c.tr.WireBytes() }

// SyncMeasured merges the per-rank measured communication records across
// the deployment: measured bytes count what each rank sent, so the
// per-phase global volume is their sum, and measured wall-clock is the
// slowest rank's (the makespan). After SyncMeasured, every rank's Stats
// reports deployment-global measured numbers directly comparable to the
// (already global) accounted bytes — the measured-vs-predicted table.
// No-op on the simulation.
func (c *Cluster) SyncMeasured() error {
	if !c.Distributed() {
		return nil
	}
	names, bytes, secs := c.stats.measuredSnapshot()
	rec := encodeMeasured(names, bytes, secs)
	recs := make([][]byte, c.w)
	for i := range recs {
		recs[i] = make([]byte, len(rec))
	}
	copy(recs[c.Rank()], rec)
	// The sync itself is bookkeeping, not part of any training phase: call
	// the transport directly so its bytes land in no phase record.
	if err := c.tr.AllGather("cluster.syncstats", recs); err != nil {
		return fmt.Errorf("cluster: syncing measured stats: %w", err)
	}
	totalBytes := make([]int64, len(names))
	maxSecs := make([]float64, len(names))
	for r := 0; r < c.w; r++ {
		rb, rs, err := decodeMeasured(recs[r], names)
		if err != nil {
			return fmt.Errorf("cluster: measured stats from rank %d: %w", r, err)
		}
		for i := range names {
			totalBytes[i] += rb[i]
			if rs[i] > maxSecs[i] {
				maxSecs[i] = rs[i]
			}
		}
	}
	c.stats.setMeasured(names, totalBytes, maxSecs)
	return nil
}
