// Package cluster implements the simulated distributed runtime that stands
// in for the paper's 8-node Spark cluster.
//
// The paper's conclusions rest on (a) how many bytes each data-management
// policy moves per tree and (b) how much computation each storage pattern
// performs. Both are reproduced faithfully: collectives account exact byte
// counts, and a configurable NetworkModel (latency alpha + bandwidth beta,
// the standard cost model of Thakur et al. [36], which the paper cites for
// its aggregation methods) converts them into simulated seconds.
// Computation time is measured for real, per worker, and the per-phase
// record keeps the maximum across workers — the makespan a real cluster
// would observe. Work every worker would perform identically (Replicated)
// is executed and charged once per process: the makespan of W identical
// passes is one pass.
//
// Workers can execute sequentially (deterministic timing on a single core,
// the default) or concurrently via goroutines; results are identical
// because every reduction is order-normalized.
package cluster

import (
	"fmt"
	"sync"
	"time"
)

// NetworkModel converts transferred bytes into simulated seconds using the
// alpha-beta model: each collective step costs LatencySec, and each byte
// costs 1/BandwidthBytesPerSec.
type NetworkModel struct {
	LatencySec           float64
	BandwidthBytesPerSec float64
}

// Gigabit models the paper's laboratory cluster NICs (Section 5.1,
// 1 Gbps Ethernet).
func Gigabit() NetworkModel {
	return NetworkModel{LatencySec: 1e-4, BandwidthBytesPerSec: 125e6}
}

// TenGigabit models the paper's production cluster NICs (Section 6,
// 10 Gbps Ethernet).
func TenGigabit() NetworkModel {
	return NetworkModel{LatencySec: 5e-5, BandwidthBytesPerSec: 1.25e9}
}

// Cluster is a cluster of W workers. By default every worker is simulated
// in-process and communication is only accounted; with WithTransport the
// cluster becomes one rank of a real W-process deployment and collectives
// additionally move payloads over the wire.
type Cluster struct {
	w          int
	net        NetworkModel
	concurrent bool
	stats      *Stats
	tr         Transport
}

// Option configures a Cluster.
type Option func(*Cluster)

// WithConcurrent makes Parallel run workers on goroutines instead of
// sequentially. Timing fidelity requires at least W idle cores; the
// sequential default measures per-worker busy time exactly on any machine.
func WithConcurrent() Option { return func(c *Cluster) { c.concurrent = true } }

// New returns a cluster of w workers over the given network model.
func New(w int, net NetworkModel, opts ...Option) *Cluster {
	if w <= 0 {
		panic(fmt.Sprintf("cluster: worker count %d", w))
	}
	c := &Cluster{w: w, net: net, stats: newStats(w), tr: simulation{w}}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Workers returns the number of workers W.
func (c *Cluster) Workers() int { return c.w }

// Net returns the network model.
func (c *Cluster) Net() NetworkModel { return c.net }

// Stats returns the live statistics collector.
func (c *Cluster) Stats() *Stats { return c.stats }

// Parallel runs fn(worker) for every worker and records, under the given
// phase, the maximum per-worker busy time — the makespan of the phase. It
// is for partitioned work, where each worker's share differs; on the
// sequential simulation its wall time is the sum over workers.
func (c *Cluster) Parallel(phase string, fn func(worker int)) {
	elapsed := make([]time.Duration, c.w)
	if c.concurrent {
		var wg sync.WaitGroup
		wg.Add(c.w)
		for w := 0; w < c.w; w++ {
			go func(w int) {
				defer wg.Done()
				start := time.Now()
				fn(w)
				elapsed[w] = time.Since(start)
			}(w)
		}
		wg.Wait()
	} else {
		for w := 0; w < c.w; w++ {
			start := time.Now()
			fn(w)
			elapsed[w] = time.Since(start)
		}
	}
	var max time.Duration
	for w, e := range elapsed {
		c.stats.addWorkerComp(w, e)
		if e > max {
			max = e
		}
	}
	c.stats.addComp(phase, max.Seconds())
}

// FirstError collapses a per-worker error slice to the first failure.
// It is the companion of Parallel for fallible worker bodies: each worker
// writes only its own slot, so filling the slice needs no synchronization
// even on a concurrent cluster.
func FirstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// simTime converts one logical transfer of b bytes over `steps` collective
// rounds into seconds under the alpha-beta model.
func (c *Cluster) simTime(steps int, bytesPerStep float64) float64 {
	return float64(steps)*c.net.LatencySec + bytesPerStep/c.net.BandwidthBytesPerSec
}
