// Package transporttest is the conformance suite every cluster.Transport
// backend must pass. It drives the full collective surface — all-reduce,
// reduce-scatter (even, ceil-sized and ragged bounds), sharded gather,
// one-shard gather, fixed-record all-gather, broadcast and every
// charge-only (modeled) collective — across several deployment sizes and
// aligned, ragged, tiny and empty payloads, and checks three invariants:
//
//  1. Values: reductions equal the rank-ordered sum bit for bit (the
//     simulation's reduction order), with distributed ownership semantics
//     (non-owned regions keep the local contribution).
//  2. Accounting: every handle charges exactly what a plain simulated
//     cluster charges for the same sequence — accounted bytes, modeled
//     bytes and alpha-beta seconds are backend-independent.
//  3. Measurement: on a distributed backend, after SyncMeasured every
//     phase's measured payload bytes equal its accounted minus its
//     modeled bytes, and every charge-only phase measures zero.
package transporttest

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"vero/internal/cluster"
)

// Backend constructs a W-worker deployment for the suite. New returns one
// cluster handle per process of the deployment: the simulated backend
// returns a single handle hosting all W workers, a real transport returns
// W handles, one per rank. Cleanup is the constructor's job (t.Cleanup).
type Backend struct {
	Name string
	New  func(t *testing.T, w int) []*cluster.Cluster
}

// Sim is the simulated (in-process, charge-only) backend.
func Sim() Backend {
	return Backend{
		Name: "sim",
		New: func(t *testing.T, w int) []*cluster.Cluster {
			return []*cluster.Cluster{cluster.New(w, cluster.Gigabit())}
		},
	}
}

// TCP is the socket backend over a loopback mesh.
func TCP() Backend {
	return Backend{
		Name: "tcp",
		New: func(t *testing.T, w int) []*cluster.Cluster {
			return Loopback(t, w, cluster.Gigabit())
		},
	}
}

// Loopback builds a live W-rank TCP deployment on 127.0.0.1: it pre-binds
// one port-0 listener per rank (sidestepping the address chicken-and-egg
// of config-file topologies) and connects all ranks concurrently. The
// returned handles are rank-ordered; Close is registered on tb.
func Loopback(tb testing.TB, w int, model cluster.NetworkModel) []*cluster.Cluster {
	tb.Helper()
	handles, errs := ConnectMesh(tb, MeshConfig{W: w, Model: model, OpTimeout: 10 * time.Second})
	for r, err := range errs {
		if err != nil {
			tb.Fatalf("connecting rank %d: %v", r, err)
		}
	}
	return handles
}

// Run drives the conformance suite against the backend.
func Run(t *testing.T, b Backend) {
	for _, w := range []int{2, 3, 5, 8} {
		t.Run(fmt.Sprintf("W%d", w), func(t *testing.T) {
			handles := b.New(t, w)
			var wg sync.WaitGroup
			wg.Add(len(handles))
			for _, h := range handles {
				go func(h *cluster.Cluster) {
					defer wg.Done()
					runScript(t, h, w)
					if err := h.SyncMeasured(); err != nil {
						t.Errorf("rank %d: SyncMeasured: %v", h.Rank(), err)
					}
				}(h)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			// Reference accounting: the same script on a plain simulation.
			ref := cluster.New(w, cluster.Gigabit())
			runScript(t, ref, w)
			for _, h := range handles {
				checkAccounting(t, h, ref)
				// Charge-only phases model all they charge, measure nothing.
				for _, name := range []string{"conf.bcast", "conf.p2p", "conf.shuffle", "conf.charge"} {
					if p := h.Stats().Phase(name); p.TotalBytes() == 0 || p.ModeledBytes != p.TotalBytes() || p.MeasuredBytes != 0 {
						t.Errorf("rank %d: charge-only phase %s accounted %d bytes, modeled %d, measured %d",
							h.Rank(), name, p.TotalBytes(), p.ModeledBytes, p.MeasuredBytes)
					}
				}
			}
		})
	}
}

// payloadLens returns the element counts the script sweeps: empty, a
// single element (fewer elements than workers), a ragged length no worker
// count divides, and an aligned multiple of W.
func payloadLens(w int) []int {
	return []int{0, 1, 3*w + 1, 8 * w}
}

// vec is rank v's deterministic contribution for an n-element reduction.
func vec(v, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64((v*2654435761+i*40503)%2048)/16.0 - 60.0
	}
	return xs
}

// rankOrderSum is the expected reduction: zero-initialized, contributions
// added in rank order — bit for bit what every conforming backend returns.
func rankOrderSum(w, n int) []float64 {
	acc := make([]float64, n)
	for v := 0; v < w; v++ {
		for i, x := range vec(v, n) {
			acc[i] += x
		}
	}
	return acc
}

// hostedSum is one handle's contribution to an n-element reduction: the
// sum of its hosted workers' vectors.
func hostedSum(c *cluster.Cluster, w, n int) []float64 {
	sum := make([]float64, n)
	c.SumHosted(hostedLocals(c, w, n), sum)
	return sum
}

// hostedLocals builds the locals slice for one handle: rank v's vector at
// every hosted index, nil elsewhere.
func hostedLocals(c *cluster.Cluster, w, n int) [][]float64 {
	locals := make([][]float64, w)
	for v := 0; v < w; v++ {
		if c.HostsWorker(v) {
			locals[v] = vec(v, n)
		}
	}
	return locals
}

// localContribution is what a distributed rank's buffer holds outside the
// segments it owns; on the simulation every element is globally reduced.
func localContribution(c *cluster.Cluster, w, n int) []float64 {
	if !c.Distributed() {
		return rankOrderSum(w, n)
	}
	return vec(c.Rank(), n)
}

// checkRegion compares got[lo:hi] against want[lo:hi] bit for bit.
func checkRegion(t *testing.T, c *cluster.Cluster, op string, got, want []float64, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if got[i] != want[i] {
			t.Errorf("rank %d: %s: element %d = %v, want %v", c.Rank(), op, i, got[i], want[i])
			return
		}
	}
}

// checkOwned verifies distributed ownership semantics: segment s of bounds
// holds the global sum at its owning rank, and every other element holds
// the local contribution. On the simulation everything is the global sum.
func checkOwned(t *testing.T, c *cluster.Cluster, op string, got []float64, bounds []int, w, n int) {
	t.Helper()
	global := rankOrderSum(w, n)
	local := localContribution(c, w, n)
	segs := len(bounds) - 1
	for i := range got {
		want := local[i]
		for s := 0; s < segs; s++ {
			if i >= bounds[s] && i < bounds[s+1] && (!c.Distributed() || s == c.Rank()) {
				want = global[i]
			}
		}
		if got[i] != want {
			t.Errorf("rank %d: %s: element %d = %v, want %v (bounds %v)", c.Rank(), op, i, got[i], want, bounds)
			return
		}
	}
}

// runScript executes the canonical collective sequence on one handle. It
// must stay deterministic and handle-independent: every rank of a
// distributed deployment replays it against the same phase labels, which
// is also what keeps the frames' sequence numbers aligned.
func runScript(t *testing.T, c *cluster.Cluster, w int) {
	shards := min(3, w)
	for _, n := range payloadLens(w) {
		global := rankOrderSum(w, n)

		got := hostedSum(c, w, n)
		c.AllReduce("conf.allreduce", got)
		checkRegion(t, c, "all-reduce", got, global, 0, n)

		dst := hostedSum(c, w, n)
		c.AllReduce("conf.allreduce.into", dst)
		checkRegion(t, c, "all-reduce-into", dst, global, 0, n)

		sum := hostedSum(c, w, n)
		per := (n + w - 1) / w // ceil-sized segments: high ranks may own none
		bounds := make([]int, w+1)
		for v := 0; v < w; v++ {
			bounds[v], bounds[v+1] = min(v*per, n), min((v+1)*per, n)
		}
		c.ReduceScatter("conf.rs", bounds, sum)
		checkOwned(t, c, "reduce-scatter", sum, bounds, w, n)

		if n >= 2 {
			ragged := []int{0, 1, n} // two deliberately unequal segments
			dst = hostedSum(c, w, n)
			c.ReduceScatter("conf.rs.bounds", ragged, dst)
			checkOwned(t, c, "reduce-scatter-bounds", dst, ragged, w, n)
		}

		got = hostedSum(c, w, n)
		c.ShardedGather("conf.sg", shards, nil, got)
		checkOwned(t, c, "sharded-gather", got, cluster.EvenBounds(n, shards), w, n)

		got = hostedSum(c, w, n)
		c.ShardedGather("conf.gather", 1, nil, got)
		rootBounds := []int{0, n} // one segment, owned by rank 0
		checkOwned(t, c, "gather", got, rootBounds, w, n)

		// Merged-contribution variants: the buffer enters holding the
		// hosted workers' merged contribution.
		buf := append([]float64(nil), localContribution(c, w, n)...)
		c.AllReduce("conf.merged.ar", buf)
		checkRegion(t, c, "all-reduce-merged", buf, global, 0, n)

		buf = append([]float64(nil), localContribution(c, w, n)...)
		c.ReduceScatter("conf.merged.rs", nil, buf)
		checkOwned(t, c, "reduce-scatter-merged", buf, cluster.EvenBounds(n, w), w, n)

		buf = append([]float64(nil), localContribution(c, w, n)...)
		c.ShardedGather("conf.merged.sg", shards, nil, buf)
		checkOwned(t, c, "sharded-gather-merged", buf, cluster.EvenBounds(n, shards), w, n)

		// Fixed-record all-gather, including zero-length records.
		for _, b := range []int{0, 24} {
			recs := make([][]byte, w)
			for v := 0; v < w; v++ {
				recs[v] = make([]byte, b)
				if c.HostsWorker(v) {
					for i := range recs[v] {
						recs[v][i] = byte(v*31 + i)
					}
				}
			}
			c.AllGatherFixed("conf.ag", recs)
			for v := 0; v < w; v++ {
				for i := range recs[v] {
					if recs[v][i] != byte(v*31+i) {
						t.Errorf("rank %d: all-gather: record %d byte %d = %#x, want %#x", c.Rank(), v, i, recs[v][i], byte(v*31+i))
						return
					}
				}
			}
		}

		// Data-carrying broadcast: the root's bytes must arrive verbatim at
		// every rank, for several roots and payload sizes (including empty).
		for _, root := range []int{0, w - 1} {
			for _, b := range []int{0, 17} {
				buf := make([]byte, b)
				if !c.Distributed() || c.Rank() == root {
					for i := range buf {
						buf[i] = byte(root*13 + i)
					}
				}
				c.BroadcastBytes("conf.bcastbytes", buf, root)
				for i := range buf {
					if buf[i] != byte(root*13+i) {
						t.Errorf("rank %d: broadcast-bytes root %d: byte %d = %#x, want %#x", c.Rank(), root, i, buf[i], byte(root*13+i))
						return
					}
				}
			}
		}

		// Charge-only collectives: charged and modeled on every backend,
		// never put on the wire.
		c.Broadcast("conf.bcast", 1000)
		smallRecs := make([][]byte, w)
		for v := range smallRecs {
			smallRecs[v] = make([]byte, 64)
		}
		c.AllGatherFixed("conf.smallag", smallRecs)
		c.PointToPoint("conf.p2p", 128)
		matrix := make([][]int64, w)
		for i := range matrix {
			matrix[i] = make([]int64, w)
			for j := range matrix[i] {
				if i != j {
					matrix[i][j] = int64((i + 1) * (j + 2))
				}
			}
		}
		c.Shuffle("conf.shuffle", matrix)
		c.ChargeComm("conf.charge", cluster.OpShuffle, 997, 1)
	}
	if err := c.Err(); err != nil {
		t.Errorf("rank %d: transport error after script: %v", c.Rank(), err)
	}
}

// checkAccounting pins one handle's per-phase records to the simulated
// reference: identical accounted bytes, modeled bytes and model seconds,
// and — on a distributed handle, after SyncMeasured — measured payload
// bytes equal to the accounted minus the modeled bytes of every phase.
func checkAccounting(t *testing.T, h, ref *cluster.Cluster) {
	t.Helper()
	for _, name := range ref.Stats().PhaseNames() {
		want := ref.Stats().Phase(name)
		got := h.Stats().Phase(name)
		if got.TotalBytes() != want.TotalBytes() {
			t.Errorf("rank %d: phase %s accounted %d bytes, reference %d", h.Rank(), name, got.TotalBytes(), want.TotalBytes())
		}
		if got.ModeledBytes != want.ModeledBytes {
			t.Errorf("rank %d: phase %s modeled %d bytes, reference %d", h.Rank(), name, got.ModeledBytes, want.ModeledBytes)
		}
		if got.CommSeconds != want.CommSeconds {
			t.Errorf("rank %d: phase %s modeled %v comm seconds, reference %v", h.Rank(), name, got.CommSeconds, want.CommSeconds)
		}
		if h.Distributed() {
			if got.MeasuredBytes != got.TotalBytes()-got.ModeledBytes {
				t.Errorf("rank %d: phase %s measured %d bytes, accounted %d, modeled %d", h.Rank(), name, got.MeasuredBytes, got.TotalBytes(), got.ModeledBytes)
			}
		} else if got.MeasuredBytes != 0 {
			t.Errorf("rank %d: phase %s measured %d bytes on the simulation", h.Rank(), name, got.MeasuredBytes)
		}
	}
	if h.Distributed() && h.WireBytes() == 0 {
		t.Errorf("rank %d: zero wire bytes after a distributed script", h.Rank())
	}
}
