package cluster

import (
	"math"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0, Gigabit())
}

func TestParallelRunsEveryWorker(t *testing.T) {
	for _, concurrent := range []bool{false, true} {
		var opts []Option
		if concurrent {
			opts = append(opts, WithConcurrent())
		}
		c := New(4, Gigabit(), opts...)
		var visited int32
		c.Parallel("phase", func(w int) {
			atomic.AddInt32(&visited, 1<<uint(w))
		})
		if visited != 15 {
			t.Fatalf("concurrent=%v: visited mask %b, want 1111", concurrent, visited)
		}
		if c.Stats().Phase("phase").CompSeconds < 0 {
			t.Fatal("negative comp time")
		}
	}
}

func TestParallelRecordsMakespan(t *testing.T) {
	c := New(3, Gigabit())
	c.Parallel("p", func(w int) {
		if w == 1 {
			time.Sleep(20 * time.Millisecond)
		}
	})
	got := c.Stats().Phase("p").CompSeconds
	if got < 0.019 {
		t.Fatalf("makespan %v, want >= slowest worker's 20ms", got)
	}
	// Sequential execution must not sum all workers into the makespan:
	// the other two workers are ~instant, so the total stays near 20ms.
	if got > 0.2 {
		t.Fatalf("makespan %v looks like a sum across workers", got)
	}
}

// hostedSum reduces the locals into a fresh buffer with SumHosted: the
// in-place contribution every reduction takes.
func hostedSum(c *Cluster, locals [][]float64) []float64 {
	sum := make([]float64, len(locals[0]))
	c.SumHosted(locals, sum)
	return sum
}

func TestAllReduceSum(t *testing.T) {
	c := New(4, Gigabit())
	locals := [][]float64{
		{1, 2}, {10, 20}, {100, 200}, {1000, 2000},
	}
	sum := []float64{9, 9} // must be overwritten, not accumulated
	c.SumHosted(locals, sum)
	c.AllReduce("agg", sum)
	if sum[0] != 1111 || sum[1] != 2222 {
		t.Fatalf("sum = %v", sum)
	}
	p := c.Stats().Phase("agg")
	// Ring all-reduce: per-worker 2*(W-1)/W*n; total = W times that.
	n := int64(2 * 8)
	want := 2 * int64(3) * n / 4 * 4
	if p.Bytes[OpAllReduce] != want {
		t.Fatalf("bytes = %d, want %d", p.Bytes[OpAllReduce], want)
	}
	if p.CommSeconds <= 0 {
		t.Fatal("no simulated comm time")
	}
}

func TestAllReduceMismatchedArity(t *testing.T) {
	c := New(2, Gigabit())
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched locals did not panic")
		}
	}()
	c.SumHosted([][]float64{{1}}, make([]float64, 1))
}

// TestSumHostedRejectsMisuse pins SumHosted's remaining checks: every
// hosted worker present, shared lengths, and no aliasing of dst.
func TestSumHostedRejectsMisuse(t *testing.T) {
	a, b := []float64{1, 2}, []float64{3, 4}
	cases := map[string]func(c *Cluster){
		"absent hosted worker": func(c *Cluster) { c.SumHosted([][]float64{a, nil}, make([]float64, 2)) },
		"length mismatch":      func(c *Cluster) { c.SumHosted([][]float64{a, b}, make([]float64, 3)) },
		"aliased dst":          func(c *Cluster) { c.SumHosted([][]float64{a, b}, b) },
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f(New(2, Gigabit()))
		}()
	}
}

func TestReduceScatterSum(t *testing.T) {
	c := New(2, Gigabit())
	sum := hostedSum(c, [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}})
	c.ReduceScatter("agg", nil, sum)
	if sum[0] != 6 || sum[3] != 12 {
		t.Fatalf("sum = %v", sum)
	}
	p := c.Stats().Phase("agg")
	// Reduce-scatter moves (W-1)/W of the array per worker: 2 workers,
	// 32 bytes payload -> 16 per worker, 32 total.
	if p.Bytes[OpReduceScatter] != 32 {
		t.Fatalf("bytes = %d, want 32", p.Bytes[OpReduceScatter])
	}
	// Reduce-scatter must be cheaper than all-reduce of the same payload.
	c2 := New(2, Gigabit())
	c2.AllReduce("agg", hostedSum(c2, [][]float64{{1, 2, 3, 4}, {5, 6, 7, 8}}))
	if p.CommSeconds >= c2.Stats().Phase("agg").CommSeconds {
		t.Fatal("reduce-scatter not cheaper than all-reduce")
	}
}

// TestShardUnevenLength checks the default segment layout of the scatter
// collectives on a length no worker count divides: EvenBounds covers
// every entry exactly once, in order.
func TestShardUnevenLength(t *testing.T) {
	bounds := EvenBounds(5, 3)
	if len(bounds) != 4 || bounds[0] != 0 || bounds[3] != 5 {
		t.Fatalf("bounds = %v, want 4 edges from 0 to 5", bounds)
	}
	for s := 0; s < 3; s++ {
		if bounds[s] > bounds[s+1] {
			t.Fatalf("bounds %v not ascending", bounds)
		}
	}
}

func TestGatherSum(t *testing.T) {
	c := New(4, Gigabit())
	sum := hostedSum(c, [][]float64{{1}, {2}, {3}, {4}})
	c.ShardedGather("agg", 1, nil, sum)
	if sum[0] != 10 {
		t.Fatalf("sum = %v", sum)
	}
	p := c.Stats().Phase("agg")
	if p.Bytes[OpGather] != 3*8 {
		t.Fatalf("bytes = %d, want 24", p.Bytes[OpGather])
	}
}

func TestShardedGatherFasterThanSingle(t *testing.T) {
	c1 := New(4, Gigabit())
	c1.ShardedGather("agg", 1, nil, make([]float64, 1000))
	c2 := New(4, Gigabit())
	c2.ShardedGather("agg", 4, nil, make([]float64, 1000))
	t1 := c1.Stats().Phase("agg").CommSeconds
	t2 := c2.Stats().Phase("agg").CommSeconds
	if t2 >= t1 {
		t.Fatalf("sharded gather (%v) not faster than single gather (%v)", t2, t1)
	}
	// Byte volume is identical — sharding only parallelizes it.
	if c1.Stats().Phase("agg").Bytes[OpGather] != c2.Stats().Phase("agg").Bytes[OpGather] {
		t.Fatal("sharding changed total bytes")
	}
}

// TestReductionChargesBuffersAsOnePayload: a reduction over several
// buffers is one collective of their combined size — the same bytes and
// seconds as one buffer of that length, not one latency term per buffer.
func TestReductionChargesBuffersAsOnePayload(t *testing.T) {
	ops := map[string]func(c *Cluster, bufs ...[]float64){
		"all-reduce":     func(c *Cluster, bufs ...[]float64) { c.AllReduce("p", bufs...) },
		"reduce-scatter": func(c *Cluster, bufs ...[]float64) { c.ReduceScatter("p", nil, bufs...) },
		"sharded-gather": func(c *Cluster, bufs ...[]float64) { c.ShardedGather("p", 2, nil, bufs...) },
	}
	for name, op := range ops {
		split, whole := New(3, Gigabit()), New(3, Gigabit())
		op(split, make([]float64, 5), make([]float64, 7))
		op(whole, make([]float64, 12))
		ps, pw := split.Stats().Phase("p"), whole.Stats().Phase("p")
		if ps.TotalBytes() != pw.TotalBytes() || ps.CommSeconds != pw.CommSeconds {
			t.Errorf("%s: two buffers charged %d bytes/%vs, one buffer %d bytes/%vs",
				name, ps.TotalBytes(), ps.CommSeconds, pw.TotalBytes(), pw.CommSeconds)
		}
	}
}

func TestBroadcastCost(t *testing.T) {
	c := New(8, Gigabit())
	c.Broadcast("split", 1000)
	p := c.Stats().Phase("split")
	if p.Bytes[OpBroadcast] != 7000 {
		t.Fatalf("bytes = %d, want 7000", p.Bytes[OpBroadcast])
	}
}

// TestAllGatherSmallCost: an all-gather of small fixed records (the
// per-worker best splits) charges every record to every other worker.
func TestAllGatherSmallCost(t *testing.T) {
	c := New(4, Gigabit())
	recs := make([][]byte, 4)
	for w := range recs {
		recs[w] = make([]byte, 100)
	}
	c.AllGatherFixed("split", recs)
	p := c.Stats().Phase("split")
	if p.Bytes[OpAllGather] != 4*3*100 {
		t.Fatalf("bytes = %d, want 1200", p.Bytes[OpAllGather])
	}
}

func TestShuffle(t *testing.T) {
	c := New(3, Gigabit())
	send := [][]int64{
		{0, 10, 20},
		{5, 0, 15},
		{1, 2, 0},
	}
	c.Shuffle("repart", send)
	p := c.Stats().Phase("repart")
	if p.Bytes[OpShuffle] != 53 {
		t.Fatalf("bytes = %d, want 53", p.Bytes[OpShuffle])
	}
}

func TestCommScalesWithBandwidth(t *testing.T) {
	big := make([]float64, 1<<16)
	slow := New(2, NetworkModel{LatencySec: 0, BandwidthBytesPerSec: 1e6})
	fast := New(2, NetworkModel{LatencySec: 0, BandwidthBytesPerSec: 1e8})
	slow.AllReduce("x", big)
	fast.AllReduce("x", big)
	ratio := slow.Stats().Phase("x").CommSeconds / fast.Stats().Phase("x").CommSeconds
	if math.Abs(ratio-100) > 1e-6 {
		t.Fatalf("time ratio = %v, want 100x", ratio)
	}
}

func TestMemGauge(t *testing.T) {
	c := New(2, Gigabit())
	g := c.Stats().Mem("histogram")
	g.Add(0, 100)
	g.Add(0, 50)
	g.Add(0, -120)
	g.Set(1, 70)
	if g.Cur[0] != 30 || g.Peak[0] != 150 {
		t.Fatalf("worker 0 gauge = %d peak %d", g.Cur[0], g.Peak[0])
	}
	if g.MaxPeak() != 150 {
		t.Fatalf("MaxPeak=%d", g.MaxPeak())
	}
	// Same name returns the same gauge.
	if c.Stats().Mem("histogram") != g {
		t.Fatal("Mem not idempotent")
	}
}

func TestTotalsAndString(t *testing.T) {
	c := New(2, Gigabit())
	c.Parallel("build", func(int) {})
	c.AllReduce("agg", hostedSum(c, [][]float64{{1}, {2}}))
	comp, comm, bytes := c.Stats().Totals()
	if comp < 0 || comm <= 0 || bytes <= 0 {
		t.Fatalf("Totals = %v %v %v", comp, comm, bytes)
	}
	if s := c.Stats().String(); len(s) == 0 {
		t.Fatal("empty String()")
	}
	names := c.Stats().PhaseNames()
	if len(names) != 2 || names[0] != "agg" || names[1] != "build" {
		t.Fatalf("PhaseNames = %v", names)
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4}
	for x, want := range cases {
		if got := ceilLog2(x); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", x, got, want)
		}
	}
}

func TestOpKindString(t *testing.T) {
	for k := OpKind(0); k < numOpKinds; k++ {
		if k.String() == "" {
			t.Fatalf("empty name for kind %d", k)
		}
	}
	if OpKind(99).String() != "op(99)" {
		t.Fatal("unknown kind formatting")
	}
}

// rankOnly is a Transport that only knows its place in the deployment:
// enough for the work-placement seams, which never touch the wire.
type rankOnly struct{ w, rank int }

func (r rankOnly) Workers() int                               { return r.w }
func (r rankOnly) Rank() int                                  { return r.rank }
func (rankOnly) AllReduce(string, []float64) error            { return nil }
func (rankOnly) ReduceScatter(string, []float64, []int) error { return nil }
func (rankOnly) AllGather(string, [][]byte) error             { return nil }
func (rankOnly) Broadcast(string, []byte, int) error          { return nil }
func (rankOnly) PayloadBytesSent() int64                      { return 0 }
func (rankOnly) WireBytes() int64                             { return 0 }
func (rankOnly) Err() error                                   { return nil }
func (rankOnly) Close() error                                 { return nil }

// TestReplicatedRunsOncePerProcess pins the replicated step in every mode:
// fn runs exactly once, the phase is charged that one pass, and the pass
// lands on the process's lead worker alone, so the sum of WorkerComp stays
// the host seconds spent.
func TestReplicatedRunsOncePerProcess(t *testing.T) {
	const w = 4
	modes := []struct {
		name string
		opts []Option
		lead int
	}{
		{"sequential", nil, 0},
		{"concurrent", []Option{WithConcurrent()}, 0},
		{"transport", []Option{WithTransport(rankOnly{w: w, rank: 2})}, 2},
	}
	for _, m := range modes {
		c := New(w, Gigabit(), m.opts...)
		calls := 0
		var inside time.Duration // the pass as fn itself measures it
		c.Replicated("p", func() {
			calls++
			start := time.Now()
			time.Sleep(time.Millisecond)
			inside = time.Since(start)
		})
		if calls != 1 {
			t.Fatalf("%s: fn ran %d times, want 1", m.name, calls)
		}
		phase := c.Stats().Phase("p").CompSeconds
		if phase < inside.Seconds() {
			t.Fatalf("%s: phase charged %.6fs, less than the pass of %v", m.name, phase, inside)
		}
		var sum time.Duration
		for v, d := range c.Stats().WorkerComp() {
			if v != m.lead && d != 0 {
				t.Fatalf("%s: worker %d charged %v, want only lead worker %d", m.name, v, d, m.lead)
			}
			sum += d
		}
		if sum.Seconds() != phase {
			t.Fatalf("%s: worker busy time %v, phase %.6fs: want the same single pass", m.name, sum, phase)
		}
	}
}

// TestCollectivesAllocateNothing pins the simulation's steady state: once
// a phase exists, no data collective allocates — neither the charge nor
// the skipped wire operation — so per-node reductions cost no garbage.
func TestCollectivesAllocateNothing(t *testing.T) {
	c := New(4, Gigabit())
	grad, hess := make([]float64, 64), make([]float64, 64)
	locals := [][]float64{make([]float64, 64), make([]float64, 64), make([]float64, 64), make([]float64, 64)}
	bounds := EvenBounds(64, 4)
	recs := [][]byte{make([]byte, 24), make([]byte, 24), make([]byte, 24), make([]byte, 24)}
	buf := make([]byte, 17)
	ops := map[string]func(){
		"SumHosted":               func() { c.SumHosted(locals, grad) },
		"AllReduce":               func() { c.AllReduce("p", grad, hess) },
		"ReduceScatter":           func() { c.ReduceScatter("p", bounds, grad, hess) },
		"ReduceScatter/even":      func() { c.ReduceScatter("p", nil, grad, hess) },
		"ShardedGather":           func() { c.ShardedGather("p", 4, bounds, grad, hess) },
		"ShardedGather/one-shard": func() { c.ShardedGather("p", 1, nil, grad) },
		"AllGatherFixed":          func() { c.AllGatherFixed("p", recs) },
		"Broadcast":               func() { c.Broadcast("p", 1000) },
		"BroadcastBytes":          func() { c.BroadcastBytes("p", buf, 0) },
	}
	for name, op := range ops {
		if n := testing.AllocsPerRun(100, op); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", name, n)
		}
	}
}
