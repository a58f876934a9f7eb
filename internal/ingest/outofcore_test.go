package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"vero/internal/cluster"
	"vero/internal/core"
	"vero/internal/datasets"
	"vero/internal/failpoint"
	"vero/internal/partition"
)

// oocPair builds one dataset two ways from the same cache image: the
// materialized warm load and the out-of-core mapped view. The caller must
// Close the returned view.
func oocPair(t *testing.T, n, d int, seed int64) (warm, ooc *datasets.Dataset, mc *MappedCache) {
	t.Helper()
	_, text := sampleLibSVM(t, n, d, 2, seed)
	cold, err := Ingest(strings.NewReader(text), Options{NumClass: 2, ChunkRows: 64})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCache(&buf, cold, cold.Prebin); err != nil {
		t.Fatal(err)
	}
	warm, err = ReadCache(bytes.NewReader(buf.Bytes()), "warm")
	if err != nil {
		t.Fatal(err)
	}
	mc, err = MapCacheBytes(buf.Bytes(), "ooc")
	if err != nil {
		t.Fatal(err)
	}
	ooc = mc.Dataset()
	if !ooc.OutOfCore() {
		t.Fatal("mapped dataset does not report out-of-core")
	}
	return warm, ooc, mc
}

// TestOutOfCoreBitIdentical is the tentpole acceptance property: for every
// quadrant's reference policy, training from the mmap-backed view produces
// a byte-identical model encoding to training from the materialized
// warm-cache dataset.
func TestOutOfCoreBitIdentical(t *testing.T) {
	warm, ooc, mc := oocPair(t, 300, 40, 33)
	defer mc.Close()
	for _, q := range []core.Quadrant{core.QD1, core.QD2, core.QD3, core.QD4} {
		want := encodeTrained(t, warm, q, 20)
		if got := encodeTrained(t, ooc, q, 20); !bytes.Equal(got, want) {
			t.Fatalf("%v: out-of-core model differs from in-memory", q)
		}
	}
}

// TestOutOfCoreBlockBoundaries pins the block-iterator edge cases: one-row
// blocks, a block larger than the dataset (single block), a ragged last
// block, and one-entry column chunks must all stay bit-identical — the
// chunking must never change what flows into any accumulator.
func TestOutOfCoreBlockBoundaries(t *testing.T) {
	warm, ooc, mc := oocPair(t, 150, 25, 7)
	defer mc.Close()
	for _, q := range []core.Quadrant{core.QD1, core.QD2, core.QD3, core.QD4} {
		want := encodeTrained(t, warm, q, 20)
		for _, bc := range []struct {
			name      string
			rows, nnz int
		}{
			{"rows=1,nnz=1", 1, 1},
			{"ragged rows=7", 7, 5},
			{"block>rows", 1000, 0},
		} {
			cfg, err := core.ConfigureQuadrant(q, core.Config{Trees: 4, Layers: 4, Splits: 20})
			if err != nil {
				t.Fatal(err)
			}
			cfg.BlockRows, cfg.BlockNNZ = bc.rows, bc.nnz
			res, err := core.Train(cluster.New(4, cluster.Gigabit()), ooc, cfg)
			if err != nil {
				t.Fatalf("%v %s: %v", q, bc.name, err)
			}
			got, err := res.Forest.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%v %s: model differs from in-memory", q, bc.name)
			}
		}
	}
}

// TestOutOfCoreTransformParity: the streamed QD4 transformation must
// charge exactly the bytes the materialized one does — same grouping, same
// per-variant shuffle volumes.
func TestOutOfCoreTransformParity(t *testing.T) {
	warm, ooc, mc := oocPair(t, 200, 30, 11)
	defer mc.Close()
	train := func(ds *datasets.Dataset) *core.Result {
		cfg, err := core.ConfigureQuadrant(core.QD4, core.Config{Trees: 2, Layers: 3, Splits: 20})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Train(cluster.New(4, cluster.Gigabit()), ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want, got := train(warm), train(ooc)
	if got.TransformBytes != want.TransformBytes {
		t.Fatalf("transform byte report differs:\nstreamed %+v\nmemory   %+v",
			got.TransformBytes, want.TransformBytes)
	}
	// The identical charges can accumulate in a different order across
	// phases, so the simulated time agrees to float rounding, not bit for
	// bit.
	if diff := got.CommSeconds - want.CommSeconds; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("simulated comm time differs: streamed %v, memory %v",
			got.CommSeconds, want.CommSeconds)
	}
}

// transformBytes returns the bytes each transform.* phase charged to cl.
func transformBytes(cl *cluster.Cluster) map[string]int64 {
	out := map[string]int64{}
	for _, name := range cl.Stats().PhaseNames() {
		p := cl.Stats().Phase(name)
		if b := p.TotalBytes(); b != 0 && strings.HasPrefix(name, "transform.") {
			out[name] = b
		}
	}
	return out
}

// TestTransformEntryPointsAgree states the transformation's parity
// directly: over one cache image, for every worker count and charge
// variant, the materialized, streamed and rank-sharded entry points return
// the same grouping and byte report and charge their clusters the same
// bytes per phase, and each rank's sharded shard is block for block the
// one the materialized transformation assembles for that worker.
func TestTransformEntryPointsAgree(t *testing.T) {
	warm, ooc, mc := oocPair(t, 120, 17, 7)
	defer mc.Close()
	var buf bytes.Buffer
	if err := WriteCache(&buf, warm, warm.Prebin); err != nil {
		t.Fatal(err)
	}
	path := writeCacheImage(t, buf.Bytes())
	for _, w := range []int{1, 2, 3, 5} {
		for _, charge := range []partition.Variant{partition.VariantNaive, partition.VariantCompressed, partition.VariantBlockified} {
			opts := partition.Options{
				Q: warm.Prebin.Q, SketchEps: warm.Prebin.SketchEps, Charge: charge,
				Splits: warm.Prebin.Splits, FeatCount: warm.Prebin.FeatCount,
			}
			memCl := cluster.New(w, cluster.Gigabit())
			mem, err := partition.Transform(memCl, warm.X, warm.Labels, opts)
			if err != nil {
				t.Fatal(err)
			}
			same := func(how string, cl *cluster.Cluster, res *partition.Result) {
				t.Helper()
				if !reflect.DeepEqual(res.Groups, mem.Groups) {
					t.Fatalf("W=%d %v %s: groups differ", w, charge, how)
				}
				if res.Bytes != mem.Bytes {
					t.Fatalf("W=%d %v %s: byte report %+v, materialized %+v", w, charge, how, res.Bytes, mem.Bytes)
				}
				if got, want := transformBytes(cl), transformBytes(memCl); !reflect.DeepEqual(got, want) {
					t.Fatalf("W=%d %v %s: charged %v, materialized %v", w, charge, how, got, want)
				}
			}
			cl := cluster.New(w, cluster.Gigabit())
			streamed, err := partition.TransformStreamed(cl, ooc.Blocks, ooc.Labels, opts)
			if err != nil {
				t.Fatal(err)
			}
			if streamed.Shards != nil {
				t.Fatalf("W=%d: streamed transformation assembled shards", w)
			}
			same("streamed", cl, streamed)
			for rank := 0; rank < w; rank++ {
				shard, err := ReadCacheShard(path, datasets.ShardCols, rank, w)
				if err != nil {
					t.Fatal(err)
				}
				cl := cluster.New(w, cluster.Gigabit())
				res, err := partition.TransformSharded(cl, shard.X, shard.Labels, shard.Shard, opts)
				if err != nil {
					t.Fatal(err)
				}
				how := fmt.Sprintf("rank %d sharded", rank)
				same(how, cl, res)
				for other, sh := range res.Shards {
					if (sh != nil) != (other == rank) {
						t.Fatalf("W=%d %s: shard slot %d filled=%v", w, how, other, sh != nil)
					}
				}
				got, want := res.Shards[rank].Data.Blocks, mem.Shards[rank].Data.Blocks
				if len(got) != len(want) {
					t.Fatalf("W=%d %s: %d blocks, materialized %d", w, how, len(got), len(want))
				}
				for i := range want {
					if !reflect.DeepEqual(got[i], want[i]) {
						t.Fatalf("W=%d %s: block %d differs from the materialized shard's", w, how, i)
					}
				}
			}
		}
	}
}

// TestOutOfCoreRejectsUnstreamable: policies that inherently materialize
// the dataset must be refused up front with a descriptive error, and an
// out-of-core dataset without its cache prebin is unusable.
func TestOutOfCoreRejectsUnstreamable(t *testing.T) {
	_, ooc, mc := oocPair(t, 100, 15, 3)
	defer mc.Close()

	cfg := core.Config{Trees: 2, Layers: 3, Quadrant: core.QD3, ColumnIndex: core.IndexColumnWise}
	if _, err := core.Train(cluster.New(2, cluster.Gigabit()), ooc, cfg); err == nil || !strings.Contains(err.Error(), "cannot stream") {
		t.Fatalf("column-wise index: %v, want cannot-stream rejection", err)
	}
	cfg = core.Config{Trees: 2, Layers: 3, Quadrant: core.QD4, FullCopy: true}
	if _, err := core.Train(cluster.New(2, cluster.Gigabit()), ooc, cfg); err == nil || !strings.Contains(err.Error(), "cannot stream") {
		t.Fatalf("full copy: %v, want cannot-stream rejection", err)
	}
	bare := &datasets.Dataset{
		Name: "bare", Labels: ooc.Labels, NumClass: ooc.NumClass,
		Task: ooc.Task, Blocks: mc,
	}
	cfg = core.Config{Trees: 2, Layers: 3, Quadrant: core.QD2}
	if _, err := core.Train(cluster.New(2, cluster.Gigabit()), bare, cfg); err == nil || !strings.Contains(err.Error(), "prebin") {
		t.Fatalf("missing prebin: %v, want prebin rejection", err)
	}
}

// TestOutOfCoreReadFailureAborts arms the mmap-read failpoint under a
// training run: the injected fault must surface as a descriptive
// ErrCacheCorrupt-wrapped training error — never a panic, never a model
// built from garbage reads. QD2 performs no block reads during
// preparation, so the fault lands mid-train and the run aborts at the
// tree boundary; QD4 hits it in the streamed transformation.
func TestOutOfCoreReadFailureAborts(t *testing.T) {
	defer failpoint.Reset()
	_, ooc, mc := oocPair(t, 120, 20, 9)
	defer mc.Close()

	for _, tc := range []struct {
		quadrant core.Quadrant
		contains string
	}{
		{core.QD2, "aborted during round"},
		{core.QD4, ""},
	} {
		cfg, err := core.ConfigureQuadrant(tc.quadrant, core.Config{Trees: 3, Layers: 3, Splits: 20})
		if err != nil {
			t.Fatal(err)
		}
		if err := failpoint.Enable(FailpointMmapRead, "error"); err != nil {
			t.Fatal(err)
		}
		_, err = core.Train(cluster.New(2, cluster.Gigabit()), ooc, cfg)
		failpoint.Reset()
		if err == nil {
			t.Fatalf("%v: training succeeded under injected read failures", tc.quadrant)
		}
		if !errors.Is(err, ErrCacheCorrupt) || !errors.Is(err, failpoint.ErrInjected) {
			t.Fatalf("%v: error does not wrap ErrCacheCorrupt and the injected fault: %v", tc.quadrant, err)
		}
		if tc.contains != "" && !strings.Contains(err.Error(), tc.contains) {
			t.Fatalf("%v: error %q does not mention %q", tc.quadrant, err, tc.contains)
		}
		// Disarmed, the same configuration trains cleanly.
		if _, err := core.Train(cluster.New(2, cluster.Gigabit()), ooc, cfg); err != nil {
			t.Fatalf("%v: disarmed run failed: %v", tc.quadrant, err)
		}
	}
}

// countingSource counts the block reads (the calls behind the
// ingest.mmap.read failpoint) a run issues against a mapped view.
type countingSource struct {
	*MappedCache
	reads int
}

func (c *countingSource) Entries(lo, hi int64, instBuf []uint32, binBuf []uint16) ([]uint32, []uint16, error) {
	c.reads++
	return c.MappedCache.Entries(lo, hi, instBuf, binBuf)
}

func (c *countingSource) SearchInst(lo, hi int64, inst uint32) (int64, error) {
	c.reads++
	return c.MappedCache.SearchInst(lo, hi, inst)
}

func (c *countingSource) LookupInst(lo, hi int64, inst uint32) (uint16, bool, error) {
	c.reads++
	return c.MappedCache.LookupInst(lo, hi, inst)
}

// TestOutOfCoreReadFailureSweep fails exactly the K-th block read, for
// every K a 3-tree streamed row-store run performs: whichever read it is —
// a block's column search, a segment chunk, a placement range search, a
// merge chunk or a sparse-arm probe — the run must return an
// ErrCacheCorrupt-wrapped injected fault (never a panic, never a model),
// and once preparation is over the error must name the aborted round.
// Small blocks and chunks put several reads of every kind into each layer.
func TestOutOfCoreReadFailureSweep(t *testing.T) {
	defer failpoint.Reset()
	_, ooc, mc := oocPair(t, 120, 20, 9)
	defer mc.Close()

	for _, q := range []core.Quadrant{core.QD4, core.QD2} {
		cfg, err := core.ConfigureQuadrant(q, core.Config{Trees: 3, Layers: 7, Splits: 20})
		if err != nil {
			t.Fatal(err)
		}
		cfg.BlockRows, cfg.BlockNNZ = 50, 8
		src := &countingSource{MappedCache: mc}
		ds := mc.Dataset()
		ds.Blocks = src

		// Reads issued by preparation: QD4 runs the streamed transformation,
		// QD2 touches no block before the first round.
		prepReads := 0
		if q == core.QD4 {
			pb := ooc.Prebin
			if _, err := partition.TransformStreamed(cluster.New(2, cluster.Gigabit()), src, ooc.Labels,
				partition.Options{Q: cfg.Splits, SketchEps: pb.SketchEps, Splits: pb.Splits, FeatCount: pb.FeatCount}); err != nil {
				t.Fatal(err)
			}
			prepReads, src.reads = src.reads, 0
		}
		if _, err := core.Train(cluster.New(2, cluster.Gigabit()), ds, cfg); err != nil {
			t.Fatalf("%v: disarmed run failed: %v", q, err)
		}
		total := src.reads
		if total <= prepReads+3 {
			t.Fatalf("%v: %d reads in all, %d in preparation: nothing to sweep", q, total, prepReads)
		}

		for k := 1; k <= total+1; k++ {
			if err := failpoint.Enable(FailpointMmapRead, fmt.Sprintf("%d-%d*error", k, k)); err != nil {
				t.Fatal(err)
			}
			res, err := core.Train(cluster.New(2, cluster.Gigabit()), ds, cfg)
			failpoint.Reset()
			if k > total {
				if err != nil {
					t.Fatalf("%v: a fault armed past the last read (%d) failed the run: %v", q, total, err)
				}
				break
			}
			if err == nil || res != nil {
				t.Fatalf("%v: read %d/%d failed but training returned (%v, %v)", q, k, total, res, err)
			}
			if !errors.Is(err, ErrCacheCorrupt) || !errors.Is(err, failpoint.ErrInjected) {
				t.Fatalf("%v: read %d/%d: error does not wrap ErrCacheCorrupt and the injected fault: %v", q, k, total, err)
			}
			if inRound := strings.Contains(err.Error(), "aborted during round"); inRound != (k > prepReads) {
				t.Fatalf("%v: read %d/%d (%d in preparation): %q", q, k, total, prepReads, err)
			}
		}
	}
}

// TestOutOfCoreBudgetBoundsHeap is the memory guarantee: training a cache
// image at least 3x larger than the budget must keep the trainer's peak
// heap (Result.PeakHeapBytes, sampled at tree boundaries) under the
// budget — the matrix stays on disk.
func TestOutOfCoreBudgetBoundsHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a multi-hundred-megabit cache image")
	}
	const budget = 24 << 20
	ds, err := datasets.Synthetic(datasets.SyntheticConfig{
		N: 5600, D: 5500, C: 2, InformativeRatio: 0.2, Density: 0.52, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	pb := Prebinned(ds, DefaultSketchEps, 20)
	path := filepath.Join(t.TempDir(), "big.vbin")
	if err := WriteCacheFile(path, ds, pb); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() < 3*budget {
		t.Fatalf("cache image is %d bytes, need >= 3x the %d budget", st.Size(), budget)
	}
	ds, pb = nil, nil
	runtime.GC()

	mc, err := MapCacheFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	cfg, err := core.ConfigureQuadrant(core.QD4, core.Config{
		Trees: 2, Layers: 2, Splits: 20, MemBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Train(cluster.New(2, cluster.Gigabit()), mc.Dataset(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakHeapBytes == 0 {
		t.Fatal("peak heap not sampled")
	}
	if res.PeakHeapBytes >= budget {
		t.Fatalf("peak heap %.1f MiB >= budget %.1f MiB (image %.1f MiB)",
			float64(res.PeakHeapBytes)/(1<<20), float64(budget)/(1<<20), float64(st.Size())/(1<<20))
	}
	t.Logf("image %.1f MiB, budget %.1f MiB, peak heap %.1f MiB",
		float64(st.Size())/(1<<20), float64(budget)/(1<<20), float64(res.PeakHeapBytes)/(1<<20))
}
