package gbdt

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"vero/internal/cluster/tcptransport"
	"vero/internal/core"
	"vero/internal/failpoint"
)

// loopbackMesh pre-binds one port-0 loopback listener per rank so every
// peer's address exists before any rank dials, and returns the resulting
// rank-ordered peer list with the listeners to hand each rank.
func loopbackMesh(t *testing.T, w int) ([]string, []net.Listener) {
	t.Helper()
	peers := make([]string, w)
	lns := make([]net.Listener, w)
	for r := 0; r < w; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		lns[r] = ln
		peers[r] = ln.Addr().String()
	}
	return peers, lns
}

// distDataset builds the dataset every rank of a test deployment loads.
// Synthetic generation is deterministic, so separate calls stand in for
// separate processes reading the same file.
func distDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := Synthetic(SyntheticConfig{N: 400, D: 24, C: 2, InformativeRatio: 0.5, Density: 0.5, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// distRank is one rank's training outcome.
type distRank struct {
	enc    []byte
	report *Report
	err    error
}

// trainMeshLoad trains opts on a W-rank loopback mesh, one goroutine per
// rank. Each rank's dataset comes from load, which sees the rank's full
// options (Distributed already set) — the hook sharded and out-of-core
// variants use to load per-rank views of one cache image.
func trainMeshLoad(t *testing.T, opts Options, w int, load func(r int, o Options) (*Dataset, error)) []distRank {
	t.Helper()
	peers, lns := loopbackMesh(t, w)
	outs := make([]distRank, w)
	var wg sync.WaitGroup
	for r := 0; r < w; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			o := opts
			o.Distributed = &DistributedOptions{
				Peers: peers, Rank: r, listener: lns[r],
				DialTimeout: 10 * time.Second, OpTimeout: 10 * time.Second,
			}
			ds, err := load(r, o)
			if err != nil {
				outs[r].err = err
				return
			}
			defer ds.Close()
			m, rep, err := Train(ds, o)
			if err != nil {
				outs[r].err = err
				return
			}
			outs[r].report = rep
			outs[r].enc, outs[r].err = m.Encode()
		}(r)
	}
	wg.Wait()
	return outs
}

// trainMesh trains opts on a W-rank loopback mesh, one goroutine per
// rank, each with its own independently loaded full dataset.
func trainMesh(t *testing.T, opts Options, w int) []distRank {
	t.Helper()
	return trainMeshLoad(t, opts, w, func(int, Options) (*Dataset, error) {
		return Synthetic(SyntheticConfig{N: 400, D: 24, C: 2, InformativeRatio: 0.5, Density: 0.5, Seed: 21})
	})
}

// writeDistCache writes the test dataset as a .vbin cache image — the
// on-disk form every rank of a sharded or out-of-core deployment opens.
func writeDistCache(t *testing.T, splits int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "train.vbin")
	if err := WriteCacheFile(path, distDataset(t), Options{Splits: splits}); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSocketTrainingBitIdentical is the tentpole acceptance test: for
// every quadrant (and both QD2 aggregation schemes), a real TCP loopback
// deployment of 2 and 4 ranks must train byte-for-byte the model a
// single-process simulation of the same worker count produces, and every
// phase's measured payload must equal the alpha-beta model's accounted
// volume minus its modeled part exactly.
func TestSocketTrainingBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up multi-rank TCP meshes")
	}
	cases := []struct {
		name string
		opts Options
	}{
		{"qd1-allreduce", Options{Quadrant: QD1}},
		{"qd2-reducescatter", Options{Quadrant: QD2}},
		{"qd2-paramserver", Options{System: SystemDimBoost}},
		{"qd3-hybrid", Options{Quadrant: QD3}},
		{"qd4-vero", Options{Quadrant: QD4}},
	}
	for _, tc := range cases {
		for _, w := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/w%d", tc.name, w), func(t *testing.T) {
				opts := tc.opts
				opts.Workers = w
				opts.Trees = 2
				opts.Layers = 4
				opts.Splits = 12
				simM, simR, err := Train(distDataset(t), opts)
				if err != nil {
					t.Fatalf("simulated: %v", err)
				}
				want := encode(t, simM)

				outs := trainMesh(t, opts, w)
				for r, out := range outs {
					if out.err != nil {
						t.Fatalf("rank %d: %v", r, out.err)
					}
					if !bytes.Equal(out.enc, want) {
						t.Errorf("rank %d: socket-trained model differs from the simulation", r)
					}
					rep := out.report
					if !rep.Distributed || rep.Rank != r {
						t.Errorf("rank %d: report says distributed=%v rank=%d", r, rep.Distributed, rep.Rank)
					}
					// The model's accounted volume is invariant across
					// backends, and the deployment-wide measured payload
					// must match it phase by phase.
					if rep.CommBytes != simR.CommBytes {
						t.Errorf("rank %d: accounted %d B, simulation accounted %d B", r, rep.CommBytes, simR.CommBytes)
					}
					checkMeasured(t, r, rep)
					if rep.WireBytes <= 0 {
						t.Errorf("rank %d: wire volume %d B, want framing overhead on top of the payload", r, rep.WireBytes)
					}
				}
			})
		}
	}
}

// checkMeasured holds a rank's synced report to the measurement
// invariant: every phase's measured payload is its accounted volume minus
// the modeled part charge-only collectives never send, and so is the
// run's total.
func checkMeasured(t *testing.T, r int, rep *Report) {
	t.Helper()
	var modeled int64
	for _, p := range rep.Phases {
		modeled += p.ModeledBytes
		if p.MeasuredBytes != p.AccountedBytes-p.ModeledBytes {
			t.Errorf("rank %d phase %s: measured %d B != accounted %d B − modeled %d B", r, p.Phase, p.MeasuredBytes, p.AccountedBytes, p.ModeledBytes)
		}
	}
	if rep.MeasuredCommBytes != rep.CommBytes-modeled {
		t.Errorf("rank %d: measured %d B != accounted %d B − modeled %d B", r, rep.MeasuredCommBytes, rep.CommBytes, modeled)
	}
}

// TestDistributedAbortsAtTreeBoundary injects a transport write failure
// after the first tree completes: every rank must abort with the trainer's
// tree-boundary error instead of hanging or appending a half-reduced tree.
func TestDistributedAbortsAtTreeBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up a TCP mesh")
	}
	defer failpoint.Reset()
	opts := Options{Quadrant: QD1, Trees: 4, Layers: 4, Splits: 12}
	opts.OnTree = func(i int, _ float64, _ *Tree) {
		// Arm on every rank's first tree boundary; the point is global to
		// the process, so the first rank to finish tree 0 breaks the mesh.
		if i == 0 {
			if err := failpoint.Enable(tcptransport.FailpointWrite, "error"); err != nil {
				t.Error(err)
			}
		}
	}
	for r, out := range trainMesh(t, opts, 2) {
		if out.err == nil {
			t.Fatalf("rank %d: training succeeded with a broken transport", r)
		}
		if !strings.Contains(out.err.Error(), "distributed training aborted during round") {
			t.Errorf("rank %d: error %q is not the tree-boundary abort", r, out.err)
		}
	}
}

// TestShardedTrainingBitIdentical is the v2 tentpole acceptance test: a
// deployment where every rank materializes only its own row range
// (QD1/QD2) or feature group (QD3/QD4) of one cache image must train
// byte-for-byte the model the full-image simulation produces, charge the
// identical communication volume, and move exactly its unmodeled part on
// the wire.
func TestShardedTrainingBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up multi-rank TCP meshes")
	}
	cache := writeDistCache(t, 12)
	full, err := ReadCacheFile(cache)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []Quadrant{QD1, QD2, QD3, QD4} {
		for _, w := range []int{2, 4} {
			t.Run(fmt.Sprintf("%v/w%d", q, w), func(t *testing.T) {
				opts := Options{Quadrant: q, Workers: w, Trees: 2, Layers: 4, Splits: 12}
				simM, simR, err := Train(full, opts)
				if err != nil {
					t.Fatalf("simulated: %v", err)
				}
				want := encode(t, simM)

				outs := trainMeshLoad(t, opts, w, func(r int, o Options) (*Dataset, error) {
					return IngestShard(cache, o)
				})
				for r, out := range outs {
					if out.err != nil {
						t.Fatalf("rank %d: %v", r, out.err)
					}
					if !bytes.Equal(out.enc, want) {
						t.Errorf("rank %d: shard-trained model differs from the full-image simulation", r)
					}
					// Sharded vertical layers broadcast one whole bitmap per
					// splitting owner where the replicated model charges the
					// paper's single compacted bitmap, so accounted volume may
					// sit slightly above the simulation's — but never below,
					// and the wire must carry exactly the unmodeled part.
					if out.report.CommBytes < simR.CommBytes {
						t.Errorf("rank %d: accounted %d B, below the simulation's %d B", r, out.report.CommBytes, simR.CommBytes)
					}
					checkMeasured(t, r, out.report)
				}
			})
		}
	}
}

// TestOutOfCoreDistributedBitIdentical lifts v1's out-of-core gate: every
// rank streams blocks from its own mapping of one cache image, and the
// mesh still trains the byte-identical model of the out-of-core (and
// in-memory) simulation.
func TestOutOfCoreDistributedBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up multi-rank TCP meshes")
	}
	cache := writeDistCache(t, 12)
	for _, q := range []Quadrant{QD1, QD2, QD3, QD4} {
		for _, w := range []int{2, 4} {
			t.Run(fmt.Sprintf("%v/w%d", q, w), func(t *testing.T) {
				opts := Options{Quadrant: q, Workers: w, Trees: 2, Layers: 4, Splits: 12,
					OutOfCore: true, MemBudget: 1 << 20}
				simDS, _, err := IngestFile(cache, opts)
				if err != nil {
					t.Fatal(err)
				}
				defer simDS.Close()
				simM, _, err := Train(simDS, opts)
				if err != nil {
					t.Fatalf("simulated: %v", err)
				}
				want := encode(t, simM)

				outs := trainMeshLoad(t, opts, w, func(r int, o Options) (*Dataset, error) {
					ds, _, err := IngestFile(cache, o)
					return ds, err
				})
				for r, out := range outs {
					if out.err != nil {
						t.Fatalf("rank %d: %v", r, out.err)
					}
					if !bytes.Equal(out.enc, want) {
						t.Errorf("rank %d: out-of-core socket model differs from the simulation", r)
					}
				}
			})
		}
	}
}

// TestDistributedEarlyStoppingBitIdentical lifts v1's early-stopping
// gate: rank 0 owns the validation set and broadcasts its verdict, so a
// mesh must stop at — and truncate to — exactly the trees the simulated
// early-stopped run keeps.
func TestDistributedEarlyStoppingBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up multi-rank TCP meshes")
	}
	for _, q := range []Quadrant{QD1, QD2, QD3, QD4} {
		for _, w := range []int{2, 4} {
			t.Run(fmt.Sprintf("%v/w%d", q, w), func(t *testing.T) {
				opts := Options{Quadrant: q, Workers: w, Trees: 10, Layers: 3, Splits: 12}
				const patience = 2
				ds := distDataset(t)
				simM, _, err := TrainWithEarlyStopping(ds, ds, opts, patience)
				if err != nil {
					t.Fatalf("simulated: %v", err)
				}
				want := encode(t, simM)

				peers, lns := loopbackMesh(t, w)
				outs := make([]distRank, w)
				var wg sync.WaitGroup
				for r := 0; r < w; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						rds := distDataset(t)
						o := opts
						o.Distributed = &DistributedOptions{
							Peers: peers, Rank: r, listener: lns[r],
							DialTimeout: 10 * time.Second, OpTimeout: 10 * time.Second,
						}
						m, rep, err := TrainWithEarlyStopping(rds, rds, o, patience)
						if err != nil {
							outs[r].err = err
							return
						}
						outs[r].report = rep
						outs[r].enc, outs[r].err = m.Encode()
					}(r)
				}
				wg.Wait()
				for r, out := range outs {
					if out.err != nil {
						t.Fatalf("rank %d: %v", r, out.err)
					}
					if !bytes.Equal(out.enc, want) {
						t.Errorf("rank %d: early-stopped socket model differs from the simulation (%d trees, sim %d)",
							r, mustDecode(t, out.enc).NumTrees(), simM.NumTrees())
					}
				}
			})
		}
	}
}

// TestDistributedCrashMatrixResume is the crash matrix: for every
// quadrant and deployment size, kill exactly one rank right after every
// boosting round, restart the whole deployment against the same
// checkpoint directory, and require (1) every rank of the crashed run to
// fail — no survivor computing alone, (2) the restarted ranks to agree
// on one common resume round, and (3) the resumed model to be
// byte-identical to an uninterrupted run.
func TestDistributedCrashMatrixResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up multi-rank TCP meshes")
	}
	const trees, every = 4, 2
	for _, q := range []Quadrant{QD1, QD2, QD3, QD4} {
		for _, w := range []int{2, 4} {
			t.Run(fmt.Sprintf("%v/w%d", q, w), func(t *testing.T) {
				opts := Options{Quadrant: q, Workers: w, Trees: trees, Layers: 3, Splits: 12}
				simM, _, err := Train(distDataset(t), opts)
				if err != nil {
					t.Fatalf("simulated: %v", err)
				}
				want := encode(t, simM)

				for round := 0; round < trees-1; round++ {
					o := opts
					o.CheckpointDir = t.TempDir()
					o.CheckpointEvery = every

					// Ranks proceed in lockstep (every layer is a collective
					// barrier), so global after-tree hits w*round+1 through
					// w*(round+1) all belong to `round`. A one-hit window on
					// the first of them kills exactly one rank right after it
					// finishes the round; its peers must then abort at their
					// own tree boundary.
					hit := round*w + 1
					if err := failpoint.Enable(core.FailpointAfterTree, fmt.Sprintf("%d-%d*error", hit, hit)); err != nil {
						t.Fatal(err)
					}
					outs := trainMesh(t, o, w)
					failpoint.Reset()
					injected := 0
					for r, out := range outs {
						if out.err == nil {
							t.Fatalf("round %d: rank %d survived the cluster crash", round, r)
						}
						if errors.Is(out.err, failpoint.ErrInjected) {
							injected++
						} else if !strings.Contains(out.err.Error(), "aborted during round") {
							t.Errorf("round %d: rank %d died without the tree-boundary abort: %v", round, r, out.err)
						}
					}
					if injected != 1 {
						t.Fatalf("round %d: %d ranks hit the injected kill, want exactly 1", round, injected)
					}

					// Every rank checkpointed the boundary before the crash,
					// so the min-reduction must land there — and the resumed
					// run must finish on the uninterrupted bytes.
					wantStart := ((round + 1) / every) * every
					outs = trainMesh(t, o, w)
					for r, out := range outs {
						if out.err != nil {
							t.Fatalf("round %d: resume rank %d: %v", round, r, out.err)
						}
						if out.report.StartRound != wantStart {
							t.Errorf("round %d: rank %d resumed from %d, want %d", round, r, out.report.StartRound, wantStart)
						}
						if !bytes.Equal(out.enc, want) {
							t.Errorf("round %d: rank %d resumed model differs from uninterrupted run", round, r)
						}
					}
				}
			})
		}
	}
}

// TestDistributedCheckpointWorkerMismatch: checkpoints written by a W=2
// deployment must be rejected by a W=4 one — the deployment identity is
// part of the config hash — and the whole mesh must then fall back to
// round 0 together, never a mixed resume.
func TestDistributedCheckpointWorkerMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("spins up multi-rank TCP meshes")
	}
	opts := Options{Quadrant: QD2, Trees: 4, Layers: 3, Splits: 12,
		CheckpointDir: t.TempDir(), CheckpointEvery: 2}

	// Crash a W=2 deployment after round 2: both ranks leave round-2
	// checkpoints behind (hits 5 and 6 are the two round-2 completions).
	if err := failpoint.Enable(core.FailpointAfterTree, "5-6*error"); err != nil {
		t.Fatal(err)
	}
	outs := trainMesh(t, opts, 2)
	failpoint.Reset()
	for r, out := range outs {
		if out.err == nil {
			t.Fatalf("rank %d survived the crash", r)
		}
	}

	// A W=4 deployment over the same checkpoint directory must reject the
	// W=2 images and start from scratch — cluster-wide.
	o := opts
	o.Workers = 4
	simM, _, err := Train(distDataset(t), Options{Quadrant: QD2, Workers: 4, Trees: 4, Layers: 3, Splits: 12})
	if err != nil {
		t.Fatal(err)
	}
	want := encode(t, simM)
	for r, out := range trainMesh(t, o, 4) {
		if out.err != nil {
			t.Fatalf("rank %d: %v", r, out.err)
		}
		if out.report.StartRound != 0 {
			t.Errorf("rank %d resumed a W=2 checkpoint under W=4 (start round %d)", r, out.report.StartRound)
		}
		if !bytes.Equal(out.enc, want) {
			t.Errorf("rank %d: model differs from the W=4 reference", r)
		}
	}
}

// TestDistributedRejections covers what v2 still refuses: combinations
// that cannot keep ranks bit-identical fail up front with an error that
// says why.
func TestDistributedRejections(t *testing.T) {
	cache := writeDistCache(t, 12)
	dist := &DistributedOptions{Peers: []string{"127.0.0.1:1", "127.0.0.1:2"}, Rank: 0}

	// A shard is a deployment slot's slice: no deployment, no shard.
	if _, err := IngestShard(cache, Options{Quadrant: QD2}); err == nil ||
		!strings.Contains(err.Error(), "Distributed") {
		t.Errorf("shard load without a deployment: err = %v", err)
	}
	// The sharding axis follows the quadrant, so the advisor cannot pick.
	if _, err := IngestShard(cache, Options{Distributed: dist, Quadrant: QuadrantAuto}); err == nil ||
		!strings.Contains(err.Error(), "Quadrant") {
		t.Errorf("shard load with auto quadrant: err = %v", err)
	}
	// Shards come from cache images, not source text.
	if _, err := IngestShard("train.libsvm", Options{Distributed: dist, Quadrant: QD1}); err == nil ||
		!strings.Contains(err.Error(), ".vbin") {
		t.Errorf("shard load from a non-cache path: err = %v", err)
	}
	// A sharded dataset on a simulated cluster would train on a fraction
	// of the data; core must refuse it.
	sh, err := IngestShard(cache, Options{Distributed: dist, Quadrant: QD2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Train(sh, Options{Quadrant: QD2, Workers: 2, Trees: 1, Layers: 3, Splits: 12}); err == nil ||
		!strings.Contains(err.Error(), "simulated") {
		t.Errorf("sharded dataset on a simulated cluster: err = %v", err)
	}
}

// mustDecode decodes a model encoding or fails the test.
func mustDecode(t *testing.T, enc []byte) *Model {
	t.Helper()
	m, err := DecodeModel(enc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
