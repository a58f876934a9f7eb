package gbdt

import (
	"fmt"
	"hash/crc32"
	"net"
	"time"

	"vero/internal/cluster"
	"vero/internal/cluster/tcptransport"
)

// DistributedOptions turns a training run into one rank of a real
// multi-process deployment: the W ranks listed in Peers connect a TCP
// mesh, every collective the simulation accounts moves its payload over
// that mesh in the same rank-ordered reduction order, and each rank
// trains the bit-identical model a single-process simulated run of W
// workers produces. Every rank must load the same dataset and pass the
// same hyper-parameters; rank r hosts worker r.
type DistributedOptions struct {
	// Peers lists every rank's host:port in rank order; len(Peers) is the
	// deployment size and overrides Options.Workers.
	Peers []string
	// Rank is this process's index into Peers.
	Rank int
	// Listen optionally overrides the address this rank binds (e.g.
	// ":9000" behind NAT); empty means Peers[Rank].
	Listen string
	// DialTimeout bounds mesh establishment, including retries while
	// late-starting peers come up (default 30s).
	DialTimeout time.Duration
	// OpTimeout bounds each frame send/receive inside a collective, so a
	// dead peer surfaces as an error instead of a hang (default 30s).
	OpTimeout time.Duration

	// listener, when set, is a pre-bound socket to use instead of binding
	// Listen (test hook: loopback meshes bind port 0 first and exchange
	// the chosen addresses).
	listener net.Listener
}

// PhaseComm is one phase's communication record with the model's
// prediction and the transport's measurement side by side. On a
// distributed run MeasuredBytes equals AccountedBytes − ModeledBytes
// exactly: charge-only collectives (split tables, placement bitmaps, the
// transformation's repartition) are modeled and move nothing, the rest
// put their charged volume on the wire (before framing). The seconds
// columns compare the model's prediction against measured wall-clock.
type PhaseComm struct {
	Phase string
	// AccountedBytes is the volume the alpha-beta model charged.
	AccountedBytes int64
	// ModeledBytes is the part of AccountedBytes no transport moves.
	ModeledBytes int64
	// ModelSeconds is the alpha-beta model's simulated duration.
	ModelSeconds float64
	// MeasuredBytes is the payload volume sent over the transport, summed
	// across ranks (zero on the simulated backend).
	MeasuredBytes int64
	// MeasuredSeconds is wall-clock spent in transport operations, the
	// slowest rank's (zero on the simulated backend).
	MeasuredSeconds float64
}

// connectCluster builds the cluster the options describe, attaching a TCP
// transport when DistributedOptions are present. dataFP is the dataset
// fingerprint exchanged in the mesh's hello handshake (meshFingerprint);
// every rank must present the identical value.
func connectCluster(opts Options, dataFP uint32) (*cluster.Cluster, error) {
	var copts []cluster.Option
	if opts.Concurrent {
		copts = append(copts, cluster.WithConcurrent())
	}
	if d := opts.Distributed; d != nil {
		tr, err := tcptransport.Connect(tcptransport.Config{
			Rank:        d.Rank,
			Peers:       d.Peers,
			Listen:      d.Listen,
			Listener:    d.listener,
			DialTimeout: d.DialTimeout,
			OpTimeout:   d.OpTimeout,
			Fingerprint: dataFP,
		})
		if err != nil {
			return nil, fmt.Errorf("gbdt: connecting the worker mesh: %w", err)
		}
		copts = append(copts, cluster.WithTransport(tr))
	}
	return cluster.New(opts.Workers, opts.Network, copts...), nil
}

// meshFingerprint derives the 32-bit dataset fingerprint the hello
// handshake exchanges. Shards and out-of-core views present the backing
// cache image's fingerprint — identical at every rank even though the
// materialized bytes differ per rank — so a deployment where one rank
// opened a different cache fails at connect time. Fully replicated
// in-memory datasets present zero (all ranks unset still must agree).
func meshFingerprint(ds *Dataset) uint32 {
	switch {
	case ds.Shard != nil:
		return ds.Shard.FingerprintCRC()
	case ds.OutOfCore():
		return crc32.Checksum([]byte(ds.Blocks.Fingerprint()), crc32.MakeTable(crc32.Castagnoli))
	}
	return 0
}

// distIdentity names this rank's deployment slot — rank and worker count
// — for checkpoint validation: a checkpoint written under one deployment
// shape is rejected under another (a W=2 image never resumes a W=4 run).
// Peer addresses deliberately stay out of the identity: a deployment
// restarted after a crash may bind new ports, and what must match for a
// safe resume is the shape and the dataset fingerprint, not the wiring.
func distIdentity(d *DistributedOptions) string {
	return fmt.Sprintf("rank%d/%d", d.Rank, len(d.Peers))
}

// phaseComms extracts the per-phase accounted-vs-measured table from the
// cluster's statistics, skipping phases that moved no bytes.
func phaseComms(cl *cluster.Cluster) []PhaseComm {
	stats := cl.Stats()
	var out []PhaseComm
	for _, name := range stats.PhaseNames() {
		p := stats.Phase(name)
		if p.TotalBytes() == 0 {
			continue
		}
		out = append(out, PhaseComm{
			Phase:           name,
			AccountedBytes:  p.TotalBytes(),
			ModeledBytes:    p.ModeledBytes,
			ModelSeconds:    p.CommSeconds,
			MeasuredBytes:   p.MeasuredBytes,
			MeasuredSeconds: p.MeasuredSeconds,
		})
	}
	return out
}
