package tcptransport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vero/internal/cluster"
	"vero/internal/failpoint"
)

// Failpoints armed by the fault-injection tests and the crash harness.
const (
	// FailpointDial fires before each dial attempt while establishing the
	// mesh; an injected error is retried like a refused connection.
	FailpointDial = "cluster.tcp.dial"
	// FailpointRead fires before each frame read inside a collective.
	FailpointRead = "cluster.tcp.read"
	// FailpointWrite fires before each frame write inside a collective.
	FailpointWrite = "cluster.tcp.write"
)

const (
	defaultDialTimeout = 30 * time.Second
	defaultOpTimeout   = 30 * time.Second
	defaultMaxPayload  = 1 << 30
	maxDialBackoff     = 2 * time.Second
	// shadowChunk bounds a single shadow frame's payload so realizing a
	// multi-gigabyte charge never materializes one giant buffer.
	shadowChunk = 1 << 20
)

// Config describes one rank of a deployment.
type Config struct {
	// Rank is this process's rank in [0, len(Peers)).
	Rank int
	// Peers lists every rank's dialable host:port address, rank-ordered
	// and identical at every rank; Peers[Rank] is this process.
	Peers []string
	// Listen optionally overrides the listen address (default ":port"
	// with the port taken from Peers[Rank], so binding works even when
	// the advertised host resolves to a non-local interface).
	Listen string
	// Listener optionally supplies a pre-bound listener, in which case
	// Listen is ignored. Tests use it to bind port 0 before spawning
	// ranks; Connect takes ownership and closes it.
	Listener net.Listener
	// DialTimeout bounds the whole mesh establishment, including retrying
	// peers that have not started listening yet (default 30s).
	DialTimeout time.Duration
	// OpTimeout is the per-frame read/write deadline inside collectives
	// (default 30s). It bounds how long a dead peer can stall training.
	OpTimeout time.Duration
	// MaxPayload caps a single frame's payload (default 1 GiB).
	MaxPayload int
	// Fingerprint optionally identifies the dataset (or dataset shard
	// family) this rank trains on; it is exchanged in the hello handshake
	// and every rank must present the identical value, so a deployment
	// where one rank ingested different data fails at connect time instead
	// of silently training a diverged model. Zero means "no fingerprint"
	// and still must match (all ranks unset).
	Fingerprint uint32
}

// peerConn is one mesh connection. The write side is shared by the
// per-peer sender goroutines of an operation and serialized by wmu; the
// read side is only ever touched by one goroutine at a time (each
// operation runs one receiver per peer).
type peerConn struct {
	c   net.Conn
	wmu sync.Mutex
}

// Transport is the socket implementation of cluster.Transport over a full
// TCP mesh (rank j dials every rank i < j; lower ranks accept).
type Transport struct {
	w, rank    int
	opTimeout  time.Duration
	maxPayload int
	dataFP     uint32
	ln         net.Listener
	conns      []*peerConn // indexed by peer rank; nil at self
	payload    atomic.Int64
	wire       atomic.Int64

	mu     sync.Mutex
	err    error
	closed bool
	seq    uint32
}

var _ cluster.Transport = (*Transport)(nil)

// Connect establishes the mesh and performs the hello handshake with every
// peer, validating that all ranks agree on the deployment size and peer
// list. It retries dials with exponential backoff until DialTimeout so
// ranks may start in any order.
func Connect(cfg Config) (*Transport, error) {
	w := len(cfg.Peers)
	if w == 0 {
		return nil, errors.New("tcptransport: empty peer list")
	}
	if cfg.Rank < 0 || cfg.Rank >= w {
		return nil, fmt.Errorf("tcptransport: rank %d outside peer list of %d", cfg.Rank, w)
	}
	t := &Transport{
		w:          w,
		rank:       cfg.Rank,
		opTimeout:  cfg.OpTimeout,
		maxPayload: cfg.MaxPayload,
		dataFP:     cfg.Fingerprint,
		conns:      make([]*peerConn, w),
	}
	if t.opTimeout <= 0 {
		t.opTimeout = defaultOpTimeout
	}
	if t.maxPayload <= 0 {
		t.maxPayload = defaultMaxPayload
	}
	if w == 1 {
		if cfg.Listener != nil {
			cfg.Listener.Close()
		}
		return t, nil
	}
	dialTimeout := cfg.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = defaultDialTimeout
	}

	ln := cfg.Listener
	if ln == nil {
		addr := cfg.Listen
		if addr == "" {
			_, port, err := net.SplitHostPort(cfg.Peers[cfg.Rank])
			if err != nil {
				return nil, fmt.Errorf("tcptransport: rank %d: own peer address %q: %w", cfg.Rank, cfg.Peers[cfg.Rank], err)
			}
			addr = ":" + port
		}
		var err error
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("tcptransport: rank %d: listening on %q: %w", cfg.Rank, addr, err)
		}
	}
	t.ln = ln

	deadline := time.Now().Add(dialTimeout)
	hash := peersHash(cfg.Peers)
	// The listener has no deadline of its own; close it when the budget
	// runs out so a missing peer turns into an accept error, not a hang.
	watchdog := time.AfterFunc(dialTimeout, func() { ln.Close() })

	var wg sync.WaitGroup
	var acceptErr, dialErr error
	wg.Add(2)
	go func() { // higher ranks dial us
		defer wg.Done()
		for need := w - 1 - cfg.Rank; need > 0; need-- {
			conn, err := ln.Accept()
			if err != nil {
				acceptErr = fmt.Errorf("tcptransport: rank %d: accepting peers (%d still missing): %w", cfg.Rank, need, err)
				return
			}
			if err := t.handshakeAccept(conn, hash, deadline); err != nil {
				conn.Close()
				acceptErr = err
				return
			}
		}
	}()
	go func() { // we dial lower ranks
		defer wg.Done()
		for i := 0; i < cfg.Rank; i++ {
			if err := t.dialPeer(i, cfg.Peers[i], hash, deadline); err != nil {
				dialErr = err
				return
			}
		}
	}()
	wg.Wait()
	watchdog.Stop()
	if acceptErr != nil || dialErr != nil {
		t.Close()
		if dialErr != nil {
			return nil, dialErr
		}
		return nil, acceptErr
	}
	return t, nil
}

// peersHash fingerprints the deployment topology for the hello handshake.
func peersHash(peers []string) uint32 {
	crc := phaseCRC(peers[0])
	for _, p := range peers[1:] {
		crc = phaseCRC(fmt.Sprintf("%08x,%s", crc, p))
	}
	return crc
}

// helloPayload is the 12-byte handshake body: deployment size, sender
// rank, the peer-list fingerprint and the dataset fingerprint.
func helloPayload(w, rank int, hash, dataFP uint32) []byte {
	b := make([]byte, 12)
	binary.LittleEndian.PutUint16(b, uint16(w))
	binary.LittleEndian.PutUint16(b[2:], uint16(rank))
	binary.LittleEndian.PutUint32(b[4:], hash)
	binary.LittleEndian.PutUint32(b[8:], dataFP)
	return b
}

// exchangeHello sends our hello and validates the peer's reply on a fresh
// connection. wantRank < 0 accepts any higher rank (the acceptor side does
// not know who is connecting until the hello arrives).
func (t *Transport) exchangeHello(conn net.Conn, hash uint32, wantRank int, deadline time.Time, sendFirst bool) (int, error) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	conn.SetDeadline(deadline)
	defer conn.SetDeadline(time.Time{})
	send := func() error {
		buf := appendFrame(nil, &frame{Op: opHello, Rank: uint16(t.rank), Payload: helloPayload(t.w, t.rank, hash, t.dataFP)})
		_, err := conn.Write(buf)
		return err
	}
	if sendFirst {
		if err := send(); err != nil {
			return -1, fmt.Errorf("sending hello: %w", err)
		}
	}
	f, err := readFrame(conn, t.maxPayload)
	if err != nil {
		return -1, fmt.Errorf("reading hello: %w", err)
	}
	if f.Op != opHello || len(f.Payload) != 12 {
		return -1, fmt.Errorf("expected hello frame, got %s with %d-byte payload", f.Op, len(f.Payload))
	}
	peerW := int(binary.LittleEndian.Uint16(f.Payload))
	peerRank := int(binary.LittleEndian.Uint16(f.Payload[2:]))
	peerHash := binary.LittleEndian.Uint32(f.Payload[4:])
	peerFP := binary.LittleEndian.Uint32(f.Payload[8:])
	switch {
	case peerW != t.w:
		return -1, fmt.Errorf("peer rank %d believes the deployment has %d workers, this rank has %d", peerRank, peerW, t.w)
	case peerHash != hash:
		return -1, fmt.Errorf("peer rank %d has a different peer list (topology fingerprint %#x, ours %#x)", peerRank, peerHash, hash)
	case peerFP != t.dataFP:
		return -1, fmt.Errorf("peer rank %d ingested different data (dataset fingerprint %#x, ours %#x)", peerRank, peerFP, t.dataFP)
	case int(f.Rank) != peerRank:
		return -1, fmt.Errorf("hello frame rank %d contradicts its payload rank %d", f.Rank, peerRank)
	case wantRank >= 0 && peerRank != wantRank:
		return -1, fmt.Errorf("peer at rank %d's address claims rank %d", wantRank, peerRank)
	case wantRank < 0 && (peerRank <= t.rank || peerRank >= t.w):
		return -1, fmt.Errorf("accepted hello from rank %d, want a rank in (%d, %d)", peerRank, t.rank, t.w)
	}
	if !sendFirst {
		if err := send(); err != nil {
			return -1, fmt.Errorf("sending hello reply: %w", err)
		}
	}
	return peerRank, nil
}

// handshakeAccept validates one inbound connection and installs it.
func (t *Transport) handshakeAccept(conn net.Conn, hash uint32, deadline time.Time) error {
	rank, err := t.exchangeHello(conn, hash, -1, deadline, false)
	if err != nil {
		return fmt.Errorf("tcptransport: rank %d: handshake with inbound peer: %w", t.rank, err)
	}
	if t.conns[rank] != nil {
		return fmt.Errorf("tcptransport: rank %d: duplicate connection from rank %d", t.rank, rank)
	}
	t.conns[rank] = &peerConn{c: conn}
	return nil
}

// dialPeer connects to a lower rank, retrying with exponential backoff
// until the deadline so peers may start late. Handshake failures are
// terminal (the peer is up but misconfigured); connection failures retry.
func (t *Transport) dialPeer(i int, addr string, hash uint32, deadline time.Time) error {
	backoff := 50 * time.Millisecond
	for {
		var conn net.Conn
		err := failpoint.Inject(FailpointDial)
		if err == nil {
			d := net.Dialer{Deadline: deadline}
			conn, err = d.Dial("tcp", addr)
		}
		if err == nil {
			if _, herr := t.exchangeHello(conn, hash, i, deadline, true); herr != nil {
				conn.Close()
				return fmt.Errorf("tcptransport: rank %d: handshake with rank %d at %s: %w", t.rank, i, addr, herr)
			}
			t.conns[i] = &peerConn{c: conn}
			return nil
		}
		if !time.Now().Add(backoff).Before(deadline) {
			return fmt.Errorf("tcptransport: rank %d: dialing rank %d at %s: %w", t.rank, i, addr, err)
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > maxDialBackoff {
			backoff = maxDialBackoff
		}
	}
}

// Workers implements cluster.Transport.
func (t *Transport) Workers() int { return t.w }

// Rank implements cluster.Transport.
func (t *Transport) Rank() int { return t.rank }

// PayloadBytesSent implements cluster.Transport.
func (t *Transport) PayloadBytesSent() int64 { return t.payload.Load() }

// WireBytes implements cluster.Transport: every collective frame this rank
// wrote, including frame headers and checksums.
func (t *Transport) WireBytes() int64 { return t.wire.Load() }

// Err implements cluster.Transport.
func (t *Transport) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Close implements cluster.Transport. Peers blocked on this rank will fail
// their reads and latch their own errors — a deliberate shutdown and a
// crash look the same from the outside, which is the point.
func (t *Transport) Close() error {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
	t.closeConns()
	return nil
}

func (t *Transport) closeConns() {
	if t.ln != nil {
		t.ln.Close()
	}
	for _, pc := range t.conns {
		if pc != nil {
			pc.c.Close()
		}
	}
}

// fail latches the transport's sticky error and tears down the mesh so
// every pending and future operation fails fast instead of hanging on a
// peer that will never answer. The first error wins; it is what Err (and
// therefore the trainer's tree-boundary check) reports.
func (t *Transport) fail(err error) error {
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	first := t.err
	t.mu.Unlock()
	t.closeConns()
	return first
}

// startOp admits one collective, handing it the next sequence number.
// Operations are serialized by the caller (the trainer's collectives run
// one at a time), so the sequence also orders frames on every connection.
func (t *Transport) startOp() (uint32, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return 0, t.err
	}
	if t.closed {
		return 0, errors.New("tcptransport: transport closed")
	}
	t.seq++
	return t.seq, nil
}

// send writes one frame to peer j, counting its payload bytes.
func (t *Transport) send(j int, o op, pc, seq uint32, phase string, payload []byte) error {
	wrap := func(err error) error {
		return fmt.Errorf("tcptransport: rank %d: writing %s to rank %d in phase %q: %w", t.rank, o, j, phase, err)
	}
	if err := failpoint.Inject(FailpointWrite); err != nil {
		return wrap(err)
	}
	conn := t.conns[j]
	buf := appendFrame(make([]byte, 0, headerSize+len(payload)+trailerSize),
		&frame{Op: o, Rank: uint16(t.rank), PhaseCRC: pc, Seq: seq, Payload: payload})
	conn.wmu.Lock()
	conn.c.SetWriteDeadline(time.Now().Add(t.opTimeout))
	n, err := conn.c.Write(buf)
	conn.wmu.Unlock()
	t.wire.Add(int64(n))
	if err != nil {
		return wrap(err)
	}
	t.payload.Add(int64(len(payload)))
	return nil
}

// recv reads one frame from peer j and validates that it is exactly the
// frame the SPMD schedule says comes next: right op, right sender, right
// phase, right sequence number. Anything else means the ranks diverged.
func (t *Transport) recv(j int, o op, pc, seq uint32, phase string) ([]byte, error) {
	wrap := func(err error) error {
		return fmt.Errorf("tcptransport: rank %d: reading %s from rank %d in phase %q: %w", t.rank, o, j, phase, err)
	}
	if err := failpoint.Inject(FailpointRead); err != nil {
		return nil, wrap(err)
	}
	conn := t.conns[j]
	conn.c.SetReadDeadline(time.Now().Add(t.opTimeout))
	f, err := readFrame(conn.c, t.maxPayload)
	if err != nil {
		return nil, wrap(err)
	}
	if f.Op != o || int(f.Rank) != j || f.PhaseCRC != pc || f.Seq != seq {
		return nil, wrap(fmt.Errorf("desynchronized peer: got %s frame (sender %d, phase %#x, seq %d), want %s (phase %#x, seq %d)",
			f.Op, f.Rank, f.PhaseCRC, f.Seq, o, pc, seq))
	}
	return f.Payload, nil
}

// runAll runs the per-peer sender and receiver bodies of one collective
// concurrently — concurrency is what makes the exchange deadlock-free
// regardless of kernel socket buffer sizes — and latches the first error.
func (t *Transport) runAll(fns []func() error) error {
	errs := make([]error, len(fns))
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for i, fn := range fns {
		go func(i int, fn func() error) {
			defer wg.Done()
			errs[i] = fn()
		}(i, fn)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return t.fail(err)
		}
	}
	return nil
}

// AllReduce implements cluster.Transport: a direct-exchange
// reduce-scatter over even segments (every rank owns one, receives W-1
// contributions for it and reduces them in rank order) followed by an
// all-gather of the reduced segments. Per-rank wire volume is
// (n - seg) + (W-1)*seg payload bytes, summing to the charged 2(W-1)n
// across the deployment for any n.
func (t *Transport) AllReduce(phase string, buf []float64) error {
	if t.w == 1 {
		return nil
	}
	seq, err := t.startOp()
	if err != nil {
		return err
	}
	pc := phaseCRC(phase)
	bounds := cluster.EvenBounds(len(buf), t.w)
	if err := t.scatter(seq, pc, phase, buf, bounds); err != nil {
		return err
	}
	out := floatBytes(buf[bounds[t.rank]:bounds[t.rank+1]])
	var fns []func() error
	for j := 0; j < t.w; j++ {
		if j == t.rank {
			continue
		}
		fns = append(fns,
			func() error { return t.send(j, opResult, pc, seq, phase, out) },
			func() error {
				p, err := t.recv(j, opResult, pc, seq, phase)
				if err != nil {
					return err
				}
				dst := buf[bounds[j]:bounds[j+1]]
				if len(p) != 8*len(dst) {
					return fmt.Errorf("tcptransport: rank %d: phase %q: rank %d sent a %d-byte segment, want %d", t.rank, phase, j, len(p), 8*len(dst))
				}
				floatsInto(dst, p)
				return nil
			})
	}
	return t.runAll(fns)
}

// ReduceScatter implements cluster.Transport by direct exchange: each
// rank sends every segment it does not own to the segment's owner, which
// reduces the W contributions in rank order. Total payload equals the
// charged (W-1)n for any bounds; bounds [0, n] is a gather at rank 0.
func (t *Transport) ReduceScatter(phase string, buf []float64, bounds []int) error {
	if t.w == 1 {
		return nil
	}
	seq, err := t.startOp()
	if err != nil {
		return err
	}
	segs := len(bounds) - 1
	if segs > t.w || bounds[segs] != len(buf) || bounds[0] != 0 {
		return t.fail(fmt.Errorf("tcptransport: rank %d: phase %q: bounds %v do not partition %d elements over %d workers", t.rank, phase, bounds, len(buf), t.w))
	}
	return t.scatter(seq, phaseCRC(phase), phase, buf, bounds)
}

// scatter is the exchange both reductions start with: every segment of
// bounds this rank does not own goes to its owner, and this rank's own
// segment, if any, is reduced in rank order from the peers' contributions.
func (t *Transport) scatter(seq, pc uint32, phase string, buf []float64, bounds []int) error {
	segs := len(bounds) - 1
	var fns []func() error
	for s := 0; s < segs; s++ {
		if s == t.rank {
			continue
		}
		fns = append(fns, func() error {
			return t.send(s, opContrib, pc, seq, phase, floatBytes(buf[bounds[s]:bounds[s+1]]))
		})
	}
	var contribs [][]byte
	var mine []float64
	if t.rank < segs {
		mine = buf[bounds[t.rank]:bounds[t.rank+1]]
		contribs = make([][]byte, t.w)
		for j := 0; j < t.w; j++ {
			if j == t.rank {
				continue
			}
			fns = append(fns, func() error {
				p, err := t.recv(j, opContrib, pc, seq, phase)
				if err != nil {
					return err
				}
				if len(p) != 8*len(mine) {
					return fmt.Errorf("tcptransport: rank %d: phase %q: rank %d contributed %d bytes to a %d-element segment", t.rank, phase, j, len(p), len(mine))
				}
				contribs[j] = p
				return nil
			})
		}
	}
	if err := t.runAll(fns); err != nil {
		return err
	}
	if t.rank < segs {
		reduceRankOrder(mine, contribs, t.rank)
	}
	return nil
}

// AllGather implements cluster.Transport: every rank sends its record to
// every peer. W(W-1)b payload bytes total, matching the charge of
// Cluster.AllGatherFixed.
func (t *Transport) AllGather(phase string, recs [][]byte) error {
	if t.w == 1 {
		return nil
	}
	if len(recs) != t.w {
		return t.fail(fmt.Errorf("tcptransport: rank %d: phase %q: %d records for %d workers", t.rank, phase, len(recs), t.w))
	}
	seq, err := t.startOp()
	if err != nil {
		return err
	}
	pc := phaseCRC(phase)
	own := recs[t.rank]
	var fns []func() error
	for j := 0; j < t.w; j++ {
		if j == t.rank {
			continue
		}
		fns = append(fns,
			func() error { return t.send(j, opRecord, pc, seq, phase, own) },
			func() error {
				p, err := t.recv(j, opRecord, pc, seq, phase)
				if err != nil {
					return err
				}
				if len(p) != len(recs[j]) {
					return fmt.Errorf("tcptransport: rank %d: phase %q: rank %d sent a %d-byte record, want %d", t.rank, phase, j, len(p), len(recs[j]))
				}
				copy(recs[j], p)
				return nil
			})
	}
	return t.runAll(fns)
}

// Broadcast implements cluster.Transport: the root sends buf to every
// peer; peers overwrite their buf with the root's bytes. (W-1)·len(buf)
// payload bytes total, matching the charged binomial-broadcast volume.
func (t *Transport) Broadcast(phase string, buf []byte, root int) error {
	if t.w == 1 {
		return nil
	}
	if root < 0 || root >= t.w {
		return t.fail(fmt.Errorf("tcptransport: rank %d: phase %q: broadcast root %d outside deployment of %d", t.rank, phase, root, t.w))
	}
	seq, err := t.startOp()
	if err != nil {
		return err
	}
	pc := phaseCRC(phase)
	if t.rank == root {
		var fns []func() error
		for j := 0; j < t.w; j++ {
			if j == t.rank {
				continue
			}
			fns = append(fns, func() error { return t.send(j, opBcast, pc, seq, phase, buf) })
		}
		return t.runAll(fns)
	}
	p, err := t.recv(root, opBcast, pc, seq, phase)
	if err != nil {
		return t.fail(err)
	}
	if len(p) != len(buf) {
		return t.fail(fmt.Errorf("tcptransport: rank %d: phase %q: rank %d broadcast %d bytes, want %d", t.rank, phase, root, len(p), len(buf)))
	}
	copy(buf, p)
	return nil
}

// Shadow implements cluster.Transport: send[i][j] zero bytes move from
// rank i to rank j in chunks of at most shadowChunk, so charge-only
// collectives produce exactly their accounted volume as measurable wire
// traffic. The matrix is identical at every rank, which is how receivers
// know how much to expect.
func (t *Transport) Shadow(phase string, send [][]int64) error {
	if t.w == 1 {
		return nil
	}
	if len(send) != t.w {
		return t.fail(fmt.Errorf("tcptransport: rank %d: phase %q: shadow matrix has %d rows for %d workers", t.rank, phase, len(send), t.w))
	}
	seq, err := t.startOp()
	if err != nil {
		return err
	}
	pc := phaseCRC(phase)
	var fns []func() error
	for j := 0; j < t.w; j++ {
		if j == t.rank {
			continue
		}
		if out := send[t.rank][j]; out > 0 {
			fns = append(fns, func() error {
				zeros := make([]byte, min(out, shadowChunk))
				for rem := out; rem > 0; rem -= int64(len(zeros)) {
					if rem < int64(len(zeros)) {
						zeros = zeros[:rem]
					}
					if err := t.send(j, opShadow, pc, seq, phase, zeros); err != nil {
						return err
					}
				}
				return nil
			})
		}
		if in := send[j][t.rank]; in > 0 {
			fns = append(fns, func() error {
				for rem := in; rem > 0; {
					p, err := t.recv(j, opShadow, pc, seq, phase)
					if err != nil {
						return err
					}
					want := min(rem, shadowChunk)
					if int64(len(p)) != want {
						return fmt.Errorf("tcptransport: rank %d: phase %q: shadow chunk from rank %d is %d bytes, want %d", t.rank, phase, j, len(p), want)
					}
					rem -= want
				}
				return nil
			})
		}
	}
	return t.runAll(fns)
}

// reduceRankOrder reduces the owner's local segment and the peers'
// contributions in rank order starting from zero — bit-identical to
// cluster.Cluster.SumHosted. mine holds the local contribution on entry
// and the reduced segment on return; contribs[j] is rank j's serialized
// contribution (nil at rank `self`).
func reduceRankOrder(mine []float64, contribs [][]byte, self int) {
	acc := make([]float64, len(mine))
	for r := range contribs {
		if r == self {
			for i, v := range mine {
				acc[i] += v
			}
			continue
		}
		p := contribs[r]
		for i := range acc {
			acc[i] += math.Float64frombits(binary.LittleEndian.Uint64(p[i*8:]))
		}
	}
	copy(mine, acc)
}

// floatBytes serializes floats little-endian, the wire float encoding.
func floatBytes(xs []float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(x))
	}
	return b
}

// floatsInto deserializes the wire float encoding into dst.
func floatsInto(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
}
