package cluster

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// OpKind labels a collective operation in the communication accounting.
type OpKind int

// The collective kinds tracked by Stats.
const (
	OpAllReduce OpKind = iota
	OpReduceScatter
	OpGather
	OpBroadcast
	OpAllGather
	OpPointToPoint
	OpShuffle
	numOpKinds
)

// String returns the collective's name.
func (k OpKind) String() string {
	switch k {
	case OpAllReduce:
		return "all-reduce"
	case OpReduceScatter:
		return "reduce-scatter"
	case OpGather:
		return "gather"
	case OpBroadcast:
		return "broadcast"
	case OpAllGather:
		return "all-gather"
	case OpPointToPoint:
		return "point-to-point"
	case OpShuffle:
		return "shuffle"
	default:
		return fmt.Sprintf("op(%d)", int(k))
	}
}

// PhaseStats aggregates one labeled phase of execution.
type PhaseStats struct {
	// CompSeconds is measured computation makespan (max across workers,
	// summed over Parallel calls under this phase).
	CompSeconds float64
	// CommSeconds is simulated network time under the alpha-beta model.
	CommSeconds float64
	// Bytes is the total communication volume by collective kind.
	Bytes [numOpKinds]int64
	// ModeledBytes is the part of TotalBytes charged by charge-only
	// collectives (Broadcast, PointToPoint, Shuffle, ChargeComm), which no
	// transport moves; like TotalBytes it is deployment-global.
	ModeledBytes int64
	// MeasuredBytes is the collective payload volume actually sent over a
	// real transport (zero on the simulated backend). Before
	// Cluster.SyncMeasured it counts this rank's sends; after, the
	// deployment-global total, equal to TotalBytes() − ModeledBytes.
	MeasuredBytes int64
	// MeasuredSeconds is wall-clock spent inside transport operations
	// (zero on the simulated backend): this rank's before SyncMeasured,
	// the slowest rank's after. The real-network counterpart of
	// CommSeconds' alpha-beta prediction.
	MeasuredSeconds float64
}

// TotalBytes sums the volume over all collective kinds.
func (p *PhaseStats) TotalBytes() int64 {
	var t int64
	for _, b := range p.Bytes {
		t += b
	}
	return t
}

// MemGauge tracks a per-worker byte gauge with its peak (used for the
// paper's memory breakdowns, Figure 10(e)-(f)).
type MemGauge struct {
	Cur  []int64
	Peak []int64
}

// Add adjusts worker w's gauge by delta and updates the peak.
func (g *MemGauge) Add(w int, delta int64) {
	g.Cur[w] += delta
	if g.Cur[w] > g.Peak[w] {
		g.Peak[w] = g.Cur[w]
	}
}

// Set overwrites worker w's gauge and updates the peak.
func (g *MemGauge) Set(w int, v int64) {
	g.Cur[w] = v
	if v > g.Peak[w] {
		g.Peak[w] = v
	}
}

// MaxPeak returns the largest per-worker peak.
func (g *MemGauge) MaxPeak() int64 {
	var m int64
	for _, v := range g.Peak {
		if v > m {
			m = v
		}
	}
	return m
}

// Stats collects per-phase computation/communication records and memory
// gauges. All methods are safe for concurrent use.
type Stats struct {
	mu         sync.Mutex
	w          int
	phases     map[string]*PhaseStats
	workerComp []time.Duration
	mem        map[string]*MemGauge
}

func newStats(w int) *Stats {
	return &Stats{
		w:          w,
		phases:     make(map[string]*PhaseStats),
		workerComp: make([]time.Duration, w),
		mem:        make(map[string]*MemGauge),
	}
}

func (s *Stats) phase(name string) *PhaseStats {
	p, ok := s.phases[name]
	if !ok {
		p = &PhaseStats{}
		s.phases[name] = p
	}
	return p
}

func (s *Stats) addComp(phase string, seconds float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.phase(phase).CompSeconds += seconds
}

func (s *Stats) addWorkerComp(w int, d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.workerComp[w] += d
}

func (s *Stats) addComm(phase string, kind OpKind, bytes int64, seconds float64, modeled bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.phase(phase)
	p.Bytes[kind] += bytes
	p.CommSeconds += seconds
	if modeled {
		p.ModeledBytes += bytes
	}
}

func (s *Stats) addMeasured(phase string, bytes int64, seconds float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.phase(phase)
	p.MeasuredBytes += bytes
	p.MeasuredSeconds += seconds
}

// measuredSnapshot returns every phase's measured record in sorted name
// order — the canonical form SyncMeasured exchanges across ranks.
func (s *Stats) measuredSnapshot() (names []string, bytes []int64, secs []float64) {
	names = s.PhaseNames()
	bytes = make([]int64, len(names))
	secs = make([]float64, len(names))
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, n := range names {
		p := s.phases[n]
		bytes[i] = p.MeasuredBytes
		secs[i] = p.MeasuredSeconds
	}
	return names, bytes, secs
}

// setMeasured overwrites the named phases' measured records with synced
// deployment-global values.
func (s *Stats) setMeasured(names []string, bytes []int64, secs []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, n := range names {
		p := s.phase(n)
		p.MeasuredBytes = bytes[i]
		p.MeasuredSeconds = secs[i]
	}
}

// Mem returns the named memory gauge, creating it on first use.
func (s *Stats) Mem(name string) *MemGauge {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, ok := s.mem[name]
	if !ok {
		g = &MemGauge{Cur: make([]int64, s.w), Peak: make([]int64, s.w)}
		s.mem[name] = g
	}
	return g
}

// Phase returns a copy of the named phase's record (zero value if the
// phase never ran).
func (s *Stats) Phase(name string) PhaseStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p, ok := s.phases[name]; ok {
		return *p
	}
	return PhaseStats{}
}

// PhaseNames returns the sorted phase labels seen so far.
func (s *Stats) PhaseNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.phases))
	for n := range s.phases {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Totals returns the summed computation and communication seconds and the
// total bytes across all phases.
func (s *Stats) Totals() (compSec, commSec float64, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.phases {
		compSec += p.CompSeconds
		commSec += p.CommSeconds
		bytes += p.TotalBytes()
	}
	return compSec, commSec, bytes
}

// MeasuredTotals returns the summed measured communication wall-clock and
// payload bytes across all phases (zero on the simulated backend).
func (s *Stats) MeasuredTotals() (commSec float64, bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.phases {
		commSec += p.MeasuredSeconds
		bytes += p.MeasuredBytes
	}
	return commSec, bytes
}

// WorkerComp returns each worker's cumulative measured busy time.
func (s *Stats) WorkerComp() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]time.Duration, len(s.workerComp))
	copy(out, s.workerComp)
	return out
}

// String renders a human-readable per-phase table.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %12s %12s %14s\n", "phase", "comp (s)", "comm (s)", "bytes")
	for _, name := range s.PhaseNames() {
		p := s.Phase(name)
		fmt.Fprintf(&b, "%-24s %12.4f %12.4f %14d\n", name, p.CompSeconds, p.CommSeconds, p.TotalBytes())
	}
	comp, comm, bytes := s.Totals()
	fmt.Fprintf(&b, "%-24s %12.4f %12.4f %14d\n", "TOTAL", comp, comm, bytes)
	return b.String()
}
