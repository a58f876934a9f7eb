package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{1000, 0.99}, // exactly ten samples beyond the p99
		{999, 0.95},
		{200, 0.95},
		{199, 0.90},
		{100, 0.90},
		{99, 0.50},
		{5, 0.50},
	} {
		if got := supportedPercentile(tc.n, 0.99); got != tc.want {
			t.Errorf("supportedPercentile(%d, 0.99) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if got := supportedPercentile(100000, 0.50); got != 0.50 {
		t.Errorf("a median request came back as p%v", got*100)
	}
}

// fakeClock is a single-threaded clock: sleeping and serving both just
// move it forward.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }
func (c *fakeClock) sleepUntil(t time.Time) {
	if t.After(c.t) {
		c.t = t
	}
}

// TestOpenLoopTimesFromDue drives the open loop with one client against a
// server that takes 3 ms per request while requests fall due every 2 ms:
// the backlog grows by 1 ms a request, and both the latency (timed from the
// due instant, not the send) and the reported lateness must show it.
func TestOpenLoopTimesFromDue(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	const service = 3 * time.Millisecond
	gen := &loadgen{clients: 1, bodies: 4, clk: clk, send: func(int, bool) ([]byte, bool) {
		clk.t = clk.t.Add(service)
		return nil, true
	}}
	p := gen.open(20*time.Millisecond, 500) // 10 requests, due every 2 ms
	if p.sent != 10 || len(p.samples) != 10 || p.failed != 0 {
		t.Fatalf("sent %d, ok %d, failed %d; want 10, 10, 0", p.sent, len(p.samples), p.failed)
	}
	for k, s := range p.samples {
		wantLate := time.Duration(k) * time.Millisecond
		wantLat := wantLate + service
		if time.Duration(s.lateNs) != wantLate || time.Duration(s.latNs) != wantLat {
			t.Errorf("request %d: late %v latency %v, want %v and %v", k, time.Duration(s.lateNs), time.Duration(s.latNs), wantLate, wantLat)
		}
	}
	if got := latenessP99(p); got != 9 {
		t.Errorf("lateness p99 = %v ms, want 9", got)
	}

	// A server faster than the schedule: no lateness, latency = service.
	clk.t = time.Unix(2000, 0)
	gen.send = func(int, bool) ([]byte, bool) { clk.t = clk.t.Add(time.Millisecond); return nil, true }
	for _, s := range gen.open(20*time.Millisecond, 500).samples {
		if s.lateNs != 0 || time.Duration(s.latNs) != time.Millisecond {
			t.Fatalf("on-time request: late %v latency %v", time.Duration(s.lateNs), time.Duration(s.latNs))
		}
	}
}

func TestFailedRequestsHaveNoLatency(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	n := 0
	gen := &loadgen{clients: 1, bodies: 1, clk: clk, send: func(int, bool) ([]byte, bool) {
		clk.t = clk.t.Add(time.Millisecond)
		n++
		return nil, n%2 == 0
	}}
	p := gen.closed(10 * time.Millisecond)
	if p.sent != 10 || p.failed != 5 || len(p.samples) != 5 {
		t.Errorf("sent %d failed %d samples %d, want 10, 5, 5", p.sent, p.failed, len(p.samples))
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 60}, // overlaps span 2: covered once
		{ID: 4, Parent: 3, StartNs: 35, EndNs: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 30, 3: 20, 4: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	w, _ := findWorkload("serve-batch-large")
	w = w.scaled(0.02)
	gen := func(seed int64) (*inputs, []byte) {
		in, err := prepareInputs(w, seed, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		file, err := os.ReadFile(in.libsvm)
		if err != nil {
			t.Fatal(err)
		}
		return in, file
	}
	a, fa := gen(7)
	b, fb := gen(7)
	c, fc := gen(8)
	if !bytes.Equal(fa, fb) || !bytes.Equal(a.forestEnc, b.forestEnc) || !bytes.Equal(bytes.Join(a.bodies, nil), bytes.Join(b.bodies, nil)) {
		t.Error("the same seed generated different files, bodies or forest")
	}
	if bytes.Equal(fa, fc) || bytes.Equal(a.forestEnc, c.forestEnc) || bytes.Equal(a.bodies[0], c.bodies[0]) {
		t.Error("another seed generated the same files, bodies or forest")
	}
	if len(a.forestEnc) == 0 || len(a.bodies) == 0 {
		t.Error("no forest or no bodies generated")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestCatalogueMeetsTheContract(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unitRE)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range endToEnd {
		if d.Bound == 0 {
			t.Errorf("%s: an end-to-end metric needs a bound", d.Name)
		}
	}
	mem, _ := findWorkload("train-qd4-mem")
	ooc, _ := findWorkload("train-qd4-ooc")
	mem.Name, mem.Why, ooc.Name, ooc.Why = "", "", "", ""
	ooc.Mode, ooc.MemBudget = mem.Mode, mem.MemBudget
	if mem != ooc {
		t.Errorf("train-qd4-mem and train-qd4-ooc must differ only in the data path:\n%+v\n%+v", mem, ooc)
	}
}

func TestManifestFileMatchesTheTables(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := printManifest(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, want.Bytes()) {
		t.Error("BENCHMARK.json differs from the tables in spec.go; regenerate it with: bash bench/run.sh -manifest > BENCHMARK.json")
	}
	if len(file) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(file))
	}
}

func TestGoldenCoversEveryWorkload(t *testing.T) {
	golden, err := goldenHashes()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if len(golden[w.Name]) != 64 {
			t.Errorf("bench/golden.json has no hash for %s", w.Name)
		}
	}
	if golden["train-qd4-mem"] != golden["train-qd4-ooc"] {
		t.Error("the in-memory and the streamed path must train the same model")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "train_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "serve_rps", Better: "higher", Bound: 0.10}
	mv := func(samples ...float64) metricValue { return metricValue{Value: median(samples), Samples: samples} }
	for _, tc := range []struct {
		d         metricDef
		base, cur metricValue
		want      string
	}{
		{lower, mv(1.00, 1.01, 0.99), mv(1.02, 1.03, 1.01), "ok"},
		{lower, mv(1.00, 1.01, 0.99), mv(1.20, 1.21, 1.19), "REGRESSION"},
		{higher, mv(100, 101, 99), mv(85, 86, 84), "REGRESSION"},
		{lower, mv(1.00, 1.01, 0.99), mv(0.80, 0.81, 0.79), "improved"},
		// Within the bound by medians, but the repetitions spread wider than
		// the bound: not "unchanged".
		{lower, mv(1.00, 1.30, 0.90), mv(1.02, 1.03, 1.01), "unresolved"},
		// Wide spread, yet every new repetition beats every old one.
		{lower, mv(1.00, 1.30, 0.95), mv(0.90, 0.70, 0.80), "improved"},
		// A metric one side does not have is not an improvement to zero.
		{lower, mv(1.00, 1.01, 0.99), metricValue{}, "MISSING"},
		{higher, metricValue{}, mv(100, 101, 99), "MISSING"},
	} {
		if got := verdict(tc.d, tc.base, tc.cur); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.d.Name, tc.base.Samples, tc.cur.Samples, got, tc.want)
		}
	}
}

// TestSmokeEveryWorkload runs all five workloads, untraced and traced, at a
// fiftieth of their size: every metric of the catalogue must come out, no
// check may fail, and the two data paths must train the same model.
func TestSmokeEveryWorkload(t *testing.T) {
	hashes := map[string]string{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := runOpts{seed: 3, seconds: 0.3, trace: traced, scale: 0.02, workdir: t.TempDir(), log: io.Discard}
			res, err := runWorkload(w, o)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, %d of %d failed: %v", w.Name, traced, res.Correct, res.Failed, res.Attempted, res.Notes)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v)", w.Name, traced, d.Name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			hashes[w.Name] = res.Hash
		}
	}
	if hashes["train-qd4-mem"] != hashes["train-qd4-ooc"] {
		t.Error("train-qd4-ooc trained a different model than train-qd4-mem")
	}
}

func TestRecordRoundTripsThroughCompare(t *testing.T) {
	rec := &record{Seconds: 12, Scale: 1, Comparable: true, Seed: 1, Workloads: map[string]*workloadRecord{}}
	for _, w := range workloads {
		wr := &workloadRecord{Correct: true, Attempted: 10, Hash: "h", ServeTailPct: 0.99, EndToEnd: map[string]metricValue{}, PerLayer: map[string]metricValue{}}
		for _, d := range endToEnd {
			wr.EndToEnd[d.Name] = metricValue{Value: 1, Unit: d.Unit, Samples: []float64{1, 1.01, 0.99}}
		}
		for _, d := range perLayer {
			wr.PerLayer[d.Name] = metricValue{Value: 5, Unit: d.Unit}
		}
		rec.Workloads[w.Name] = wr
	}
	write := func(r *record) string {
		path := t.TempDir() + "/r.json"
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write(rec)
	if err := compareRecords(io.Discard, base, base); err != nil {
		t.Errorf("a record compared with itself: %v", err)
	}
	rec.Workloads["serve-single"].PerLayer["tree.nodes"] = metricValue{Value: 6}
	if err := compareRecords(io.Discard, base, write(rec)); err == nil {
		t.Error("an exact count changed and compare passed")
	}
	rec.Workloads["serve-single"].PerLayer["tree.nodes"] = metricValue{Value: 5}
	rec.Workloads["train-qd2-tcp"].EndToEnd["train_s"] = metricValue{Value: 1.5, Samples: []float64{1.5, 1.5, 1.5}}
	if err := compareRecords(io.Discard, base, write(rec)); err == nil {
		t.Error("train_s got 50% worse and compare passed")
	}
	rec.Workloads["train-qd2-tcp"].EndToEnd["train_s"] = metricValue{Value: 1, Samples: []float64{1, 1, 1}}
	// train_s is not what serve-single is about: reported, not gated.
	rec.Workloads["serve-single"].EndToEnd["train_s"] = metricValue{Value: 1.5, Samples: []float64{1.5, 1.5, 1.5}}
	if err := compareRecords(io.Discard, base, write(rec)); err != nil {
		t.Errorf("a metric moved on a workload it is not gated on: %v", err)
	}
	// ...but it must still be there.
	delete(rec.Workloads["serve-single"].EndToEnd, "train_s")
	if err := compareRecords(io.Discard, base, write(rec)); err == nil {
		t.Error("an end-to-end metric went missing and compare passed")
	}
	rec.Workloads["serve-single"].EndToEnd["train_s"] = metricValue{Value: 1, Samples: []float64{1, 1, 1}}
	delete(rec.Workloads["train-qd4-ooc"].PerLayer, "cluster.comm_bytes")
	if err := compareRecords(io.Discard, write(rec), write(rec)); err == nil {
		t.Error("an exact count is missing from both records and compare passed")
	}
	rec.Workloads["train-qd4-ooc"].PerLayer["cluster.comm_bytes"] = metricValue{Value: 5}
	// A p95 under the p99's name is not held against a p99, either way.
	rec.Workloads["serve-batch-large"].ServeTailPct = 0.95
	rec.Workloads["serve-batch-large"].EndToEnd["serve_p99_ms"] = metricValue{Value: 1.5, Samples: []float64{1.5, 1.5, 1.5}}
	var out bytes.Buffer
	if err := compareRecords(&out, base, write(rec)); err != nil || !bytes.Contains(out.Bytes(), []byte("unresolved: a p99 against a p95")) {
		t.Errorf("a p95 compared with a p99: err %v, output:\n%s", err, out.String())
	}
	rec.Workloads["train-qd4-mem"].Failed = 1
	if err := compareRecords(io.Discard, base, write(rec)); err == nil {
		t.Error("failures increased and compare passed")
	}
}
