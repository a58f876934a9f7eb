package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans are kept in memory and written as JSON lines when the run ends;
// spans inside the program itself are a later change (ROADMAP's
// internal/obs item) — these wrap the calls from outside.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: a root span
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"` // since the tracer was created
	EndNs    int64  `json:"end_ns"`
	Count    int64  `json:"count"` // work done inside the span, in the layer's own unit
}

// tracer collects spans. A nil *tracer is the untraced mode: every method
// is a no-op, so the measured code path is the same with tracing off.
type tracer struct {
	mu       sync.Mutex
	workload string
	rep      int
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

// setRep labels the spans that follow with a repetition number.
func (t *tracer) setRep(rep int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rep = rep
	t.mu.Unlock()
}

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Workload: t.workload, Rep: t.rep, Name: name, StartNs: now})
	return id
}

// end closes span id, recording how much work it covered.
func (t *tracer) end(id int, count int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.spans[id-1].Count = count
	t.mu.Unlock()
}

// add records a span whose interval was timed by the caller (the load
// generator's sampled requests, tree boundaries seen from OnTree).
func (t *tracer) add(name string, parent int, start, end time.Time, count int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Workload: t.workload, Rep: t.rep, Name: name,
		StartNs: start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(), Count: count,
	})
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover (overlapping children are not
// counted twice).
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		var covered int64
		edge := s.StartNs
		for _, k := range kids {
			lo, hi := max(k.StartNs, edge), min(k.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.EndNs - s.StartNs) - covered
	}
	return self
}

// writeJSONL writes the spans one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// summarize prints, per span name, how many spans there were and their
// total and self time — the per-layer view of where a run's time went.
func (t *tracer) summarize(w io.Writer) {
	if t == nil || len(t.spans) == 0 {
		return
	}
	type agg struct {
		n           int
		total, self int64
	}
	self := selfTimes(t.spans)
	byName := make(map[string]*agg)
	var names []string
	for _, s := range t.spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.EndNs - s.StartNs
		a.self += self[s.ID]
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-36s %7s %12s %12s\n", "span", "n", "total ms", "self ms")
	for _, n := range names {
		a := byName[n]
		fmt.Fprintf(w, "  %-36s %7d %12.3f %12.3f\n", n, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}
