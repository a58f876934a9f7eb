// Command bench is this repository's benchmark: five workloads through the
// real ingest → train → encode → predict → serve pipe, nine end-to-end
// metrics with a regression bound each, and a traced run per workload that
// fills a per-layer table. See README.md in this directory.
//
// It is a module of its own; run it from the repository root through the
// launcher, which builds it into .bench_build/:
//
//	bash bench/run.sh --workload train-qd4-mem --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh -out r.json            # every workload: 3 untraced runs + a traced one
//	bash bench/run.sh -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

var discardLogger = log.New(io.Discard, "", 0)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print the driver's result line (default: all workloads, untraced and traced)")
		seed         = flag.Int64("seed", 1, "workload seed: drives the dataset, the request rows and the synthetic forest")
		seconds      = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run and the per-layer metrics")
		scale        = flag.Float64("scale", 1, "shrink rows and trees for smoke runs; results at any scale but 1 are stamped not comparable")
		workdir      = flag.String("workdir", ".bench_build/work", "directory for generated files (created; emptied of this run's files on exit)")
		spans        = flag.String("spans", "", "with -trace 1: write the spans as JSON lines here (default: a file in the work dir)")
		out          = flag.String("out", "", "all-workloads mode: write the machine-readable record (each metric's median over the untraced runs, and each run's value) here")
		compare      = flag.Bool("compare", false, "compare two records: -compare old.json new.json; non-zero exit on regression")
		printMan     = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the tables in spec.go")
		updateGolden = flag.Bool("update-golden", false, "retrain every workload at seed 1 and rewrite bench/golden.json")
	)
	flag.Parse()
	err := func() error {
		if *printMan {
			return printManifest(os.Stdout)
		}
		if *compare {
			if flag.NArg() != 2 {
				return errors.New("usage: -compare old.json new.json")
			}
			return compareRecords(os.Stdout, flag.Arg(0), flag.Arg(1))
		}
		if err := os.MkdirAll(*workdir, 0o755); err != nil {
			return fmt.Errorf("work dir: %w", err)
		}
		o := runOpts{seed: *seed, seconds: *seconds, trace: *trace != 0, scale: *scale, workdir: *workdir, spans: *spans, log: os.Stderr}
		switch {
		case *updateGolden:
			return writeGolden(o)
		case *workloadName != "":
			return runOne(*workloadName, o)
		default:
			return runAll(o, *out)
		}
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned after the results are printed when a
// correctness check failed: the exit status must be non-zero.
var errIncorrect = errors.New("correctness gate failed")

// runOne is the driver's mode: one workload, one run, and as the last line
// of standard output one JSON object with exactly the keys correct,
// attempted, failed and metrics.
func runOne(name string, o runOpts) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := runWorkload(w, o)
	if err != nil {
		return err
	}
	for _, n := range res.Notes {
		fmt.Fprintln(o.log, "note:", n)
	}
	// The result line carries each metric's value and unit only: samples,
	// hash and notes stay out of it.
	line := runResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: make(map[string]metricValue)}
	for k, v := range res.Metrics {
		line.Metrics[k] = metricValue{Value: v.Value, Unit: v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// record is the machine-readable result of an all-workloads run.
type record struct {
	Host hostInfo `json:"host"`
	Seed int64    `json:"seed"`
	// Seconds and Scale are the run's arguments; Comparable is false at any
	// scale but 1, and compare mode refuses such a record.
	Seconds    float64                    `json:"seconds"`
	Scale      float64                    `json:"scale"`
	Comparable bool                       `json:"comparable"`
	WallS      float64                    `json:"wall_s"`
	Workloads  map[string]*workloadRecord `json:"workloads"`
}

type workloadRecord struct {
	EndToEnd map[string]metricValue `json:"end_to_end"`
	PerLayer map[string]metricValue `json:"per_layer"`
	// ServeTailPct is the percentile serve_p99_ms holds: 0.99, or the lowest
	// one any of the runs fell back to for want of samples. Compare mode
	// does not hold a p99 against a p95.
	ServeTailPct float64  `json:"serve_tail_pct"`
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	FailedShare  float64  `json:"failed_share"`
	Correct      bool     `json:"correct"`
	Hash         string   `json:"hash"`
	Notes        []string `json:"notes,omitempty"`
}

// runAll runs every workload untraced (untracedRuns times, keeping the
// median of each metric and every run's value as its samples) and then
// traced, prints every metric by name with its unit, and writes the record.
func runAll(o runOpts, outPath string) error {
	start := time.Now()
	rec := &record{Host: host(), Seed: o.seed, Seconds: o.seconds, Scale: o.scale, Comparable: o.scale == 1, Workloads: make(map[string]*workloadRecord)}
	correct := true
	for _, w := range workloads {
		wr := &workloadRecord{Correct: true, EndToEnd: make(map[string]metricValue), ServeTailPct: 0.99}
		rec.Workloads[w.Name] = wr
		add := func(res *runResult) {
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.Correct = wr.Correct && res.Correct
			wr.Notes = append(wr.Notes, res.Notes...)
		}
		o.trace = false
		for run := 0; run < untracedRuns; run++ {
			res, err := runWorkload(w, o)
			if err != nil {
				return err
			}
			add(res)
			wr.Hash = res.Hash
			wr.ServeTailPct = min(wr.ServeTailPct, res.TailPct)
			for name, m := range res.Metrics {
				agg := wr.EndToEnd[name]
				agg.Unit, agg.Samples = m.Unit, append(agg.Samples, m.Value)
				agg.Value = median(agg.Samples)
				wr.EndToEnd[name] = agg
			}
		}
		o.trace = true
		res, err := runWorkload(w, o)
		if err != nil {
			return err
		}
		add(res)
		wr.PerLayer = res.Metrics
		wr.FailedShare = float64(wr.Failed) / float64(wr.Attempted)
		correct = correct && wr.Correct
	}
	// The same layers through two data paths must train the same model.
	if mem, ooc := rec.Workloads["train-qd4-mem"], rec.Workloads["train-qd4-ooc"]; mem.Hash != ooc.Hash {
		ooc.Notes = append(ooc.Notes, "prediction hash differs from train-qd4-mem: the streamed path trained another model")
		ooc.Correct, correct = false, false
	}
	rec.WallS = time.Since(start).Seconds()
	printRecord(os.Stdout, rec)
	if outPath != "" {
		b, err := json.MarshalIndent(rec, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("write record: %w", err)
		}
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

func printRecord(w io.Writer, rec *record) {
	fmt.Fprintf(w, "host: %s, %d CPUs, GOMAXPROCS %d, %s %s, git %s; seed %d, %.0f s per run, scale %g, comparable %v, wall %.0f s\n",
		rec.Host.CPU, rec.Host.NumCPU, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.GOARCH, rec.Host.GitSHA,
		rec.Seed, rec.Seconds, rec.Scale, rec.Comparable, rec.WallS)
	for _, wl := range workloads {
		wr := rec.Workloads[wl.Name]
		fmt.Fprintf(w, "\n== %s  (correct %v, failed_share %g = %d/%d, hash %.12s)\n", wl.Name, wr.Correct, wr.FailedShare, wr.Failed, wr.Attempted, wr.Hash)
		for _, n := range wr.Notes {
			fmt.Fprintf(w, "   note: %s\n", n)
		}
		for _, d := range endToEnd {
			m := wr.EndToEnd[d.Name]
			gate := fmt.Sprintf("bound %.0f%%", 100*d.Bound)
			if !d.gatedOn(wl.Name) {
				gate = "not gated on this workload"
			}
			if d.Name == "serve_p99_ms" && wr.ServeTailPct != 0.99 {
				gate += fmt.Sprintf("; the p%.0f: too few samples for a p99", 100*wr.ServeTailPct)
			}
			fmt.Fprintf(w, "  %-38s %14.6g %-10s (median of %d runs, spread %.1f%%, %s)\n", d.Name, m.Value, m.Unit, len(m.Samples), 100*spreadShare(m.Samples), gate)
		}
		for _, d := range perLayer {
			m := wr.PerLayer[d.Name]
			fmt.Fprintf(w, "  %-38s %14.6g %-10s -> %s\n", d.Name, m.Value, m.Unit, d.Moves)
		}
	}
}

func printManifest(w io.Writer) error {
	b, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// writeGolden retrains every workload once at the golden seed and rewrites
// bench/golden.json (run from the repository root).
func writeGolden(o runOpts) error {
	o.seed, o.scale = goldenSeed, 1
	golden := make(map[string]string)
	for _, w := range workloads {
		dir, err := os.MkdirTemp(o.workdir, w.Name+"-")
		if err != nil {
			return err
		}
		in, err := prepareInputs(w, o.seed, dir)
		if err == nil {
			var r *pipeRep
			if r, err = runPipeRep(w, in, 0, nil, ""); err == nil {
				golden[w.Name] = r.hash
			}
		}
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	b, err := json.MarshalIndent(golden, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile("bench/golden.json", append(b, '\n'), 0o644)
}

// hostInfo is recorded in every record: numbers from two hosts do not
// compare.
type hostInfo struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	GitSHA     string `json:"git_sha"`
}

func host() hostInfo {
	h := hostInfo{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, GitSHA: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout without .git (the driver's) has no SHA to record.
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(b))
	}
	return h
}
