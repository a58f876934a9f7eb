package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read record: %w", err)
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("read record %s: %w", path, err)
	}
	return &rec, nil
}

// worseBy is how much worse cur is than base as a share of base, in the
// metric's own direction (negative: better).
func worseBy(d metricDef, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (base - cur) / base
	}
	return (cur - base) / base
}

// everyBetter reports whether every sample of cur is better than every
// sample of base.
func everyBetter(d metricDef, base, cur []float64) bool {
	if len(base) == 0 || len(cur) == 0 {
		return false
	}
	for _, c := range cur {
		for _, b := range base {
			if worseBy(d, b, c) >= 0 {
				return false
			}
		}
	}
	return true
}

// verdict applies a metric's bound to one workload's old and new values
// (each the median of its record's runs, the runs' own values its samples):
// a regression when the new median is worse by more than the bound;
// otherwise unresolved — not unchanged — where either side's runs spread
// wider than the bound, unless every new run beats every old one. A value
// that is missing or not positive on either side is no measurement at all:
// a binary that drops or renames a metric must not pass.
func verdict(d metricDef, base, cur metricValue) string {
	if !(base.Value > 0) || !(cur.Value > 0) {
		return "MISSING"
	}
	w := worseBy(d, base.Value, cur.Value)
	switch {
	case w > d.Bound:
		return "REGRESSION"
	case everyBetter(d, base.Samples, cur.Samples):
		return "improved"
	case max(spreadShare(base.Samples), spreadShare(cur.Samples)) > d.Bound:
		return "unresolved"
	case w < -d.Bound:
		return "improved"
	}
	return "ok"
}

// compareRecords prints, per workload and end-to-end metric, old, new,
// their ratio and the verdict against the metric's bound on the workloads
// the metric is gated on, checks the exact counts, and returns an error on
// any regression, missing value, mismatch or failure.
func compareRecords(w io.Writer, oldPath, newPath string) error {
	base, err := readRecord(oldPath)
	if err != nil {
		return err
	}
	cur, err := readRecord(newPath)
	if err != nil {
		return err
	}
	switch {
	case !base.Comparable || !cur.Comparable:
		return errors.New("a record was made at a scale other than 1: not comparable")
	case base.Seconds != cur.Seconds:
		return fmt.Errorf("records measure for %g s and %g s: run length must be the same on both sides", base.Seconds, cur.Seconds)
	case base.Host.CPU != cur.Host.CPU || base.Host.NumCPU != cur.Host.NumCPU || base.Host.GOMAXPROCS != cur.Host.GOMAXPROCS:
		fmt.Fprintf(w, "WARNING: records come from different hosts (%s x%d vs %s x%d); timings do not compare\n",
			base.Host.CPU, base.Host.NumCPU, cur.Host.CPU, cur.Host.NumCPU)
	}
	fmt.Fprintf(w, "old: %s (git %.12s, seed %d)   new: %s (git %.12s, seed %d)\n", oldPath, base.Host.GitSHA, base.Seed, newPath, cur.Host.GitSHA, cur.Seed)
	bad := 0
	for _, wl := range workloads {
		b, c := base.Workloads[wl.Name], cur.Workloads[wl.Name]
		if b == nil || c == nil {
			fmt.Fprintf(w, "\n== %s: missing from a record\n", wl.Name)
			bad++
			continue
		}
		fmt.Fprintf(w, "\n== %s\n  %-22s %14s %14s  %-18s %s\n", wl.Name, "metric", "old", "new", "new/old", "verdict")
		for _, d := range endToEnd {
			bm, cm := b.EndToEnd[d.Name], c.EndToEnd[d.Name]
			v := verdict(d, bm, cm)
			switch {
			case v == "MISSING":
				bad++
			case !d.gatedOn(wl.Name):
				v = "not gated on this workload"
			case d.Name == "serve_p99_ms" && b.ServeTailPct != c.ServeTailPct:
				v = fmt.Sprintf("unresolved: a p%.0f against a p%.0f", 100*b.ServeTailPct, 100*c.ServeTailPct)
			case v == "REGRESSION":
				bad++
			}
			fmt.Fprintf(w, "  %-22s %14.6g %14.6g  %-18s %s (bound %.0f%%, %s is better)\n", d.Name,
				bm.Value, cm.Value, fmt.Sprintf("%.3f of old", cm.Value/bm.Value), v, 100*d.Bound, d.Better)
		}
		if c.Failed > b.Failed || !c.Correct {
			fmt.Fprintf(w, "  failed_share           %14g %14g  any increase fails: FAILED\n", b.FailedShare, c.FailedShare)
			bad++
		}
		for _, d := range perLayer {
			if !d.Exact {
				continue
			}
			bv, cv := b.PerLayer[d.Name].Value, c.PerLayer[d.Name].Value
			switch {
			case !(bv > 0) || !(cv > 0):
				fmt.Fprintf(w, "  %-38s %.0f -> %.0f  an exact count is missing: MISSING\n", d.Name, bv, cv)
				bad++
			case base.Seed == cur.Seed && bv != cv: // the counts are a function of the seed
				fmt.Fprintf(w, "  %-38s %.0f -> %.0f  must match exactly: MISMATCH\n", d.Name, bv, cv)
				bad++
			}
		}
		if base.Seed == cur.Seed && b.Hash != c.Hash {
			fmt.Fprintf(w, "  prediction hash %.12s -> %.12s: the trained model changed: MISMATCH\n", b.Hash, c.Hash)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d regressions, missing values, mismatches or failures", bad)
	}
	return nil
}
