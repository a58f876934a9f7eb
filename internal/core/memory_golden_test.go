package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"vero/internal/datasets"
	"vero/internal/testutil"
)

var updateMemory = flag.Bool("update-memory", false, "rewrite testdata/memory.golden.json")

// workerPeaks is one policy's per-worker peaks of the data and histogram
// memory gauges.
type workerPeaks struct {
	Data      []int64 `json:"data"`
	Histogram []int64 `json:"histogram"`
}

// TestGoldenMemory pins the memory accounting of each training policy —
// every worker's data and histogram gauge peak, the paper's memory
// breakdown (Fig. 10(e)-(f)) — at W = 4 over binary and 3-class data. The
// gauges are set where each policy lays out its data and draws its
// histograms, so a refactor of either must leave them unchanged.
// Regenerate (only for an intended change of the memory model) with:
// go test ./internal/core -run TestGoldenMemory -update-memory
func TestGoldenMemory(t *testing.T) {
	got := map[string]workerPeaks{}
	for _, c := range []int{2, 3} {
		var ds *datasets.Dataset
		if c == 2 {
			ds = testutil.Binary(t, 700, 24, 0.3, 5)
		} else {
			ds = testutil.Multi(t, 700, 24, 3, 0.3, 6)
		}
		for _, p := range goldenPolicies {
			cfg := p.cfg
			cfg.Trees, cfg.Layers, cfg.Splits = 3, 5, 16
			_, cl := trainQuadrant(t, ds, cfg, 4)
			got[fmt.Sprintf("C%d/%s", c, p.name)] = workerPeaks{
				Data:      slices.Clone(cl.Stats().Mem("data").Peak),
				Histogram: slices.Clone(cl.Stats().Mem("histogram").Peak),
			}
		}
	}
	path := filepath.Join("testdata", "memory.golden.json")
	if *updateMemory {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-memory): %v", err)
	}
	var want map[string]workerPeaks
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d policies, golden has %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: policy missing", name)
		case !slices.Equal(g.Data, w.Data):
			t.Errorf("%s: data peaks = %v, golden %v", name, g.Data, w.Data)
		case !slices.Equal(g.Histogram, w.Histogram):
			t.Errorf("%s: histogram peaks = %v, golden %v", name, g.Histogram, w.Histogram)
		}
	}
}
