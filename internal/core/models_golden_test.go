package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"vero/internal/datasets"
	"vero/internal/testutil"
)

var updateModels = flag.Bool("update-models", false, "rewrite testdata/models.golden.json")

// goldenPolicy is one training policy the golden tests pin.
type goldenPolicy struct {
	name string
	cfg  Config
}

// goldenPolicies are the ten training policies of TestGoldenModels and
// TestGoldenMemory: every quadrant and aggregation method, QD3's two
// index plans and QD4 with and without feature-parallel's full copy.
var goldenPolicies = []goldenPolicy{
	{"QD1/allreduce", Config{Quadrant: QD1, Aggregation: AggAllReduce}},
	{"QD1/reducescatter", Config{Quadrant: QD1, Aggregation: AggReduceScatter}},
	{"QD1/ps", Config{Quadrant: QD1, Aggregation: AggParameterServer}},
	{"QD2/allreduce", Config{Quadrant: QD2, Aggregation: AggAllReduce}},
	{"QD2/reducescatter", Config{Quadrant: QD2, Aggregation: AggReduceScatter}},
	{"QD2/ps", Config{Quadrant: QD2, Aggregation: AggParameterServer}},
	{"QD3", Config{Quadrant: QD3}},
	{"QD3/columnwise", Config{Quadrant: QD3, ColumnIndex: IndexColumnWise}},
	{"QD4", Config{Quadrant: QD4}},
	{"QD4/featureparallel", Config{Quadrant: QD4, FullCopy: true}},
}

// TestGoldenModels pins the trained model bytes — the sha256 of
// Forest.Encode(), so every leaf weight, gain and threshold bit — of each
// training policy at W = 4: the TestGoldenAccounting scenarios over binary
// and 3-class data, QD3 with the column-wise index, QD4 feature-parallel,
// and square-objective regression. The cross-quadrant tests compare tree
// structure only; this is the referee for the floating-point order of the
// gradient sums, histogram builds and split merges. It runs on amd64 only,
// where Go never fuses a multiply-add. Regenerate (only for an intended
// change of the trained bytes) with:
// go test ./internal/core -run TestGoldenModels -update-models
func TestGoldenModels(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("model bytes are pinned on amd64; on %s Go may fuse multiply-adds", runtime.GOARCH)
	}
	got := map[string]string{}
	train := func(name string, ds *datasets.Dataset, cfg Config) {
		cfg.Trees, cfg.Layers, cfg.Splits = 3, 5, 16
		res, _ := trainQuadrant(t, ds, cfg, 4)
		b, err := res.Forest.Encode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(b)
		got[name] = hex.EncodeToString(sum[:])
	}
	for _, c := range []int{2, 3} {
		var ds *datasets.Dataset
		if c == 2 {
			ds = testutil.Binary(t, 700, 24, 0.3, 5)
		} else {
			ds = testutil.Multi(t, 700, 24, 3, 0.3, 6)
		}
		for _, sc := range goldenPolicies {
			train(fmt.Sprintf("C%d/%s", c, sc.name), ds, sc.cfg)
		}
	}
	// Square loss is the C = 1 path of every gradient pass.
	reg := testutil.Regression(t, 700, 24, 0.3, 0.1, 7)
	for _, sc := range goldenPolicies {
		if sc.cfg.Aggregation == AggAllReduce || sc.cfg.Quadrant >= QD3 {
			cfg := sc.cfg
			cfg.Objective = "square"
			train("square/"+sc.name, reg, cfg)
		}
	}

	path := filepath.Join("testdata", "models.golden.json")
	if *updateModels {
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
		t.Fatalf("read golden (regenerate with -update-models): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d scenarios, golden has %d", len(got), len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok {
			t.Errorf("%s: scenario missing", name)
		} else if g != w {
			t.Errorf("%s: model sha256 = %s, golden %s", name, g, w)
		}
	}
}
