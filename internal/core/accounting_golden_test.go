package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"vero/internal/cluster"
	"vero/internal/datasets"
	"vero/internal/testutil"
)

var updateAccounting = flag.Bool("update-accounting", false, "rewrite testdata/accounting.golden.json")

// phaseAccount is one phase's accounted communication: bytes per
// collective kind and the bit pattern of the modeled seconds.
type phaseAccount struct {
	Bytes       map[string]int64 `json:"bytes"`
	CommSecBits uint64           `json:"comm_seconds_bits"`
}

// TestGoldenAccounting pins the simulation's communication accounting —
// every phase's bytes per collective kind and its alpha-beta seconds, bit
// for bit — for each quadrant and aggregation method at W = 4 over binary
// and 3-class data. Regenerate (only for an intended change of the cost
// model) with: go test ./internal/core -run TestGoldenAccounting -update-accounting
func TestGoldenAccounting(t *testing.T) {
	type scenario struct {
		q   Quadrant
		agg Aggregation
	}
	scenarios := []scenario{
		{QD1, AggAllReduce}, {QD1, AggReduceScatter}, {QD1, AggParameterServer},
		{QD2, AggAllReduce}, {QD2, AggReduceScatter}, {QD2, AggParameterServer},
		{QD3, AggAllReduce}, {QD4, AggAllReduce},
	}
	aggNames := map[Aggregation]string{AggAllReduce: "allreduce", AggReduceScatter: "reducescatter", AggParameterServer: "ps"}
	got := map[string]map[string]phaseAccount{}
	for _, c := range []int{2, 3} {
		var ds *datasets.Dataset
		if c == 2 {
			ds = testutil.Binary(t, 700, 24, 0.3, 5)
		} else {
			ds = testutil.Multi(t, 700, 24, 3, 0.3, 6)
		}
		for _, sc := range scenarios {
			cfg := Config{Quadrant: sc.q, Aggregation: sc.agg, Trees: 3, Layers: 5, Splits: 16}
			_, cl := trainQuadrant(t, ds, cfg, 4)
			name := fmt.Sprintf("C%d/%v", c, sc.q)
			if sc.q == QD1 || sc.q == QD2 {
				name += "/" + aggNames[sc.agg]
			}
			got[name] = accountOf(t, name, cl.Stats())
		}
	}
	path := filepath.Join("testdata", "accounting.golden.json")
	if *updateAccounting {
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
		t.Fatalf("read golden (regenerate with -update-accounting): %v", err)
	}
	var want map[string]map[string]phaseAccount
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d scenarios, golden has %d", len(got), len(want))
	}
	for name, wp := range want {
		gp, ok := got[name]
		if !ok {
			t.Errorf("%s: scenario missing", name)
			continue
		}
		for phase := range gp {
			if _, ok := wp[phase]; !ok {
				t.Errorf("%s: phase %s not in golden", name, phase)
			}
		}
		for phase, w := range wp {
			g := gp[phase]
			for kind, b := range w.Bytes {
				if g.Bytes[kind] != b {
					t.Errorf("%s: phase %s %s bytes = %d, golden %d", name, phase, kind, g.Bytes[kind], b)
				}
			}
			if g.CommSecBits != w.CommSecBits {
				t.Errorf("%s: phase %s comm seconds = %v, golden %v", name, phase,
					math.Float64frombits(g.CommSecBits), math.Float64frombits(w.CommSecBits))
			}
		}
	}
}

// accountOf extracts every phase's accounted bytes (all kinds, zeros
// included) and modeled seconds; measured bytes must be zero on the
// simulation.
func accountOf(t *testing.T, scenario string, s *cluster.Stats) map[string]phaseAccount {
	t.Helper()
	out := map[string]phaseAccount{}
	for _, name := range s.PhaseNames() {
		p := s.Phase(name)
		if p.MeasuredBytes != 0 || p.MeasuredSeconds != 0 {
			t.Errorf("%s: phase %s measured %d bytes in %v s on the simulation", scenario, name, p.MeasuredBytes, p.MeasuredSeconds)
		}
		acc := phaseAccount{Bytes: map[string]int64{}, CommSecBits: math.Float64bits(p.CommSeconds)}
		for k, b := range p.Bytes {
			acc.Bytes[cluster.OpKind(k).String()] = b
		}
		out[name] = acc
	}
	return out
}
