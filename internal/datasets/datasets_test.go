package datasets

import "testing"

func TestSyntheticShapeAndDeterminism(t *testing.T) {
	cfg := SyntheticConfig{N: 200, D: 50, C: 3, InformativeRatio: 0.2, Density: 0.1, Seed: 1}
	a, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.NumInstances() != 200 || a.NumFeatures() != 50 || a.NumClass != 3 || a.Task != TaskMulti {
		t.Fatalf("shape = %d x %d, C=%d task=%s", a.NumInstances(), a.NumFeatures(), a.NumClass, a.Task)
	}
	// Density: every row gets exactly phi*D = 5 nonzeros.
	for i := 0; i < a.NumInstances(); i++ {
		if a.X.RowNNZ(i) != 5 {
			t.Fatalf("row %d has %d nonzeros, want 5", i, a.X.RowNNZ(i))
		}
	}
	// Labels in range and not all one class.
	seen := map[float32]bool{}
	for _, y := range a.Labels {
		if y < 0 || y > 2 {
			t.Fatalf("label %v out of range", y)
		}
		seen[y] = true
	}
	if len(seen) < 2 {
		t.Fatal("degenerate labels")
	}
	b, err := Synthetic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different labels")
		}
	}
	c, err := Synthetic(SyntheticConfig{N: 200, D: 50, C: 3, InformativeRatio: 0.2, Density: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Labels {
		if a.Labels[i] != c.Labels[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical labels")
	}
}

func TestSyntheticBinaryTask(t *testing.T) {
	ds, err := Synthetic(SyntheticConfig{N: 50, D: 10, C: 2, InformativeRatio: 0.5, Density: 0.5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Task != TaskBinary {
		t.Fatalf("task = %s, want binary", ds.Task)
	}
}

func TestSyntheticValidation(t *testing.T) {
	bad := []SyntheticConfig{
		{N: 0, D: 10, C: 2, InformativeRatio: 0.5, Density: 0.5},
		{N: 10, D: 10, C: 1, InformativeRatio: 0.5, Density: 0.5},
		{N: 10, D: 10, C: 2, InformativeRatio: 0, Density: 0.5},
		{N: 10, D: 10, C: 2, InformativeRatio: 0.5, Density: 1.5},
	}
	for i, cfg := range bad {
		if _, err := Synthetic(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestSyntheticRegression(t *testing.T) {
	ds, err := SyntheticRegression(100, 20, 0.5, 0.1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Task != TaskRegression || ds.NumClass != 1 {
		t.Fatalf("task=%s numClass=%d", ds.Task, ds.NumClass)
	}
	var varSum float64
	for _, y := range ds.Labels {
		varSum += float64(y) * float64(y)
	}
	if varSum == 0 {
		t.Fatal("all labels zero")
	}
}

func TestSplit(t *testing.T) {
	ds, err := Synthetic(SyntheticConfig{N: 100, D: 10, C: 2, InformativeRatio: 0.5, Density: 0.5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	train, valid := ds.Split(0.8, 7)
	if train.NumInstances() != 80 || valid.NumInstances() != 20 {
		t.Fatalf("split sizes %d/%d", train.NumInstances(), valid.NumInstances())
	}
	if train.X.NNZ()+valid.X.NNZ() != ds.X.NNZ() {
		t.Fatal("split lost entries")
	}
}

func TestCatalogComplete(t *testing.T) {
	names := map[string]bool{}
	for _, d := range Catalog() {
		names[d.Name] = true
		if d.SimN <= 0 || d.SimD <= 0 || d.SimC < 2 {
			t.Errorf("%s: bad simulacrum shape %+v", d.Name, d)
		}
		if d.PaperN <= 0 || d.PaperD <= 0 {
			t.Errorf("%s: missing paper shape", d.Name)
		}
	}
	// Every dataset of Table 2 and Section 6 must be present.
	for _, want := range []string{
		"susy", "higgs", "criteo", "epsilon", "rcv1", "synthesis",
		"rcv1-multi", "synthesis-multi", "gender", "age", "taste",
	} {
		if !names[want] {
			t.Errorf("catalog missing %q", want)
		}
	}
}

func TestDescribeUnknown(t *testing.T) {
	if _, err := Describe("nope"); err == nil {
		t.Fatal("Describe accepted unknown name")
	}
	if _, err := Load("nope", 1); err == nil {
		t.Fatal("Load accepted unknown name")
	}
}

func TestLoadSimulacrum(t *testing.T) {
	ds, err := Load("rcv1-multi", 1)
	if err != nil {
		t.Fatal(err)
	}
	desc, _ := Describe("rcv1-multi")
	if ds.NumInstances() != desc.SimN || ds.NumFeatures() != desc.SimD || ds.NumClass != desc.SimC {
		t.Fatalf("simulacrum shape %dx%d C=%d, want %dx%d C=%d",
			ds.NumInstances(), ds.NumFeatures(), ds.NumClass, desc.SimN, desc.SimD, desc.SimC)
	}
	if ds.Task != TaskMulti {
		t.Fatalf("task = %s", ds.Task)
	}
}
