package datasets_test

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"vero/internal/datasets"
	"vero/internal/ingest"
)

// readLibSVM reads LibSVM text through the one parser, ingest.ReadDataset;
// the tests here hold WriteLibSVM's output and the committed fixtures to
// it.
func readLibSVM(r io.Reader, numClass int) (*datasets.Dataset, error) {
	return ingest.ReadDataset(r, ingest.Options{NumClass: numClass})
}

func TestLibSVMRoundTrip(t *testing.T) {
	ds, err := datasets.Synthetic(datasets.SyntheticConfig{N: 50, D: 30, C: 2, InformativeRatio: 0.3, Density: 0.2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := datasets.WriteLibSVM(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := readLibSVM(&buf, 2)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumInstances() != ds.NumInstances() {
		t.Fatalf("rows %d, want %d", back.NumInstances(), ds.NumInstances())
	}
	if back.X.NNZ() != ds.X.NNZ() {
		t.Fatalf("nnz %d, want %d", back.X.NNZ(), ds.X.NNZ())
	}
	for i := range ds.Labels {
		if ds.Labels[i] != back.Labels[i] {
			t.Fatalf("label %d: %v vs %v", i, ds.Labels[i], back.Labels[i])
		}
	}
}

func TestReadLibSVMErrors(t *testing.T) {
	cases := map[string]string{
		"bad label": "x 1:2\n",
		"bad pair":  "1 nonsense\n",
		"bad index": "1 x:2\n",
		"bad value": "1 2:x\n",
	}
	for name, input := range cases {
		if _, err := readLibSVM(strings.NewReader(input), 2); err == nil {
			t.Errorf("%s: accepted %q", name, input)
		}
	}
	// Out-of-range class label.
	if _, err := readLibSVM(strings.NewReader("5 1:1\n"), 2); err == nil {
		t.Error("accepted label 5 for binary task")
	}
	// Comments and blank lines are fine.
	ds, err := readLibSVM(strings.NewReader("# comment\n\n1 3:4.5\n"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumInstances() != 1 || ds.NumFeatures() != 4 {
		t.Fatalf("shape %dx%d", ds.NumInstances(), ds.NumFeatures())
	}
}

func TestReadLibSVMRegression(t *testing.T) {
	ds, err := readLibSVM(strings.NewReader("3.25 0:1 2:2\n-1.5 1:4\n"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Task != datasets.TaskRegression {
		t.Fatalf("task = %s", ds.Task)
	}
	if ds.Labels[0] != 3.25 || ds.Labels[1] != -1.5 {
		t.Fatalf("labels = %v", ds.Labels)
	}
}
