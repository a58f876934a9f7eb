package ingest

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vero/internal/datasets"
)

// sampleLibSVM returns a synthetic dataset and its LibSVM serialization.
func sampleLibSVM(t *testing.T, n, d int, c int, seed int64) (*datasets.Dataset, string) {
	t.Helper()
	ds, err := datasets.Synthetic(datasets.SyntheticConfig{
		N: n, D: d, C: c, InformativeRatio: 0.2, Density: 0.3, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := datasets.WriteLibSVM(&buf, ds); err != nil {
		t.Fatal(err)
	}
	return ds, buf.String()
}

func sameMatrix(t *testing.T, got, want *datasets.Dataset, label string) {
	t.Helper()
	if got.X.Rows() != want.X.Rows() || got.X.Cols() != want.X.Cols() {
		t.Fatalf("%s: shape %dx%d, want %dx%d", label, got.X.Rows(), got.X.Cols(), want.X.Rows(), want.X.Cols())
	}
	if !reflect.DeepEqual(got.X.RowPtr, want.X.RowPtr) ||
		!reflect.DeepEqual(got.X.Feat, want.X.Feat) ||
		!reflect.DeepEqual(got.X.Val, want.X.Val) ||
		!reflect.DeepEqual(got.Labels, want.Labels) {
		t.Fatalf("%s: matrix or labels differ", label)
	}
}

// TestChunkedMatchesWholeFile is the property the pipeline stands on:
// any chunk size — rows straddling block boundaries, block == file,
// rows divisible by the block size (empty trailing chunk) — produces the
// same dataset as the single-threaded reference parser, bit for bit.
func TestChunkedMatchesWholeFile(t *testing.T) {
	const n = 257
	_, text := sampleLibSVM(t, n, 40, 2, 11)
	ref, err := referenceReadLibSVM(strings.NewReader(text), 2)
	if err != nil {
		t.Fatal(err)
	}
	// 1: every row is its own block. 3/7: rows straddle boundaries.
	// 257: exactly one block. 256+1, n divisible cases below.
	for _, chunk := range []int{1, 3, 7, 64, 256, 257, 258, 4096} {
		got, err := ReadDataset(strings.NewReader(text), Options{NumClass: 2, ChunkRows: chunk, Workers: 4})
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		sameMatrix(t, got, ref, fmt.Sprintf("chunk %d", chunk))
	}
}

// TestEmptyTrailingChunk covers row counts exactly divisible by the
// block size: no phantom empty block may corrupt the row numbering.
func TestEmptyTrailingChunk(t *testing.T) {
	_, text := sampleLibSVM(t, 128, 20, 2, 3)
	ref, err := referenceReadLibSVM(strings.NewReader(text), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{32, 64, 128} {
		var blocks, rows int
		err := ScanBlocks(strings.NewReader(text), Options{NumClass: 2, ChunkRows: chunk}, func(b *Block) error {
			if b.Index != blocks {
				t.Fatalf("block %d delivered out of order (want %d)", b.Index, blocks)
			}
			if b.Start != rows {
				t.Fatalf("block %d starts at %d, want %d", b.Index, b.Start, rows)
			}
			blocks++
			rows += b.NumRows()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if want := 128 / chunk; blocks != want {
			t.Fatalf("chunk %d: %d blocks, want %d", chunk, blocks, want)
		}
		if rows != ref.NumInstances() {
			t.Fatalf("chunk %d: %d rows, want %d", chunk, rows, ref.NumInstances())
		}
	}
}

func TestBlanksCommentsAndMissingNewline(t *testing.T) {
	text := "# comment\n1 0:1.5 2:2\n\n   \n0 1:3\n# tail\n0 0:-1" // no trailing newline
	ds, err := ReadDataset(strings.NewReader(text), Options{NumClass: 2, ChunkRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceReadLibSVM(strings.NewReader(text), 2)
	if err != nil {
		t.Fatal(err)
	}
	sameMatrix(t, ds, ref, "blanks/comments")
	if ds.NumInstances() != 3 {
		t.Fatalf("rows = %d, want 3", ds.NumInstances())
	}
}

func TestStreamedPrebinMatchesCanonical(t *testing.T) {
	ref, text := sampleLibSVM(t, 300, 50, 2, 7)
	ing, err := Ingest(strings.NewReader(text), Options{NumClass: 2, ChunkRows: 37, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := Prebinned(ref, 0.01, 20)
	if !reflect.DeepEqual(ing.Prebin.Splits, want.Splits) {
		t.Fatal("streamed splits differ from canonical pass")
	}
	if !reflect.DeepEqual(ing.Prebin.FeatCount, want.FeatCount) {
		t.Fatal("streamed feature counts differ from canonical pass")
	}
	if ing.Prebin.Quantized {
		t.Fatal("cold ingest must not mark the dataset quantized")
	}
}

func TestParseErrorsReportLines(t *testing.T) {
	cases := []struct {
		name, text, want string
	}{
		{"bad label", "1 0:1\nx 0:1\n", "line 2: bad label"},
		{"bad pair", "1 0:1\n0 zap\n", "line 2: bad pair"},
		{"bad index", "0 -1:2\n", "line 1: bad index"},
		{"bad value", "0 0:zap\n", "line 1: bad value"},
		{"duplicate feature", "1 3:1 3:2\n", "line 1: duplicate feature index 3"},
		{"label out of range", "1 0:1\n5 0:1\n", "line 2: label 5 outside [0,2)"},
		{"fractional label", "0.5 0:1\n", "line 1: label 0.5 outside [0,2)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadDataset(strings.NewReader(tc.text), Options{NumClass: 2, ChunkRows: 1})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestFirstErrorInFileOrderWins pins down determinism: with many workers
// racing, the reported error must always be the earliest one in the file.
func TestFirstErrorInFileOrderWins(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		sb.WriteString("1 0:1\n")
	}
	text := sb.String() + "x 0:1\n" + strings.Repeat("1 0:1\n", 100) + "y 0:1\n"
	for trial := 0; trial < 10; trial++ {
		_, err := ReadDataset(strings.NewReader(text), Options{NumClass: 2, ChunkRows: 1, Workers: 8})
		if err == nil || !strings.Contains(err.Error(), "line 101: bad label \"x\"") {
			t.Fatalf("trial %d: err = %v, want the line-101 error", trial, err)
		}
	}
}

func TestConsumerErrorStopsScan(t *testing.T) {
	_, text := sampleLibSVM(t, 500, 20, 2, 5)
	calls := 0
	wantErr := fmt.Errorf("stop here")
	err := ScanBlocks(strings.NewReader(text), Options{NumClass: 2, ChunkRows: 10, Workers: 4}, func(b *Block) error {
		calls++
		if calls == 3 {
			return wantErr
		}
		return nil
	})
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if calls != 3 {
		t.Fatalf("fn ran %d times after error, want 3", calls)
	}
}

func TestEmptyInput(t *testing.T) {
	ds, err := ReadDataset(strings.NewReader(""), Options{NumClass: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumInstances() != 0 || ds.NumFeatures() != 0 {
		t.Fatalf("empty input produced %dx%d", ds.NumInstances(), ds.NumFeatures())
	}
}

func TestOptionValidation(t *testing.T) {
	for _, opts := range []Options{
		{NumClass: 0},
		{NumClass: 2, ChunkRows: -1},
		{NumClass: 2, Workers: -2},
		{NumClass: 2, SketchEps: 1.5},
		{NumClass: 2, Q: 1},
		{NumClass: 2, Format: "parquet"},
	} {
		if _, err := Ingest(strings.NewReader("1 0:1\n"), opts); err == nil {
			t.Fatalf("opts %+v accepted", opts)
		}
	}
	if _, err := ParseFormat("tsv"); err == nil {
		t.Fatal("ParseFormat accepted tsv")
	}
	if f, err := ParseFormat(""); err != nil || f != FormatLibSVM {
		t.Fatalf("ParseFormat(\"\") = %v, %v", f, err)
	}
}
