package ingest

import (
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"vero/internal/datasets"
)

// FuzzIngestLibSVM is a differential fuzzer: whatever bytes arrive, the
// chunked parallel parser must agree with the single-threaded reference
// parser — both on acceptance and on the exact matrix produced. Small
// chunk sizes force rows onto block boundaries.
func FuzzIngestLibSVM(f *testing.F) {
	f.Add([]byte("1 0:1.5 2:nan\n0 1:inf\n"), 1)
	f.Add([]byte("2.5e-1 4294967295:1\n"), 2)
	f.Add([]byte("# only a comment\n\n"), 3)
	f.Add([]byte("1 5:0\n1 0:-0 5:1e39\n"), 7)
	f.Add([]byte("1 3:1 3:2\n"), 1)
	f.Fuzz(func(t *testing.T, data []byte, chunk int) {
		if chunk < 1 || chunk > 64 {
			chunk = 1 + (chunk&0x3f+64)&0x3f
		}
		for _, numClass := range []int{1, 2, 3} {
			ref, refErr := referenceReadLibSVM(bytes.NewReader(data), numClass)
			got, gotErr := ReadDataset(bytes.NewReader(data), Options{NumClass: numClass, ChunkRows: chunk})
			if (refErr == nil) != (gotErr == nil) {
				t.Fatalf("numClass %d chunk %d: reference err %v, chunked err %v", numClass, chunk, refErr, gotErr)
			}
			if refErr != nil {
				continue
			}
			if got.NumInstances() != ref.NumInstances() || got.NumFeatures() != ref.NumFeatures() {
				t.Fatalf("shape %dx%d, want %dx%d", got.NumInstances(), got.NumFeatures(), ref.NumInstances(), ref.NumFeatures())
			}
			for i := range ref.Labels {
				if math.Float32bits(got.Labels[i]) != math.Float32bits(ref.Labels[i]) {
					t.Fatalf("row %d label %v, want %v", i, got.Labels[i], ref.Labels[i])
				}
			}
			if !reflect.DeepEqual(got.X.RowPtr, ref.X.RowPtr) || !reflect.DeepEqual(got.X.Feat, ref.X.Feat) {
				t.Fatal("sparsity pattern differs from reference")
			}
			for k := range ref.X.Val {
				if math.Float32bits(got.X.Val[k]) != math.Float32bits(ref.X.Val[k]) {
					t.Fatalf("entry %d value %v, want %v", k, got.X.Val[k], ref.X.Val[k])
				}
			}
		}
	})
}

// FuzzIngestCSV feeds arbitrary bytes through the CSV parser: it must
// never panic, and accepted input must produce a structurally valid
// dataset.
func FuzzIngestCSV(f *testing.F) {
	f.Add([]byte("label,a,b\n1,0.5,2\n0,,1\n"), 4)
	f.Add([]byte("1,\"quo\"\"ted\",3\n"), 1)
	f.Add([]byte("\"1\",\"a,b\"\n"), 2)
	f.Add([]byte("1,2\r\n0,\n"), 1)
	f.Add([]byte("1,\"open\n"), 3)
	f.Fuzz(func(t *testing.T, data []byte, chunk int) {
		if chunk < 1 || chunk > 64 {
			chunk = 1 + (chunk&0x3f+64)&0x3f
		}
		ds, err := ReadDataset(bytes.NewReader(data), Options{Format: FormatCSV, NumClass: 1, ChunkRows: chunk})
		if err != nil {
			return
		}
		if ds.NumInstances() != len(ds.Labels) {
			t.Fatalf("%d rows but %d labels", ds.NumInstances(), len(ds.Labels))
		}
		for i := 0; i < ds.NumInstances(); i++ {
			feat, val := ds.X.Row(i)
			if len(feat) != len(val) {
				t.Fatalf("row %d: %d indices, %d values", i, len(feat), len(val))
			}
			for j := 1; j < len(feat); j++ {
				if feat[j] <= feat[j-1] {
					t.Fatalf("row %d not strictly sorted", i)
				}
			}
		}
		// Chunk-size independence: one block must equal many blocks.
		whole, err := ReadDataset(bytes.NewReader(data), Options{Format: FormatCSV, NumClass: 1, ChunkRows: 1 << 20})
		if err != nil {
			t.Fatalf("whole-file parse rejected chunk-accepted input: %v", err)
		}
		if !reflect.DeepEqual(whole.X.RowPtr, ds.X.RowPtr) || !reflect.DeepEqual(whole.X.Feat, ds.X.Feat) {
			t.Fatal("chunked CSV parse differs from whole-file parse")
		}
	})
}

// FuzzReadCache throws arbitrary bytes at the .vbin decoder: it must
// reject corruption gracefully (error, never panic), the materializing
// and the mapping entry points must agree on what they accept, and a
// valid image must round-trip.
func FuzzReadCache(f *testing.F) {
	_, text := sampleLibSVMFuzz(f)
	ds, err := Ingest(strings.NewReader(text), Options{NumClass: 2})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCache(&buf, ds, ds.Prebin); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:vbinHeaderSize])
	f.Add([]byte("VBIN junk"))
	// Truncation mutants: a valid image cut inside each payload section,
	// and a valid header over an empty payload.
	img := buf.Bytes()
	for _, frac := range []int{2, 3, 4, 8} {
		if cut := len(img) / frac; cut > vbinHeaderSize {
			f.Add(img[:cut])
		}
	}
	f.Add(img[:len(img)-1])
	f.Add(img[:vbinHeaderSize+4])
	// Oversized-section-table mutant: the header (uncovered by the CRC)
	// claims huge dimensions over a tiny payload.
	huge := append([]byte(nil), img[:vbinHeaderSize+16]...)
	binary.LittleEndian.PutUint64(huge[8:], 1<<39)  // rows
	binary.LittleEndian.PutUint64(huge[16:], 1<<39) // cols
	binary.LittleEndian.PutUint64(huge[24:], 1<<39) // nnz
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadCache(bytes.NewReader(data), "fuzz")
		if _, mapErr := MapCacheBytes(data, "fuzz"); (err == nil) != (mapErr == nil) {
			t.Fatalf("ReadCache err %v, MapCacheBytes err %v", err, mapErr)
		}
		if err != nil {
			return
		}
		// Accepted images must be internally consistent: re-binning the
		// reconstruction with its own splits must stay in range.
		if got.NumInstances() != len(got.Labels) {
			t.Fatalf("%d rows but %d labels", got.NumInstances(), len(got.Labels))
		}
		var out bytes.Buffer
		if err := WriteCache(&out, got, got.Prebin); err != nil {
			t.Fatalf("re-encode of accepted cache failed: %v", err)
		}
		back, err := ReadCache(bytes.NewReader(out.Bytes()), "fuzz2")
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if back.NumInstances() != got.NumInstances() || back.X.NNZ() != got.X.NNZ() {
			t.Fatal("cache round trip changed shape")
		}
	})
}

// sampleLibSVMFuzz builds a small corpus file for the cache fuzzer
// without *testing.T helpers.
func sampleLibSVMFuzz(f *testing.F) (*datasets.Dataset, string) {
	f.Helper()
	ds, err := datasets.Synthetic(datasets.SyntheticConfig{
		N: 60, D: 12, C: 2, InformativeRatio: 0.3, Density: 0.4, Seed: 2,
	})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := datasets.WriteLibSVM(&buf, ds); err != nil {
		f.Fatal(err)
	}
	return ds, buf.String()
}
