package ingest

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// checkParseValue holds parseValue32 to strconv.ParseFloat(s, 32) and
// parseIndex to strconv.ParseUint(s, 10, 32): the same bits, the same
// acceptance, the same error.
func checkParseValue(t *testing.T, s string) {
	t.Helper()
	want, wantErr := strconv.ParseFloat(s, 32)
	got, gotErr := parseValue32(s)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("parseValue32(%q): err %v, strconv err %v", s, gotErr, wantErr)
	}
	if wantErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("parseValue32(%q): err %q, strconv err %q", s, gotErr, wantErr)
	}
	if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("parseValue32(%q) = %v (%#x), strconv %v (%#x)", s, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	wantIdx, wantErr := strconv.ParseUint(s, 10, 32)
	gotIdx, gotErr := parseIndex(s)
	if (wantErr == nil) != (gotErr == nil) || gotIdx != wantIdx {
		t.Fatalf("parseIndex(%q) = %d, %v; strconv %d, %v", s, gotIdx, gotErr, wantIdx, wantErr)
	}
	if wantErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("parseIndex(%q): err %q, strconv err %q", s, gotErr, wantErr)
	}
}

// parseValueSeeds are the strings the scanner's fast path must get right
// or hand over: float32 midpoints, signs and empty parts, every spelling
// strconv accepts beyond plain decimals, long mantissas, the edges of
// float32's normal range, and the index edge cases.
var parseValueSeeds = []string{
	// Midpoints between adjacent float32s, and around them.
	"16777217", "16777217.0", "-16777217", "16777219", "33554434",
	"1.00000005960464477539062", "1.000000059604644775390625", "1.0000000596046448",
	"0.100000001490116119384765625", "0.10000000149011612", "3.4028235677973366e38",
	"1.00000011920928955078125", "0.3333333432674408",
	"±0", "0", "-0", "+0", "-0.0", "+1", ".5", "5.", ".", "-.", "+.", "", "-", "+",
	"000123.4500", "2.2857192", "-0.120980486", "0.00662255",
	"1e5", "1E5", "0x1p-2", "1_0", "0_1", "inf", "+Inf", "-inf", "NaN", "nan", "infinity", "-Infinity",
	"1234567890123456", "123456789012345.6", "0.1234567890123456",
	"1234567890123456789012345678901234567890", "0.0000000000000000000001", "0.00000000000000000000001",
	"3.4028235e38", "3.4028236e38", "340282356779733661637539395458142568448",
	"1.1754943e-38", "1.1754942e-38", "0.000000000000000000000000000000000000011754942", "1e-45", "1.4e-45", "7e-46",
	"1.7014118e38", "1.7014119e38", "170141183460469231731687303715884105728", "1e39",
	"4294967295", "4294967296", "999999999", "1000000000", "-1", "01", "0001", "1 ", " 1", "1..2", "1.2.3", "1a", "--1", "+-1",
}

func FuzzParseValue(f *testing.F) {
	for _, s := range parseValueSeeds {
		f.Add(s)
	}
	f.Fuzz(checkParseValue)
}

// TestParseValueMatchesStrconv runs the seeds, then the shapes LibSVM
// writers print: shortest float32 forms, fixed-precision forms from 1 to 17
// digits, and float32 midpoints printed exactly and shortest.
func TestParseValueMatchesStrconv(t *testing.T) {
	for _, s := range parseValueSeeds {
		checkParseValue(t, s)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		v := math.Float32frombits(rng.Uint32())
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			continue
		}
		if i%2 == 0 {
			v = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
		}
		checkParseValue(t, strconv.FormatFloat(float64(v), 'g', -1, 32))
		checkParseValue(t, strconv.FormatFloat(float64(v), 'f', rng.Intn(18), 64))
		next := math.Nextafter32(v, float32(math.Inf(1)))
		mid := (float64(v) + float64(next)) / 2
		checkParseValue(t, strconv.FormatFloat(mid, 'f', -1, 64))
		checkParseValue(t, strconv.FormatFloat(mid, 'g', -1, 64))
		checkParseValue(t, strconv.FormatFloat(mid, 'g', 15, 64))
		checkParseValue(t, strconv.Itoa(rng.Intn(1<<31)))
	}
}

// TestPairScanFallbacksMatchReference: every field the one-pass pair scan
// hands over — exponents, spellings, long mantissas and indices,
// midpoints, signs, malformed pairs, control bytes, a value glued to a
// non-ASCII space — is parsed, or rejected with the same line and reason,
// exactly as the reference parser does it.
func TestPairScanFallbacksMatchReference(t *testing.T) {
	for _, text := range []string{
		"1 0:1e3 1:-2.5E-2 2:0x1p-2 3:inf 4:-Inf 5:nan\n",
		"+1 0:+.5 1:-5. 2:000123.4500 3:-0 4:-0.0\n",
		"1 0:16777217 1:1.00000005960464477539062 2:1234567890123456789\n",
		"1 4294967295:1 123456789:2\n0 0:1\n",
		"1 0:1\n1 4294967296:1\n",
		"1 0:1\n0 1:2\n1 01:2 002:3\n",
		"1 0:1\n0 -1:2\n",
		"1 0:1\n0 +1:2\n",
		"1 0:1\n0 1:\n",
		"1 0:1\n0 :1\n",
		"1 0:1\n0 1:2:3\n",
		"1 0:1\n0 1:2x\n",
		"1 0:1\n0 1:1_0\n",
		"1e0 0:1\r\n0x0 1:2\n",
		"1 0:1\x01 1:2\n",
		"1 0:1 1:2 2:3\n",
		"1 0:1.\n0 1:.5\n1 2:.\n",
		"1.5 0:1\n",
	} {
		ref, refErr := referenceReadLibSVM(strings.NewReader(text), 1)
		got, gotErr := ReadDataset(strings.NewReader(text), Options{NumClass: 1, ChunkRows: 1})
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("%q: reference err %v, chunked err %v", text, refErr, gotErr)
		}
		if refErr != nil {
			if strings.TrimPrefix(gotErr.Error(), "ingest: ") != strings.TrimPrefix(refErr.Error(), "datasets: ") {
				t.Fatalf("%q: chunked err %q, reference err %q", text, gotErr, refErr)
			}
			continue
		}
		if !reflect.DeepEqual(got.X.RowPtr, ref.X.RowPtr) || !reflect.DeepEqual(got.X.Feat, ref.X.Feat) ||
			!reflect.DeepEqual(float32Bits(got.X.Val), float32Bits(ref.X.Val)) ||
			!reflect.DeepEqual(float32Bits(got.Labels), float32Bits(ref.Labels)) {
			t.Fatalf("%q: matrix or labels differ from the reference parser's", text)
		}
	}
}

func float32Bits(v []float32) []uint32 {
	bits := make([]uint32, len(v))
	for i, x := range v {
		bits[i] = math.Float32bits(x)
	}
	return bits
}
