package gbdt

import (
	"strings"
	"testing"
)

// TestModelRoundTripBitExact pins the serialization contract: a model
// saved with Encode and reloaded with DecodeModel must predict bit-exactly
// the same margins for every task type. This is what makes a model trained
// here and served by cmd/veroserve trustworthy.
func TestModelRoundTripBitExact(t *testing.T) {
	for _, tc := range []struct {
		name    string
		classes int
	}{
		{"regression", 1},
		{"binary", 2},
		{"multiclass", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			model, ds := trainSmall(t, tc.classes)
			data, err := model.Encode()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := DecodeModel(data)
			if err != nil {
				t.Fatal(err)
			}
			if decoded.NumTrees() != model.NumTrees() {
				t.Fatalf("decoded %d trees, want %d", decoded.NumTrees(), model.NumTrees())
			}
			f, g := model.Forest(), decoded.Forest()
			if f.NumClass != g.NumClass || f.LearningRate != g.LearningRate ||
				f.Objective != g.Objective || f.NumFeature != g.NumFeature {
				t.Fatalf("forest metadata changed: %+v vs %+v",
					[4]any{f.NumClass, f.LearningRate, f.Objective, f.NumFeature},
					[4]any{g.NumClass, g.LearningRate, g.Objective, g.NumFeature})
			}
			want := model.Predict(ds)
			got := decoded.Predict(ds)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: prediction %d changed across Encode/Decode: %v != %v",
						tc.name, i, got[i], want[i])
				}
			}
			// Second round trip is byte-identical (canonical encoding).
			data2, err := decoded.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if string(data) != string(data2) {
				t.Fatal("Encode is not canonical: re-encoding a decoded model changed bytes")
			}
		})
	}
}

// TestDecodeModelRejectsCorruptStructure pins that malformed node links
// fail loudly at load time instead of silently misrouting predictions.
func TestDecodeModelRejectsCorruptStructure(t *testing.T) {
	for _, tc := range []struct {
		name, data string
	}{
		{"interior_nochild", `{"num_class":1,"learning_rate":0.3,
			"trees":[{"num_class":1,"nodes":[
				{"feature":0,"split_value":0.5,"left":-1,"right":-1}]}]}`},
		{"backward_link", `{"num_class":1,"learning_rate":0.3,
			"trees":[{"num_class":1,"nodes":[
				{"feature":0,"split_value":0.5,"left":0,"right":1},
				{"feature":-1,"left":-1,"right":-1,"weights":[1]}]}]}`},
		{"leaf_wrong_weights", `{"num_class":2,"learning_rate":0.3,
			"trees":[{"num_class":2,"nodes":[
				{"feature":-1,"left":-1,"right":-1,"weights":[1]}]}]}`},
		{"empty_tree", `{"num_class":1,"learning_rate":0.3,
			"trees":[{"num_class":1,"nodes":[]}]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeModel([]byte(tc.data)); err == nil {
				t.Fatal("corrupt model decoded without error")
			} else if !strings.Contains(err.Error(), "tree:") {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}

// TestBinnedSurvivesRoundtrip checks that candidate splits ride through
// Encode/Decode, so the bin-code kernel (tree.BinnedForest, kept for the
// bench's tree.binned_block probe) still compiles from a served model file
// and scores it bit-identically.
func TestBinnedSurvivesRoundtrip(t *testing.T) {
	m, ds := trainSmall(t, 3)
	enc, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeModel(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.forest.Splits == nil {
		t.Fatal("decoded model lost its candidate splits")
	}
	binned, err := back.flatForest().CompileBinned(back.forest.Splits)
	if err != nil {
		t.Fatal(err)
	}
	want := m.Predict(ds)
	got := make([]float64, len(want))
	feats, vals := make([][]uint32, ds.X.Rows()), make([][]float32, ds.X.Rows())
	for i := range feats {
		feats[i], vals[i] = ds.X.Row(i)
	}
	binned.PredictBlock(feats, vals, got, 0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("score[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
