package core

import (
	"math/rand"
	"testing"

	"vero/internal/bitmap"
	"vero/internal/histogram"
	"vero/internal/partition"
)

// randomBlocks builds a BlockSet of the given block sizes over slots
// [0, width): about a tenth of the rows are empty, the rest hold from one
// to about maxRow entries.
func randomBlocks(t *testing.T, rng *rand.Rand, blockRows []int, width, maxRow int) *partition.BlockSet {
	t.Helper()
	var blocks []*partition.Block
	start := 0
	for _, rows := range blockRows {
		b := &partition.Block{RowStart: start, RowPtr: []int64{0}}
		for i := 0; i < rows; i++ {
			if rng.Intn(10) > 0 {
				share := rng.Intn(maxRow) + 1 // expected entries of the row
				for f := 0; f < width; f++ {
					if rng.Intn(width) < share {
						b.Feat = append(b.Feat, uint32(f))
						b.Bin = append(b.Bin, uint16(rng.Intn(20)))
					}
				}
			}
			b.RowPtr = append(b.RowPtr, int64(len(b.Feat)))
		}
		blocks = append(blocks, b)
		start += rows
	}
	bs, err := partition.NewBlockSet(blocks)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

// TestSegmentPlacementMatchesRowLookup holds blockRows.place — the segment
// kernel driven block by block — to a per-row reference: resolve every
// instance through BlockSet.Row and scan the row for the split feature.
// Instances outside the list must keep their bits.
func TestSegmentPlacementMatchesRowLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const width = 256
	data := randomBlocks(t, rng, []int{70, 1, 130, 64, 200}, width, width/2)
	n := data.NumRows()
	slotOf := make([]int32, width+1) // feature width: owned, on no row
	for f := range slotOf {
		slotOf[f] = int32(f)
	}
	rows := blockRows{blocks: data.Blocks, slotOf: slotOf}

	long, short, empty := 0, 0, 0
	for i := 0; i < n; i++ {
		switch feats, _ := data.Row(i); {
		case len(feats) == 0:
			empty++
		case len(feats) > 64:
			long++
		case len(feats) < 8:
			short++
		}
	}
	if long == 0 || short == 0 || empty == 0 {
		t.Fatalf("fixture has %d long, %d short, %d empty rows; want all three kinds", long, short, empty)
	}

	lists := map[string][]uint32{"all": nil, "sparse": nil, "ends mid-block": nil, "one block": nil, "empty": {}}
	for i := 0; i < n; i++ {
		lists["all"] = append(lists["all"], uint32(i))
		if rng.Intn(3) == 0 {
			lists["sparse"] = append(lists["sparse"], uint32(i))
		}
		if i < 230 && rng.Intn(2) == 0 { // rows 201..264 are the fourth block
			lists["ends mid-block"] = append(lists["ends mid-block"], uint32(i))
		}
		if i >= 80 && i < 150 { // inside the third block
			lists["one block"] = append(lists["one block"], uint32(i))
		}
	}
	for name, insts := range lists {
		for _, feature := range []int{0, width / 2, width - 1, width} {
			for _, defaultLeft := range []bool{false, true} {
				sp := histogram.Split{Feature: feature, Bin: 9, DefaultLeft: defaultLeft}
				got, want := bitmap.New(n), bitmap.New(n)
				for i := 0; i < n; i++ { // preset: untouched bits must survive
					got.SetTo(i, i%3 == 0)
					want.SetTo(i, i%3 == 0)
				}
				for _, inst := range insts {
					left := defaultLeft
					feats, bins := data.Row(int(inst))
					for k, f := range feats {
						if f == uint32(feature) {
							left = int(bins[k]) <= sp.Bin
						}
					}
					want.SetTo(int(inst), left)
				}
				rows.place(sp, insts, got)
				for i := 0; i < n; i++ {
					if got.Get(i) != want.Get(i) {
						t.Fatalf("list %q feature %d defaultLeft=%v: instance %d placed %v, reference %v",
							name, feature, defaultLeft, i, got.Get(i), want.Get(i))
					}
				}
			}
		}
	}
}
