package partition

import (
	"testing"

	"vero/internal/cluster"
	"vero/internal/datasets"
)

func transformFixture(t *testing.T, w int, charge Variant) (*datasets.Dataset, *cluster.Cluster, *Result) {
	t.Helper()
	ds, err := datasets.Synthetic(datasets.SyntheticConfig{
		N: 300, D: 40, C: 2, InformativeRatio: 0.3, Density: 0.25, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(w, cluster.Gigabit())
	res, err := Transform(cl, ds.X, ds.Labels, Options{Q: 16, Charge: charge})
	if err != nil {
		t.Fatal(err)
	}
	return ds, cl, res
}

func TestTransformShardsHoldAllFeatures(t *testing.T) {
	ds, _, res := transformFixture(t, 4, VariantBlockified)
	seen := map[int]int{}
	for _, shard := range res.Shards {
		for _, f := range shard.Features {
			seen[f]++
		}
	}
	// Features with at least one value must be assigned exactly once.
	counts := map[int]int{}
	for i := 0; i < ds.X.Rows(); i++ {
		feats, _ := ds.X.Row(i)
		for _, f := range feats {
			counts[int(f)]++
		}
	}
	for f := range counts {
		if seen[f] != 1 {
			t.Fatalf("feature %d assigned %d times", f, seen[f])
		}
	}
}

func TestTransformPreservesEveryPair(t *testing.T) {
	ds, _, res := transformFixture(t, 4, VariantBlockified)
	total := 0
	for _, shard := range res.Shards {
		if shard.Data.NumRows() != ds.NumInstances() {
			t.Fatalf("worker %d shard has %d rows, want %d",
				shard.Worker, shard.Data.NumRows(), ds.NumInstances())
		}
		total += shard.Data.NNZ()
	}
	if total != ds.X.NNZ() {
		t.Fatalf("shards hold %d pairs, dataset has %d", total, ds.X.NNZ())
	}
	// Values must match the binner's output for the original data.
	for _, shard := range res.Shards {
		globalOf := shard.Features
		for i := 0; i < ds.NumInstances(); i++ {
			feat, bin := shard.Data.Row(i)
			origFeat, origVal := ds.X.Row(i)
			lookup := map[uint32]float32{}
			for k, f := range origFeat {
				lookup[f] = origVal[k]
			}
			for k, slot := range feat {
				gf := globalOf[slot]
				v, ok := lookup[uint32(gf)]
				if !ok {
					t.Fatalf("row %d: shard pair for absent feature %d", i, gf)
				}
				if want := res.Binner.BinValue(gf, v); bin[k] != want {
					t.Fatalf("row %d feature %d: bin %d, want %d", i, gf, bin[k], want)
				}
			}
		}
	}
}

func TestTransformLabelsBroadcast(t *testing.T) {
	ds, _, res := transformFixture(t, 3, VariantBlockified)
	for _, shard := range res.Shards {
		if len(shard.Labels) != len(ds.Labels) {
			t.Fatalf("worker %d has %d labels, want %d", shard.Worker, len(shard.Labels), len(ds.Labels))
		}
		for i := range ds.Labels {
			if shard.Labels[i] != ds.Labels[i] {
				t.Fatalf("worker %d label %d differs", shard.Worker, i)
			}
		}
	}
	if res.Bytes.LabelBroadcast != int64(len(ds.Labels))*4 {
		t.Fatalf("label broadcast bytes = %d", res.Bytes.LabelBroadcast)
	}
}

func TestTransformCompressionOrdering(t *testing.T) {
	// Table 5's shape: naive > compressed > blockified wire volume.
	_, _, res := transformFixture(t, 4, VariantBlockified)
	b := res.Bytes
	if !(b.NaiveShuffle > b.CompressedShuffle && b.CompressedShuffle > b.BlockifiedShuffle) {
		t.Fatalf("volumes not decreasing: naive=%d compressed=%d blockified=%d",
			b.NaiveShuffle, b.CompressedShuffle, b.BlockifiedShuffle)
	}
	// The paper reports up to 4x pair compression; with 1-byte features
	// and bins our pairs shrink 6x, so overall at least 2x including
	// per-object overhead.
	if b.NaiveShuffle < 2*b.BlockifiedShuffle {
		t.Fatalf("blockified compression below 2x: %d vs %d", b.NaiveShuffle, b.BlockifiedShuffle)
	}
}

func TestTransformChargeVariantAffectsSimTime(t *testing.T) {
	_, clNaive, _ := transformFixture(t, 4, VariantNaive)
	_, clVero, _ := transformFixture(t, 4, VariantBlockified)
	tn := clNaive.Stats().Phase("transform.repartition").CommSeconds
	tv := clVero.Stats().Phase("transform.repartition").CommSeconds
	if tn <= tv {
		t.Fatalf("naive repartition (%v) not slower than blockified (%v)", tn, tv)
	}
}

func TestTransformBlocksMerged(t *testing.T) {
	_, _, res := transformFixture(t, 6, VariantBlockified)
	for _, shard := range res.Shards {
		if shard.Data.NumBlocks() > 4 {
			t.Fatalf("worker %d has %d blocks after merge", shard.Worker, shard.Data.NumBlocks())
		}
	}
}

func TestTransformLoadBalance(t *testing.T) {
	_, _, res := transformFixture(t, 4, VariantBlockified)
	var loads []int
	total := 0
	for _, shard := range res.Shards {
		loads = append(loads, shard.Data.NNZ())
		total += shard.Data.NNZ()
	}
	avg := total / len(loads)
	for w, l := range loads {
		if l > avg*3/2 {
			t.Fatalf("worker %d holds %d pairs, average %d", w, l, avg)
		}
	}
}

func TestTransformValidation(t *testing.T) {
	ds, err := datasets.Synthetic(datasets.SyntheticConfig{
		N: 10, D: 5, C: 2, InformativeRatio: 0.5, Density: 0.5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(2, cluster.Gigabit())
	if _, err := Transform(cl, ds.X, ds.Labels[:5], Options{Q: 10}); err == nil {
		t.Fatal("accepted label/row mismatch")
	}
	if _, err := Transform(cl, ds.X, ds.Labels, Options{Q: 1}); err == nil {
		t.Fatal("accepted q=1")
	}
}

func TestVariantString(t *testing.T) {
	if VariantNaive.String() != "naive" || VariantCompressed.String() != "compress" ||
		VariantBlockified.String() != "vero" {
		t.Fatal("variant names wrong")
	}
}

// TestTransformBlocksExactCapacity pins the peak-heap guard: the pair
// arrays of every block a shard keeps — splitRows' own at W=4 (four blocks,
// nothing merged), merged ones at W=8 — are allocated at exact capacity, so
// the transformation leaves no append-growth garbage behind for the
// trainer's first heap sample to see or miss.
func TestTransformBlocksExactCapacity(t *testing.T) {
	for _, w := range []int{4, 8} {
		_, _, res := transformFixture(t, w, VariantBlockified)
		for _, shard := range res.Shards {
			for i, b := range shard.Data.Blocks {
				if cap(b.Feat) != len(b.Feat) || cap(b.Bin) != len(b.Bin) {
					t.Fatalf("W=%d worker %d block %d: Feat len %d cap %d, Bin len %d cap %d",
						w, shard.Worker, i, len(b.Feat), cap(b.Feat), len(b.Bin), cap(b.Bin))
				}
			}
		}
	}
}
