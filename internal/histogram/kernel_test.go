package histogram

import (
	"math/rand"
	"testing"
)

// kernelFixture builds a random sparse column/row workload plus gradient
// arrays for nClass classes over n instances.
type kernelFixture struct {
	layout     Layout
	grad, hess []float64
	// rows, CSR-shaped over the layout's feature slots
	rowPtr []int64
	feat   []uint32
	bin    []uint16
}

func newKernelFixture(t *testing.T, nClass, n int, seed int64) *kernelFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	f := &kernelFixture{
		layout: Layout{NumFeat: 7, MaxBins: 9, NumClass: nClass},
		grad:   make([]float64, n*nClass),
		hess:   make([]float64, n*nClass),
		rowPtr: make([]int64, 1, n+1),
	}
	for i := range f.grad {
		f.grad[i] = rng.NormFloat64()
		f.hess[i] = rng.Float64()
	}
	for i := 0; i < n; i++ {
		nnz := rng.Intn(f.layout.NumFeat + 1)
		start := rng.Intn(f.layout.NumFeat + 1 - nnz)
		for k := 0; k < nnz; k++ {
			f.feat = append(f.feat, uint32(start+k))
			f.bin = append(f.bin, uint16(rng.Intn(f.layout.MaxBins)))
		}
		f.rowPtr = append(f.rowPtr, int64(len(f.feat)))
	}
	return f
}

func (f *kernelFixture) rows() int { return len(f.rowPtr) - 1 }

func (f *kernelFixture) row(i int) (feat []uint32, bin []uint16) {
	lo, hi := f.rowPtr[i], f.rowPtr[i+1]
	return f.feat[lo:hi], f.bin[lo:hi]
}

func requireEqualHists(t *testing.T, want, got *Hist, name string) {
	t.Helper()
	for i := range want.Grad {
		if want.Grad[i] != got.Grad[i] || want.Hess[i] != got.Hess[i] {
			t.Fatalf("%s: diverged at flat index %d: grad %v vs %v, hess %v vs %v",
				name, i, want.Grad[i], got.Grad[i], want.Hess[i], got.Hess[i])
		}
	}
}

// addVecRow is the reference per-entry accumulation the kernels replace.
func addVecRow(h *Hist, feats []uint32, bins []uint16, grad, hess []float64, gi, c int) {
	for k, f := range feats {
		h.AddVec(int(f), int(bins[k]), grad[gi:gi+c], hess[gi:gi+c])
	}
}

func TestRowScanMatchesAddVec(t *testing.T) {
	for _, c := range []int{1, 3} {
		f := newKernelFixture(t, c, 64, 2)
		// Scan a subset of instances with an id offset, as the trainers do
		// (rowOff re-bases ids into storage, base into gradients — exercise
		// rowOff=0/base>0 and the QD4 block shape rowOff>0/base=0).
		insts := []uint32{0, 3, 4, 10, 33, 63}
		want := New(f.layout)
		for _, inst := range insts {
			feats, bins := f.row(int(inst))
			addVecRow(want, feats, bins, f.grad, f.hess, int(inst)*c, c)
		}
		got := New(f.layout)
		got.RowScan(insts, 0, f.rowPtr, f.feat, f.bin, f.grad, f.hess, 0)
		requireEqualHists(t, want, got, "RowScan")

		// base-shifted gradients: instances are shard-local, gradients global.
		const base = 5
		shifted := make([]float64, (64+base)*c)
		shiftedH := make([]float64, (64+base)*c)
		copy(shifted[base*c:], f.grad)
		copy(shiftedH[base*c:], f.hess)
		got2 := New(f.layout)
		got2.RowScan(insts, 0, f.rowPtr, f.feat, f.bin, shifted, shiftedH, base)
		requireEqualHists(t, want, got2, "RowScan(base)")

		// rowOff-shifted ids: global instance ids into a block starting at 7.
		const off = 7
		offIds := make([]uint32, len(insts))
		for i, inst := range insts {
			offIds[i] = inst + off
		}
		offGrad := make([]float64, (64+off)*c)
		offHess := make([]float64, (64+off)*c)
		copy(offGrad[off*c:], f.grad)
		copy(offHess[off*c:], f.hess)
		got3 := New(f.layout)
		got3.RowScan(offIds, off, f.rowPtr, f.feat, f.bin, offGrad, offHess, 0)
		requireEqualHists(t, want, got3, "RowScan(rowOff)")
	}
}

func TestRowScanOwnedMatchesFilteredAddVec(t *testing.T) {
	for _, c := range []int{1, 3} {
		f := newKernelFixture(t, c, 64, 3)
		const owner = int32(1)
		ownerOf := make([]int32, f.layout.NumFeat)
		slotOf := make([]int32, f.layout.NumFeat)
		slots := 0
		for j := range ownerOf {
			ownerOf[j] = int32(j % 2)
			if ownerOf[j] == owner {
				slotOf[j] = int32(slots)
				slots++
			}
		}
		l := Layout{NumFeat: slots, MaxBins: f.layout.MaxBins, NumClass: c}
		insts := []uint32{1, 2, 8, 40, 63}
		want := New(l)
		for _, inst := range insts {
			feats, bins := f.row(int(inst))
			for k, ft := range feats {
				if ownerOf[ft] != owner {
					continue
				}
				want.AddVec(int(slotOf[ft]), int(bins[k]), f.grad[int(inst)*c:int(inst)*c+c], f.hess[int(inst)*c:int(inst)*c+c])
			}
		}
		got := New(l)
		got.RowScanOwned(insts, f.rowPtr, f.feat, f.bin, ownerOf, slotOf, owner, f.grad, f.hess)
		requireEqualHists(t, want, got, "RowScanOwned")
	}
}

// column returns one synthetic sorted column over n instances.
func column(rng *rand.Rand, n, maxBins int) (insts []uint32, bins []uint16) {
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.6 {
			insts = append(insts, uint32(i))
			bins = append(bins, uint16(rng.Intn(maxBins)))
		}
	}
	return insts, bins
}

func TestColumnScanNodeMatchesAddVec(t *testing.T) {
	for _, c := range []int{1, 3} {
		f := newKernelFixture(t, c, 64, 4)
		rng := rand.New(rand.NewSource(40))
		insts, bins := column(rng, 64, f.layout.MaxBins)
		nodeOf := make([]int32, 64)
		for i := range nodeOf {
			nodeOf[i] = int32(rng.Intn(3))
		}
		const node, col = int32(2), 4
		want := New(f.layout)
		for k, inst := range insts {
			if nodeOf[inst] != node {
				continue
			}
			want.AddVec(col, int(bins[k]), f.grad[int(inst)*c:int(inst)*c+c], f.hess[int(inst)*c:int(inst)*c+c])
		}
		got := New(f.layout)
		got.ColumnScanNode(col, insts, bins, nodeOf, node, f.grad, f.hess)
		requireEqualHists(t, want, got, "ColumnScanNode")
	}
}

func TestColumnGatherMatchesAddVec(t *testing.T) {
	for _, c := range []int{1, 3} {
		f := newKernelFixture(t, c, 64, 5)
		rng := rand.New(rand.NewSource(50))
		insts, bins := column(rng, 64, f.layout.MaxBins)
		var positions []uint32
		for p := range insts {
			if p%3 == 0 {
				positions = append(positions, uint32(p))
			}
		}
		const col = 2
		want := New(f.layout)
		for _, p := range positions {
			inst := int(insts[p])
			want.AddVec(col, int(bins[p]), f.grad[inst*c:inst*c+c], f.hess[inst*c:inst*c+c])
		}
		got := New(f.layout)
		got.ColumnGather(col, positions, insts, bins, f.grad, f.hess)
		requireEqualHists(t, want, got, "ColumnGather")
	}
}

func TestAddFlatMatchesAddVec(t *testing.T) {
	for _, c := range []int{1, 3} {
		f := newKernelFixture(t, c, 16, 6)
		want, got := New(f.layout), New(f.layout)
		for i := 0; i < 16; i++ {
			feat, bin := i%f.layout.NumFeat, (i*5)%f.layout.MaxBins
			want.AddVec(feat, bin, f.grad[i*c:i*c+c], f.hess[i*c:i*c+c])
			got.AddFlat(feat, bin, f.grad, f.hess, i*c)
		}
		requireEqualHists(t, want, got, "AddFlat")
	}
}

func TestColumnScanRoutedMatchesPerNodeScans(t *testing.T) {
	for _, c := range []int{1, 3} {
		f := newKernelFixture(t, c, 64, 7)
		rng := rand.New(rand.NewSource(70))
		insts, bins := column(rng, 64, f.layout.MaxBins)
		nodeOf := make([]int32, 64)
		for i := range nodeOf {
			nodeOf[i] = int32(rng.Intn(5)) // nodes 0..4; only 1 and 3 build
		}
		slot := []int32{-1, 0, -1, 1} // node 4 is beyond the table
		const col = 3

		wants := []*Hist{New(f.layout), New(f.layout)}
		for k, inst := range insts {
			nid := nodeOf[inst]
			if int(nid) >= len(slot) || slot[nid] < 0 {
				continue
			}
			wants[slot[nid]].AddVec(col, int(bins[k]), f.grad[int(inst)*c:int(inst)*c+c], f.hess[int(inst)*c:int(inst)*c+c])
		}

		stride := f.layout.FloatsPerSide()
		ag := make([]float64, 2*stride)
		ah := make([]float64, 2*stride)
		ColumnScanRouted(ag, ah, stride, f.layout, col, insts, bins, nodeOf, slot, f.grad, f.hess, 0)
		for s, want := range wants {
			got := &Hist{Layout: f.layout, Grad: ag[s*stride : (s+1)*stride], Hess: ah[s*stride : (s+1)*stride]}
			requireEqualHists(t, want, got, "ColumnScanRouted")
		}
	}
}

// TestColumnScanBlockMatchesRowScan pins the streamed row-store kernel to
// the in-memory one: routing the column segments of each row block through
// ColumnScanBlock must leave every build node's histogram bit-equal to a
// RowScan of the node's ascending instance list over the transposed (CSR)
// rows — for any block size (one-row blocks, ragged, one block), any chunk
// size (down to one entry), with rows on nodes that are not being built,
// a build node without instances, and an empty build list.
func TestColumnScanBlockMatchesRowScan(t *testing.T) {
	const n = 61
	for _, c := range []int{1, 5} {
		f := newKernelFixture(t, c, n, 8)
		// Transpose the fixture's rows into per-feature columns.
		colInst := make([][]uint32, f.layout.NumFeat)
		colBin := make([][]uint16, f.layout.NumFeat)
		for i := 0; i < n; i++ {
			feats, bins := f.row(i)
			for k, ft := range feats {
				colInst[ft] = append(colInst[ft], uint32(i))
				colBin[ft] = append(colBin[ft], bins[k])
			}
		}
		rng := rand.New(rand.NewSource(80))
		nodeOf := make([]int, n)
		for i := range nodeOf {
			nodeOf[i] = rng.Intn(4) // nodes 0 and 2 are not being built
		}
		for _, build := range [][]int{{1, 3}, {3, 9, 1}, {}} { // node 9 holds no rows
			lists := make([][]uint32, len(build))
			wants := make([]*Hist, len(build))
			for s, node := range build {
				for i, nd := range nodeOf {
					if nd == node {
						lists[s] = append(lists[s], uint32(i))
					}
				}
				wants[s] = New(f.layout)
				wants[s].RowScan(lists[s], 0, f.rowPtr, f.feat, f.bin, f.grad, f.hess, 0)
			}
			for _, blockRows := range []int{1, 7, n, n + 10} {
				for _, chunk := range []int{1, 3, n} {
					gots := make([]*Hist, len(build))
					for s := range gots {
						gots[s] = New(f.layout)
					}
					for start := 0; start < n; start += blockRows {
						end := min(start+blockRows, n)
						slot := make([]uint16, end-start)
						for s, list := range lists {
							for _, inst := range list {
								if int(inst) >= start && int(inst) < end {
									slot[int(inst)-start] = uint16(s + 1)
								}
							}
						}
						for col := range colInst {
							insts, bins := colInst[col], colBin[col]
							for k := 0; k < len(insts); k += chunk {
								ci, cb := insts[k:min(k+chunk, len(insts))], bins[k:min(k+chunk, len(insts))]
								// Keep the chunk's entries that fall inside the block.
								for len(ci) > 0 && int(ci[0]) < start {
									ci, cb = ci[1:], cb[1:]
								}
								for len(ci) > 0 && int(ci[len(ci)-1]) >= end {
									ci, cb = ci[:len(ci)-1], cb[:len(cb)-1]
								}
								ColumnScanBlock(gots, col, ci, cb, start, slot, f.grad, f.hess)
							}
						}
					}
					for s := range wants {
						requireEqualHists(t, wants[s], gots[s], "ColumnScanBlock")
					}
				}
			}
		}
	}
}
