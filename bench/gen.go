package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"vero/internal/datasets"
	"vero/internal/ingest"
	"vero/internal/serve"
	"vero/internal/tree"
)

// inputs is everything one run feeds the program, derived from the seed
// alone: the same seed gives byte-identical files, bodies and forest. The
// program under test only ever sees these generated inputs.
type inputs struct {
	dir    string
	libsvm string // the training file, LibSVM text

	// The first evalRows rows of the generated dataset, raw values: the
	// rows behind the prediction hash, the accuracy floor and the offline
	// predict loop.
	evalFeat   [][]uint32
	evalVal    [][]float32
	evalLabels []float32

	// The first requestRows rows: request body i carries rows
	// [i*RowsPerReq, (i+1)*RowsPerReq) of these.
	reqFeat [][]uint32
	reqVal  [][]float32
	bodies  [][]byte

	// forest is the synthetic served model (workloads with ForestTrees >
	// 0) and forestEnc its Encode bytes; nil otherwise.
	forest    *tree.Forest
	forestEnc []byte
}

// prepareInputs generates a workload's inputs into dir. It is the
// benchmark's set-up: setup_s is the median wall-clock of several calls.
func prepareInputs(w workload, seed int64, dir string) (*inputs, error) {
	ds, err := datasets.Synthetic(datasets.SyntheticConfig{
		N: w.N, D: w.D, C: w.C,
		InformativeRatio: 0.2, Density: w.Density, LabelNoise: 0.05, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	in := &inputs{dir: dir, libsvm: filepath.Join(dir, "train.libsvm")}
	f, err := os.Create(in.libsvm)
	if err != nil {
		return nil, fmt.Errorf("write training file: %w", err)
	}
	if err := datasets.WriteLibSVM(f, ds); err != nil {
		f.Close()
		return nil, fmt.Errorf("write training file: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("write training file: %w", err)
	}

	nReq := min(ds.NumInstances(), requestRows)
	in.reqFeat, in.reqVal = make([][]uint32, nReq), make([][]float32, nReq)
	for i := 0; i < nReq; i++ {
		feat, val := ds.X.Row(i)
		in.reqFeat[i] = append([]uint32(nil), feat...)
		in.reqVal[i] = append([]float32(nil), val...)
	}
	nEval := min(nReq, evalRows)
	in.evalFeat, in.evalVal = in.reqFeat[:nEval], in.reqVal[:nEval]
	in.evalLabels = append([]float32(nil), ds.Labels[:nEval]...)

	in.bodies, err = encodeBodies(in.reqFeat, in.reqVal, w.RowsPerReq, w.Proba)
	if err != nil {
		return nil, err
	}

	if w.ForestTrees > 0 {
		// Thresholds come from the dataset's own candidate-split table (the
		// one ingestion derives), so CompileBinned accepts the forest.
		pb := ingest.Prebinned(ds, ingest.DefaultSketchEps, splitsQ)
		rng := rand.New(rand.NewSource(seed ^ 0x5eedf0e57))
		in.forest, err = syntheticForest(rng, w.ForestTrees, w.ForestDepth, w.D, pb.Splits)
		if err != nil {
			return nil, err
		}
		if in.forestEnc, err = in.forest.Encode(); err != nil {
			return nil, fmt.Errorf("encode synthetic forest: %w", err)
		}
	}
	return in, nil
}

// encodeBodies pre-encodes the pool of predict requests, rowsPerReq
// consecutive rows each, so the load generator does no JSON work.
func encodeBodies(feat [][]uint32, val [][]float32, rowsPerReq int, proba bool) ([][]byte, error) {
	n := min(maxBodies, len(feat)/rowsPerReq)
	if n == 0 {
		return nil, fmt.Errorf("%d request rows cannot fill one %d-row request", len(feat), rowsPerReq)
	}
	bodies := make([][]byte, n)
	for i := range bodies {
		req := serve.PredictRequest{Proba: proba, Rows: make([]serve.SparseRow, rowsPerReq)}
		for r := range req.Rows {
			k := i*rowsPerReq + r
			req.Rows[r] = serve.SparseRow{Indices: feat[k], Values: val[k]}
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("encode request body: %w", err)
		}
		bodies[i] = b
	}
	return bodies, nil
}

// syntheticForest builds a binary-logistic forest of full trees of the
// given depth (depth 8: 127 splits and 128 leaves a tree) with features,
// thresholds, default directions and leaf weights drawn from rng, through
// the same tree-building calls the trainer uses.
func syntheticForest(rng *rand.Rand, trees, depth, numFeature int, splits [][]float32) (*tree.Forest, error) {
	var usable []int
	for f, s := range splits {
		if len(s) > 0 {
			usable = append(usable, f)
		}
	}
	if len(usable) == 0 {
		return nil, fmt.Errorf("synthetic forest: no feature has candidate splits")
	}
	forest := tree.NewForest(1, 0.1, []float64{0}, "logistic", numFeature)
	forest.Splits = splits
	for t := 0; t < trees; t++ {
		tr := tree.New(1)
		frontier := []int32{tr.Root()}
		for level := 1; level < depth; level++ {
			next := make([]int32, 0, 2*len(frontier))
			for _, id := range frontier {
				f := usable[rng.Intn(len(usable))]
				bin := rng.Intn(len(splits[f]))
				l, r := tr.Split(id, int32(f), splits[f][bin], uint16(bin), rng.Intn(2) == 0, rng.Float64())
				next = append(next, l, r)
			}
			frontier = next
		}
		for _, id := range frontier {
			tr.SetLeaf(id, []float64{rng.NormFloat64() * 0.1})
		}
		forest.Append(tr)
	}
	return forest, nil
}
