// Serving: train a model, save it with Encode (the artifact cmd/veroserve
// loads), then score traffic through the flat serving engine — the same
// Predictor that backs veroserve's HTTP endpoints — comparing the
// training-side pointer walk with the flat kernel called one row at a
// time and over whole batches. All three produce bit-identical margins.
//
// To serve the saved model over HTTP instead (with hot-swap enabled):
//
//	go run ./cmd/veroserve -model /tmp/vero-model.json -admin
//	curl -d '{"rows":[{"indices":[0,3],"values":[1.5,-2]}],"proba":true}' localhost:8080/v1/models/default/predict
//	curl -d '{"path":"/tmp/vero-model.json"}' localhost:8080/v1/models/default  # hot-swap
//	curl localhost:8080/metricz
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"vero/gbdt"
)

func main() {
	ds, err := gbdt.Synthetic(gbdt.SyntheticConfig{
		N: 20000, D: 100, C: 2,
		InformativeRatio: 0.2, Density: 0.2, LabelNoise: 0.05, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	train, traffic := ds.Split(0.5, 7)
	model, _, err := gbdt.Train(train, gbdt.Options{Workers: 8, Trees: 50, Layers: 6})
	if err != nil {
		log.Fatal(err)
	}

	encoded, err := model.Encode()
	if err != nil {
		log.Fatal(err)
	}
	const path = "/tmp/vero-model.json"
	if err := os.WriteFile(path, encoded, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved %d-tree model (%d KB) to %s\n", model.NumTrees(), len(encoded)/1024, path)

	// One margin three ways: the training forest's pointer walk, the flat
	// kernel one row per call, and the same kernel over 64-row blocks, all
	// single-threaded so the comparison isolates layout and batching.
	blocked, err := gbdt.NewPredictor(model, gbdt.PredictorOptions{Workers: 1})
	if err != nil {
		log.Fatal(err)
	}

	start := time.Now()
	slow := model.Forest().PredictCSR(traffic.X)
	pointerSec := time.Since(start).Seconds()
	start = time.Now()
	flat := make([]float64, len(slow))
	k := blocked.NumClass()
	for i := 0; i < traffic.NumInstances(); i++ {
		feat, val := traffic.X.Row(i)
		blocked.PredictRowInto(feat, val, flat[i*k:(i+1)*k])
	}
	flatSec := time.Since(start).Seconds()
	start = time.Now()
	fast := blocked.Predict(traffic)
	blockSec := time.Since(start).Seconds()
	for i := range fast {
		if fast[i] != slow[i] || flat[i] != slow[i] {
			log.Fatalf("engines disagree at %d", i)
		}
	}
	n := float64(traffic.NumInstances())
	fmt.Printf("pointer walk:  %8.0f rows/s\n", n/pointerSec)
	fmt.Printf("flat 1-row:    %8.0f rows/s (%.1fx, bit-exact)\n", n/flatSec, pointerSec/flatSec)
	fmt.Printf("flat blocked:  %8.0f rows/s (%.1fx, bit-exact)\n", n/blockSec, pointerSec/blockSec)

	probs := blocked.Probabilities(fast[:5])
	fmt.Printf("first margins:       %.4f\n", fast[:5])
	fmt.Printf("first probabilities: %.4f\n", probs)
}
