// Package vero_test holds the benchmark harness that regenerates every
// table and figure of the paper's evaluation (see DESIGN.md section 3 for
// the experiment index and EXPERIMENTS.md for paper-vs-measured results).
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Each benchmark executes the corresponding experiment at benchScale and
// reports the experiment's headline quantities as custom metrics, so the
// bench output is itself a compact version of the paper's tables. For the
// full-size tables use cmd/benchtab.
package vero_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"vero/gbdt"
	"vero/internal/cluster"
	"vero/internal/core"
	"vero/internal/costmodel"
	"vero/internal/datasets"
	"vero/internal/experiments"
	"vero/internal/partition"
	"vero/internal/systems"
)

// benchScale shrinks instance counts so the full harness completes in
// minutes on one machine; shapes are preserved (see EXPERIMENTS.md).
const benchScale = 0.3

// BenchmarkCostModelAge evaluates the Section 3.1.4 closed-form example
// and reports the paper's headline numbers as metrics.
func BenchmarkCostModelAge(b *testing.B) {
	var r costmodel.Report
	for i := 0; i < b.N; i++ {
		var err error
		r, err = costmodel.Analyze(costmodel.AgeExample())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.HistogramBytes)/(1<<20), "sizehist_MB")
	b.ReportMetric(float64(r.HorizontalMemoryBytes)/(1<<30), "horiz_mem_GB")
	b.ReportMetric(float64(r.VerticalMemoryBytes)/(1<<30), "vert_mem_GB")
	b.ReportMetric(float64(r.HorizontalCommBytesPerTree)/(1<<30), "horiz_comm_GB")
	b.ReportMetric(float64(r.VerticalCommBytesPerTree)/(1<<20), "vert_comm_MB")
}

// reportEndpoints emits the first/last workload's per-tree times for the
// two systems of a Figure 10 panel.
func reportEndpoints(b *testing.B, pts []experiments.Point) {
	b.Helper()
	if len(pts) < 2 {
		return
	}
	first, last := pts[0].Workload, pts[len(pts)-1].Workload
	for _, p := range pts {
		if p.Workload != first && p.Workload != last {
			continue
		}
		suffix := "_lo"
		if p.Workload == last {
			suffix = "_hi"
		}
		b.ReportMetric(p.CompSec*1e3, p.System+suffix+"_comp_ms")
		b.ReportMetric(p.CommSec*1e3, p.System+suffix+"_comm_ms")
	}
}

func benchFig10(b *testing.B, f func(float64) ([]experiments.Point, error)) {
	var pts []experiments.Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = f(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	reportEndpoints(b, pts)
}

func BenchmarkFig10a(b *testing.B) { benchFig10(b, experiments.Fig10a) }
func BenchmarkFig10b(b *testing.B) { benchFig10(b, experiments.Fig10b) }
func BenchmarkFig10c(b *testing.B) { benchFig10(b, experiments.Fig10c) }
func BenchmarkFig10d(b *testing.B) { benchFig10(b, experiments.Fig10d) }

// BenchmarkFig10e reports the memory breakdown vs dimensionality.
func BenchmarkFig10e(b *testing.B) {
	var pts []experiments.Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Fig10e(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.Workload == pts[len(pts)-1].Workload {
			b.ReportMetric(p.HistMB, p.System+"_hist_MB")
			b.ReportMetric(p.DataMB, p.System+"_data_MB")
		}
	}
}

// BenchmarkFig10f reports the memory breakdown vs class count.
func BenchmarkFig10f(b *testing.B) {
	var pts []experiments.Point
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = experiments.Fig10f(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.Workload == pts[len(pts)-1].Workload {
			b.ReportMetric(p.HistMB, p.System+"_hist_MB")
		}
	}
}

func BenchmarkFig10g(b *testing.B) { benchFig10(b, experiments.Fig10g) }
func BenchmarkFig10h(b *testing.B) { benchFig10(b, experiments.Fig10h) }

// BenchmarkTable3 runs the end-to-end system comparison and reports each
// high-dimensional dataset's slowdown factors relative to Vero.
func BenchmarkTable3(b *testing.B) {
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table3(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Dataset {
		case "rcv1", "synthesis", "rcv1-multi", "susy":
			for _, s := range []systems.System{systems.XGBoost, systems.LightGBM, systems.DimBoost} {
				if rel, ok := r.Relative[s]; ok {
					b.ReportMetric(rel, r.Dataset+"_"+string(s)+"_xVero")
				}
			}
		}
	}
}

// BenchmarkFig11 runs the convergence-curve harness on one binary and one
// multi-class dataset and reports each system's final metric.
func BenchmarkFig11(b *testing.B) {
	var curves []experiments.Curve
	for i := 0; i < b.N; i++ {
		for _, name := range []string{"susy", "rcv1-multi"} {
			cs, err := experiments.Fig11(name, 8, benchScale)
			if err != nil {
				b.Fatal(err)
			}
			curves = append(curves, cs...)
		}
	}
	for _, c := range curves[:min(8, len(curves))] {
		if c.Err != "" || len(c.Points) == 0 {
			continue
		}
		last := c.Points[len(c.Points)-1]
		b.ReportMetric(last.Metric, c.Dataset+"_"+string(c.System)+"_final")
	}
}

// BenchmarkTable4 runs the industrial-dataset comparison (10 Gbps model).
func BenchmarkTable4(b *testing.B) {
	var rows []experiments.Table4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table4(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		for s, sec := range r.Seconds {
			b.ReportMetric(sec*1e3, r.Dataset+"_"+string(s)+"_ms")
		}
	}
}

// BenchmarkTable5 runs the transformation-efficiency study.
func BenchmarkTable5(b *testing.B) {
	var rows []experiments.Table5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table5(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Dataset != "synthesis" {
			continue
		}
		b.ReportMetric(r.RepartitionMB[partition.VariantNaive], "naive_MB")
		b.ReportMetric(r.RepartitionMB[partition.VariantCompressed], "compress_MB")
		b.ReportMetric(r.RepartitionMB[partition.VariantBlockified], "vero_MB")
	}
}

// BenchmarkTable6 runs the scalability sweep.
func BenchmarkTable6(b *testing.B) {
	var rows []experiments.Table6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table6(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Workers == 8 {
			b.ReportMetric(r.Speedup, r.Dataset+"_speedup_w8")
		}
	}
}

// BenchmarkTable7 runs the Yggdrasil comparison.
func BenchmarkTable7(b *testing.B) {
	var rows []experiments.Table7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table7(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Seconds[systems.Yggdrasil]*1e3, r.Dataset+"_yggdrasil_ms")
		b.ReportMetric(r.Seconds[systems.QD3Hybrid]*1e3, r.Dataset+"_qd3_ms")
		b.ReportMetric(r.Seconds[systems.Vero]*1e3, r.Dataset+"_vero_ms")
	}
}

// BenchmarkTable8 runs the LightGBM data- vs feature-parallel comparison.
func BenchmarkTable8(b *testing.B) {
	var rows []experiments.Table8Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table8(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Seconds[systems.LightGBM]*1e3, r.Dataset+"_dp_ms")
		b.ReportMetric(r.Seconds[systems.LightGBMFP]*1e3, r.Dataset+"_fp_ms")
		b.ReportMetric(r.Seconds[systems.Vero]*1e3, r.Dataset+"_vero_ms")
	}
}

// BenchmarkAblations measures the design-choice ablations of DESIGN.md.
func BenchmarkAblations(b *testing.B) {
	var sub, comp experiments.AblationRow
	for i := 0; i < b.N; i++ {
		var err error
		sub, err = experiments.AblationSubtraction(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		comp, err = experiments.AblationCompression(benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sub.AblatedSec/sub.BaselineSec, "subtraction_speedup")
	b.ReportMetric(comp.AblatedSec/comp.BaselineSec, "compression_speedup")
}

// Training-throughput benchmarks: the histogram-construction trajectory.
// One benchmark per quadrant, binary (C==1 gradient) and multiclass, so
// histogram-kernel changes are pinned against a consistent workload. The
// rows/s metric is nominal instance-layer scans (N x Trees x (Layers-1))
// divided by histogram-phase computation seconds — see docs/PERFORMANCE.md
// for how to read it (histogram subtraction makes the numerator an upper
// bound on actual scans, uniformly across quadrants).

const (
	trainHistTrees  = 4
	trainHistLayers = 6
)

var trainHistOnce struct {
	sync.Once
	binary, multi *datasets.Dataset
	err           error
}

func trainHistData(b *testing.B) (binary, multi *datasets.Dataset) {
	b.Helper()
	s := &trainHistOnce
	s.Do(func() {
		s.binary, s.err = datasets.Synthetic(datasets.SyntheticConfig{
			N: 8000, D: 60, C: 2,
			InformativeRatio: 0.3, Density: 0.3, LabelNoise: 0.05, Seed: 17,
		})
		if s.err != nil {
			return
		}
		s.multi, s.err = datasets.Synthetic(datasets.SyntheticConfig{
			N: 8000, D: 60, C: 5,
			InformativeRatio: 0.3, Density: 0.3, LabelNoise: 0.05, Seed: 17,
		})
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.binary, s.multi
}

func benchTrainHist(b *testing.B, q core.Quadrant) {
	binary, multi := trainHistData(b)
	for _, tc := range []struct {
		name string
		ds   *datasets.Dataset
	}{{"binary", binary}, {"multiclass", multi}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var histSec float64
			for i := 0; i < b.N; i++ {
				cl := cluster.New(4, cluster.Gigabit())
				_, err := core.Train(cl, tc.ds, core.Config{
					Quadrant: q, Trees: trainHistTrees, Layers: trainHistLayers, Splits: 20,
				})
				if err != nil {
					b.Fatal(err)
				}
				histSec += cl.Stats().Phase("train.histogram").CompSeconds
			}
			rows := float64(b.N) * float64(tc.ds.NumInstances()) * trainHistTrees * (trainHistLayers - 1)
			b.ReportMetric(rows/histSec, "rows/s")
			b.ReportMetric(histSec/float64(b.N)*1e3, "hist_ms/op")
		})
	}
}

func BenchmarkTrainHistQD1(b *testing.B) { benchTrainHist(b, core.QD1) }
func BenchmarkTrainHistQD2(b *testing.B) { benchTrainHist(b, core.QD2) }
func BenchmarkTrainHistQD3(b *testing.B) { benchTrainHist(b, core.QD3) }
func BenchmarkTrainHistQD4(b *testing.B) { benchTrainHist(b, core.QD4) }

// Inference benchmarks: the serving-side comparison between the training
// forest's pointer walk and the flattened SoA engine (gbdt.Predictor).

var inferOnce struct {
	sync.Once
	model   *gbdt.Model
	pred    *gbdt.Predictor
	traffic *gbdt.Dataset
	err     error
}

// inferSetup trains one 100-tree binary model and holds out a traffic set,
// shared by every inference benchmark.
func inferSetup(b *testing.B) (*gbdt.Model, *gbdt.Predictor, *gbdt.Dataset) {
	b.Helper()
	s := &inferOnce
	s.Do(func() {
		ds, err := gbdt.Synthetic(gbdt.SyntheticConfig{
			N: 40000, D: 200, C: 2,
			InformativeRatio: 0.2, Density: 0.2, LabelNoise: 0.05, Seed: 9,
		})
		if err != nil {
			s.err = err
			return
		}
		train, traffic := ds.Split(0.5, 9)
		model, _, err := gbdt.Train(train, gbdt.Options{Workers: 8, Trees: 100, Layers: 6, Seed: 9})
		if err != nil {
			s.err = err
			return
		}
		pred, err := gbdt.NewPredictor(model, gbdt.PredictorOptions{})
		if err != nil {
			s.err = err
			return
		}
		s.model, s.pred, s.traffic = model, pred, traffic
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.model, s.pred, s.traffic
}

// BenchmarkInferencePointerWalk scores the traffic set with the training
// forest's per-node pointer walk (the pre-serving baseline).
func BenchmarkInferencePointerWalk(b *testing.B) {
	model, _, traffic := inferSetup(b)
	forest := model.Forest()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		forest.PredictCSR(traffic.X)
	}
	rows := float64(b.N) * float64(traffic.NumInstances())
	b.ReportMetric(rows/time.Since(start).Seconds(), "rows/s")
}

// BenchmarkInferenceFlat scores the traffic set with the flat engine on a
// single goroutine — the layout win alone.
func BenchmarkInferenceFlat(b *testing.B) {
	model, _, traffic := inferSetup(b)
	pred, err := gbdt.NewPredictor(model, gbdt.PredictorOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		pred.Predict(traffic)
	}
	rows := float64(b.N) * float64(traffic.NumInstances())
	b.ReportMetric(rows/time.Since(start).Seconds(), "rows/s")
}

// BenchmarkInferenceFlatParallel adds the goroutine-parallel batch path —
// the configuration cmd/veroserve runs.
func BenchmarkInferenceFlatParallel(b *testing.B) {
	_, pred, traffic := inferSetup(b)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		pred.Predict(traffic)
	}
	rows := float64(b.N) * float64(traffic.NumInstances())
	b.ReportMetric(rows/time.Since(start).Seconds(), "rows/s")
}

// Batch-kernel benchmarks: one-row calls vs whole batches through the one
// blocked kernel, single-threaded so the numbers isolate the kernel, at
// the batch sizes a serving tier actually sees.

// benchPredictBatch scores batches with PredictRows, perCall rows a call
// (0: the whole batch in one call).
func benchPredictBatch(b *testing.B, perCall int) {
	model, _, traffic := inferSetup(b)
	pred, err := gbdt.NewPredictor(model, gbdt.PredictorOptions{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 64, 256, 1024} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			feats := make([][]uint32, batch)
			vals := make([][]float32, batch)
			for i := 0; i < batch; i++ {
				feats[i], vals[i] = traffic.X.Row(i % traffic.NumInstances())
			}
			b.ResetTimer()
			start := time.Now()
			step := batch
			if perCall > 0 {
				step = perCall
			}
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < batch; lo += step {
					pred.PredictRows(feats[lo:lo+step], vals[lo:lo+step])
				}
			}
			rows := float64(b.N) * float64(batch)
			b.ReportMetric(rows/time.Since(start).Seconds(), "rows/s")
		})
	}
}

// BenchmarkPredictRow scores batches as 1-row calls, what a stream of
// single-row requests costs the kernel.
func BenchmarkPredictRow(b *testing.B) { benchPredictBatch(b, 1) }

// BenchmarkPredictBlock scores each batch in one call at the default block
// size.
func BenchmarkPredictBlock(b *testing.B) { benchPredictBatch(b, 0) }

// BenchmarkInferenceRowLatency measures single-row latency through the
// flat engine — the veroserve single-request path — and reports p50/p99.
func BenchmarkInferenceRowLatency(b *testing.B) {
	_, pred, traffic := inferSetup(b)
	out := make([]float64, pred.NumClass())
	lat := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feat, val := traffic.X.Row(i % traffic.NumInstances())
		t0 := time.Now()
		pred.PredictRowInto(feat, val, out)
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	b.StopTimer()
	sort.Float64s(lat)
	b.ReportMetric(lat[len(lat)/2], "p50_us")
	b.ReportMetric(lat[len(lat)*99/100], "p99_us")
}

// --- Ingestion: cold parse vs warm binned cache (docs/DATA.md) ---

// ingestSetup writes a LibSVM training file and its .vbin cache image to
// a temp dir, returning both paths and the row count.
func ingestSetup(b *testing.B, n, d int) (libsvm, vbin string, rows int) {
	b.Helper()
	ds, err := gbdt.Synthetic(gbdt.SyntheticConfig{
		N: n, D: d, C: 2, InformativeRatio: 0.2, Density: 0.2, Seed: 42,
	})
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	libsvm = filepath.Join(dir, "bench.libsvm")
	f, err := os.Create(libsvm)
	if err != nil {
		b.Fatal(err)
	}
	if err := gbdt.WriteLibSVM(f, ds); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	vbin = filepath.Join(dir, "bench.vbin")
	if err := gbdt.WriteCacheFile(vbin, ds, gbdt.Options{}); err != nil {
		b.Fatal(err)
	}
	return libsvm, vbin, ds.NumInstances()
}

// BenchmarkIngestColdParse measures the full cold path: chunked parallel
// LibSVM parse plus the streaming sketch pass that derives bin boundaries.
func BenchmarkIngestColdParse(b *testing.B) {
	libsvm, _, rows := ingestSetup(b, 20000, 100)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, _, err := gbdt.IngestFile(libsvm, gbdt.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows*b.N)/time.Since(start).Seconds(), "rows/s")
}

// BenchmarkIngestColdParse1Worker is the single-threaded baseline the
// worker pool is measured against.
func BenchmarkIngestColdParse1Worker(b *testing.B) {
	libsvm, _, rows := ingestSetup(b, 20000, 100)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, _, err := gbdt.IngestFile(libsvm, gbdt.Options{NumParseWorkers: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows*b.N)/time.Since(start).Seconds(), "rows/s")
}

// BenchmarkIngestWarmCache measures the warm path: loading the binned
// binary cache, which skips parsing, sketching and binning.
func BenchmarkIngestWarmCache(b *testing.B) {
	_, vbin, rows := ingestSetup(b, 20000, 100)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := gbdt.ReadCacheFile(vbin); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows*b.N)/time.Since(start).Seconds(), "rows/s")
}

// BenchmarkTrainOutOfCore trains the same .vbin cache twice — materialized
// in memory and streamed through the mmap-backed view under a small memory
// budget — and reports both training throughputs, the streamed fraction
// (streamed rows/s over in-memory rows/s, the docs/PERFORMANCE.md
// headline) and the streamed run's peak heap.
func BenchmarkTrainOutOfCore(b *testing.B) {
	_, vbin, rows := ingestSetup(b, 20000, 100)
	train := func(outOfCore bool) (*gbdt.Report, float64) {
		b.Helper()
		t0 := time.Now()
		_, rep, err := gbdt.TrainFile(vbin, gbdt.Options{
			Quadrant: gbdt.QD4, Workers: 4, Trees: 4, Layers: 6,
			OutOfCore: outOfCore, MemBudget: 32 << 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		return rep, time.Since(t0).Seconds()
	}
	b.ResetTimer()
	var memSec, oocSec float64
	var peak uint64
	for i := 0; i < b.N; i++ {
		_, s := train(false)
		memSec += s
		rep, s := train(true)
		oocSec += s
		peak = rep.PeakHeapBytes
	}
	b.ReportMetric(float64(rows*b.N)/memSec, "mem_rows/s")
	b.ReportMetric(float64(rows*b.N)/oocSec, "ooc_rows/s")
	b.ReportMetric(memSec/oocSec, "ooc_fraction")
	b.ReportMetric(float64(peak)/(1<<20), "ooc_peak_MiB")
}

// BenchmarkIngestWarmVsCold runs both paths back to back and reports the
// warm-over-cold rows/s ratio — the acceptance headline of the cache.
func BenchmarkIngestWarmVsCold(b *testing.B) {
	libsvm, vbin, rows := ingestSetup(b, 20000, 100)
	b.ResetTimer()
	var coldSec, warmSec float64
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, _, err := gbdt.IngestFile(libsvm, gbdt.Options{}); err != nil {
			b.Fatal(err)
		}
		coldSec += time.Since(t0).Seconds()
		t0 = time.Now()
		if _, err := gbdt.ReadCacheFile(vbin); err != nil {
			b.Fatal(err)
		}
		warmSec += time.Since(t0).Seconds()
	}
	b.ReportMetric(float64(rows*b.N)/coldSec, "cold_rows/s")
	b.ReportMetric(float64(rows*b.N)/warmSec, "warm_rows/s")
	b.ReportMetric(coldSec/warmSec, "warm_x")
}
