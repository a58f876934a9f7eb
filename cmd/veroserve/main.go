// Command veroserve serves single-row and batch JSON predictions for
// models trained with gbdt.Train and saved with Model.Encode (for example
// by `veroctl train -model model.json`).
//
// Usage:
//
//	veroserve -model model.json [flags]
//	veroserve -model main=model.json -model canary=candidate.json -admin [flags]
//
// Each -model flag is name=path; a bare path serves as the model named
// "default". With -admin, models can be loaded, hot-swapped and deleted
// at runtime without dropping traffic.
//
// -batch-deadline enables cross-request micro-batching: concurrent
// single-row predicts coalesce into one blocked scoring call, flushed at
// -batch-rows rows or when the deadline expires (-model-batch overrides
// per model).
//
// Endpoints (see internal/serve and docs/SERVING.md for the wire format):
//
//	curl localhost:8080/healthz
//	curl localhost:8080/readyz
//	curl localhost:8080/v1/models
//	curl localhost:8080/metricz
//	curl -d '{"rows":[{"indices":[0,3],"values":[1.5,-2]}],"proba":true}' localhost:8080/v1/models/default/predict
//	curl -d '{"path":"retrained.json"}' localhost:8080/v1/models/default   # -admin only
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vero/gbdt"
	"vero/internal/serve"
)

// modelFlags collects repeated -model name=path flags.
type modelFlags []string

func (m *modelFlags) String() string { return strings.Join(*m, ", ") }
func (m *modelFlags) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// parseSpec splits one -model flag into (name, path). A bare path serves
// as the model named serve.DefaultModel.
func parseSpec(arg string) (name, path string, err error) {
	if eq := strings.IndexByte(arg, '='); eq >= 0 {
		name, path = arg[:eq], arg[eq+1:]
		if name == "" || path == "" {
			return "", "", fmt.Errorf("bad -model %q: want name=path", arg)
		}
		return name, path, nil
	}
	return serve.DefaultModel, arg, nil
}

// parseBatchOverride splits one -model-batch flag, name=deadline[,rows],
// into its per-model batching config. A zero deadline disables batching
// for that model.
func parseBatchOverride(arg string) (name string, cfg serve.BatchConfig, err error) {
	eq := strings.IndexByte(arg, '=')
	if eq <= 0 {
		return "", cfg, fmt.Errorf("bad -model-batch %q: want name=deadline[,rows]", arg)
	}
	name, spec := arg[:eq], arg[eq+1:]
	if c := strings.IndexByte(spec, ','); c >= 0 {
		rows, err := strconv.Atoi(spec[c+1:])
		if err != nil {
			return "", cfg, fmt.Errorf("bad -model-batch %q rows: %w", arg, err)
		}
		cfg.MaxRows = rows
		spec = spec[:c]
	}
	d, err := time.ParseDuration(spec)
	if err != nil {
		return "", cfg, fmt.Errorf("bad -model-batch %q deadline: %w", arg, err)
	}
	cfg.Deadline = d
	return name, cfg, nil
}

func main() {
	var models, batchOverrides modelFlags
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		workers     = flag.Int("workers", 0, "prediction goroutines per batch (0 = GOMAXPROCS)")
		blockRows   = flag.Int("block-rows", 0, "batch-scoring instance-block size, at most the compiled block size (0 = default)")
		maxInflight = flag.Int("max-inflight", 64, "concurrent predict requests per model before queueing")
		maxBatch    = flag.Int("max-batch", 10000, "maximum rows per predict request")
		admin       = flag.Bool("admin", false, "enable model load/hot-swap/delete endpoints")

		batchDeadline = flag.Duration("batch-deadline", 0,
			"micro-batching flush deadline for concurrent single-row requests (0 disables; try 200us)")
		batchRows = flag.Int("batch-rows", 0,
			"rows that flush a micro-batch early (0 = block-rows)")
	)
	flag.Var(&models, "model", "model to serve, as name=path or a bare path named default (repeatable)")
	flag.Var(&batchOverrides, "model-batch",
		"per-model micro-batching override, as name=deadline[,rows] (repeatable; deadline 0 disables that model's batching)")
	flag.Parse()
	if len(models) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	logger := log.New(os.Stderr, "veroserve: ", log.LstdFlags)
	var specs []serve.ModelSpec
	for _, arg := range models {
		name, path, err := parseSpec(arg)
		if err != nil {
			logger.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			logger.Fatal(err)
		}
		model, err := gbdt.DecodeModel(data)
		if err != nil {
			logger.Fatalf("%s: %v", path, err)
		}
		specs = append(specs, serve.ModelSpec{Name: name, Source: path, Model: model})
	}

	overrides := map[string]serve.BatchConfig{}
	for _, arg := range batchOverrides {
		name, cfg, err := parseBatchOverride(arg)
		if err != nil {
			logger.Fatal(err)
		}
		overrides[name] = cfg
	}

	srv, err := serve.NewMulti(specs, serve.Options{
		Workers:        *workers,
		BlockRows:      *blockRows,
		MaxInFlight:    *maxInflight,
		MaxBatchRows:   *maxBatch,
		Batch:          serve.BatchConfig{Deadline: *batchDeadline, MaxRows: *batchRows},
		BatchOverrides: overrides,
		EnableAdmin:    *admin,
		Logger:         logger,
	})
	if err != nil {
		logger.Fatal(err)
	}

	for _, st := range srv.Registry().List() {
		logger.Printf("model %q v%d: %d trees, %d classes, objective %q from %s",
			st.Name, st.Version, st.NumTrees, st.NumClass, st.Objective, st.Source)
	}
	if *admin {
		logger.Printf("admin endpoints enabled: POST/DELETE /v1/models/{name}")
	}
	if *batchDeadline > 0 {
		logger.Printf("micro-batching on: deadline %v, batch rows %d (0 = block size)", *batchDeadline, *batchRows)
	}

	httpSrv := serve.NewHTTPServer(*addr, srv.Handler())
	// On SIGINT/SIGTERM: flip /readyz to 503 first so load balancers stop
	// routing, then stop accepting and drain the coalescing queues so
	// every already-enqueued row is scored and answered.
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-stop
		logger.Printf("shutting down: readiness off, draining micro-batches")
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
		srv.Close()
	}()
	logger.Printf("serving %d model(s) on %s", len(specs), *addr)
	if err := httpSrv.ListenAndServe(); err != http.ErrServerClosed {
		logger.Fatal(err)
	}
}
