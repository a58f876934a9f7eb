// Package serve implements the model-serving HTTP layer behind
// cmd/veroserve: JSON prediction endpoints over a registry of compiled
// gbdt.Predictors with atomic hot-swap, per-model admission control and
// request accounting.
//
// Endpoints (see docs/SERVING.md for the full wire format):
//
//	GET    /healthz                   liveness probe
//	GET    /readyz                    readiness probe (503 once draining)
//	GET    /metricz                   per-model request/latency accounting
//	GET    /v1/models                 list registered models
//	GET    /v1/models/{name}          one model's metadata
//	POST   /v1/models/{name}/predict  single-row or batch prediction
//	POST   /v1/models/{name}          load or hot-swap a model (admin)
//	DELETE /v1/models/{name}          unregister a model (admin)
//
// A predict request carries sparse rows (parallel indices/values arrays),
// dense rows, or both:
//
//	{"rows": [{"indices": [0, 7], "values": [1.5, -2.0]}],
//	 "dense": [[1.5, 0, 0, 0, 0, 0, 0, -2.0]],
//	 "proba": true}
//
// The response returns raw margins per row (stride num_class), the
// (model, version) that scored them, and, when proba is set,
// sigmoid/softmax probabilities:
//
//	{"model": "default", "version": 2, "num_class": 1,
//	 "scores": [[0.83]], "probabilities": [[0.69]]}
//
// Predict bodies and responses do not go through encoding/json: codec.go
// reads the body under a size cap, decodes it in one pass into pooled
// rows and appends the response into the same buffer (docs/SERVING.md,
// "The predict codec", has the limits and where it is stricter).
//
// Every request resolves its model handle exactly once, so a hot-swap
// landing mid-request never mixes versions: the response is entirely the
// version named in it. Concurrency is bounded per model: MaxInFlight caps
// the predict requests decoded and scored at once (excess requests wait,
// honoring request cancellation), and the predictor's worker pool caps
// the goroutines one batch fans out to.
package serve

import (
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"vero/gbdt"
	"vero/internal/tree"
)

// DefaultModel is the name the single-model constructor registers its
// model under. The admin endpoint refuses to delete it.
const DefaultModel = "default"

// Options configures a Server.
type Options struct {
	// Workers bounds the prediction goroutines per batch (default
	// GOMAXPROCS, via gbdt.PredictorOptions).
	Workers int
	// BlockRows is the batch-scoring instance-block size, clamped to the
	// compiled block size (default tree.DefaultBlockRows). Every request,
	// one row included, is scored by the one blocked kernel. See
	// gbdt.PredictorOptions.BlockRows.
	BlockRows int
	// MaxInFlight bounds concurrently served predict requests per model
	// (default 64).
	MaxInFlight int
	// MaxBatchRows rejects predict requests with more rows (default 10000).
	MaxBatchRows int
	// Batch enables cross-request micro-batching for every model:
	// concurrent single-row predict requests coalesce into one blocked
	// scoring call (see BatchConfig and batcher.go). The zero value
	// disables batching.
	Batch BatchConfig
	// BatchOverrides replaces Batch for specific model names. An override
	// with zero Deadline disables batching for that model only.
	BatchOverrides map[string]BatchConfig
	// EnableAdmin exposes the model load/swap/delete endpoints. Off by
	// default: the admin endpoint reads model files from the server's
	// filesystem, so only enable it on trusted networks.
	EnableAdmin bool
	// Logger receives load/swap/delete rationale lines (default
	// log.Default()).
	Logger *log.Logger

	// clock is the batcher's time source; tests inject a fake to drive
	// flush deadlines deterministically.
	clock clock
}

func (o Options) withDefaults() Options {
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 64
	}
	if o.MaxBatchRows <= 0 {
		o.MaxBatchRows = 10000
	}
	if o.Logger == nil {
		o.Logger = log.Default()
	}
	if o.clock == nil {
		o.clock = realClock{}
	}
	return o
}

// batchConfig resolves the effective micro-batching config for one model:
// the per-name override when present, the global Batch otherwise, with
// MaxRows defaulted to the scoring block size and clamped to MaxInFlight
// (admission bounds how many single-row requests can ever queue, so a
// larger count would never fill). The returned config has MaxRows > 1 iff
// batching is on.
func (o Options) batchConfig(name string) BatchConfig {
	cfg := o.Batch
	if ov, ok := o.BatchOverrides[name]; ok {
		cfg = ov
	}
	if cfg.Deadline <= 0 {
		return BatchConfig{}
	}
	if cfg.MaxRows <= 0 {
		cfg.MaxRows = o.BlockRows
		if cfg.MaxRows <= 0 {
			cfg.MaxRows = tree.DefaultBlockRows
		}
	}
	if cfg.MaxRows > o.MaxInFlight {
		cfg.MaxRows = o.MaxInFlight
	}
	if cfg.MaxRows <= 1 {
		return BatchConfig{}
	}
	return cfg
}

// Server serves predictions for a registry of models.
type Server struct {
	reg  *Registry
	opts Options
	// ready backs /readyz: true once every construction-time model has
	// loaded, false again when a drain begins — so load balancers stop
	// routing before the listener closes.
	ready atomic.Bool
}

// ModelSpec names one model for NewMulti.
type ModelSpec struct {
	Name   string
	Source string // provenance echoed in /v1/models (typically the file path)
	Model  *gbdt.Model
}

// New compiles a single model and returns a ready Server with the model
// registered as DefaultModel. name is recorded as the model's source
// (typically the model file path).
func New(model *gbdt.Model, name string, opts Options) (*Server, error) {
	return NewMulti([]ModelSpec{{Name: DefaultModel, Source: name, Model: model}}, opts)
}

// NewMulti compiles several models into a fresh registry.
func NewMulti(specs []ModelSpec, opts Options) (*Server, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("serve: no models")
	}
	opts = opts.withDefaults()
	s := &Server{reg: newRegistry(opts), opts: opts}
	for _, spec := range specs {
		if spec.Name == "" {
			return nil, fmt.Errorf("serve: model with empty name")
		}
		if _, err := s.reg.Load(spec.Name, spec.Source, spec.Model); err != nil {
			return nil, err
		}
	}
	s.ready.Store(true)
	return s, nil
}

// Registry exposes the model registry for programmatic load/swap/delete.
func (s *Server) Registry() *Registry { return s.reg }

// BeginDrain flips /readyz to 503 without touching in-flight or future
// requests. Call it when a shutdown signal arrives, before
// http.Server.Shutdown, so load balancers stop routing new work while the
// listener still answers the requests already on the wire.
func (s *Server) BeginDrain() { s.ready.Store(false) }

// Ready reports whether /readyz currently answers 200.
func (s *Server) Ready() bool { return s.ready.Load() }

// Close drains every model's coalescing queue: rows already enqueued are
// scored and answered normally, and later requests score inline. Call
// after (or concurrently with) http.Server.Shutdown so no queued request
// is dropped. Close implies BeginDrain.
func (s *Server) Close() {
	s.BeginDrain()
	s.reg.Close()
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			writeError(w, http.StatusServiceUnavailable, "draining")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ready"}`)
	})
	mux.HandleFunc("GET /metricz", s.handleMetricz)
	mux.HandleFunc("GET /v1/models", s.handleList)
	mux.HandleFunc("GET /v1/models/{name}", s.handleModel)
	mux.HandleFunc("POST /v1/models/{name}/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/models/{name}", s.handleAdminSwap)
	mux.HandleFunc("DELETE /v1/models/{name}", s.handleAdminDelete)
	return mux
}

// Connection timeouts: a client may be slow, but not for ever, at any
// point of a connection's life. They are constants, not options: what they
// defend (a goroutine and a buffer per stalled connection) does not
// depend on the deployment, and the slowest honest request — a 32 MiB
// body, the largest the predict endpoint reads, or 10000 rows against a
// deep forest — fits them many times over.
const (
	readHeaderTimeout = 10 * time.Second  // request line and headers
	readTimeout       = 30 * time.Second  // the whole request, body included
	writeTimeout      = 60 * time.Second  // end of the headers to end of the response: admission wait, scoring, write
	idleTimeout       = 120 * time.Second // a keep-alive connection between requests
)

// NewHTTPServer returns the http.Server to listen with on addr: handler
// (typically Server.Handler) behind the connection timeouts above.
func NewHTTPServer(addr string, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// resolve picks the request's model handle by its {name} path segment.
func (s *Server) resolve(r *http.Request) (*handle, string, bool) {
	name := r.PathValue("name")
	h, ok := s.reg.get(name)
	return h, name, ok
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	h, name, ok := s.resolve(r)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("model %q not registered", name))
		return
	}
	writeJSON(w, http.StatusOK, h.status())
}

// ModelList is the /v1/models response.
type ModelList struct {
	Models []ModelStatus `json:"models"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ModelList{Models: s.reg.List()})
}

// MetricsResponse is the /metricz response.
type MetricsResponse struct {
	Models []MetricsSnapshot `json:"models"`
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, MetricsResponse{Models: s.reg.Metrics()})
}

// SparseRow is one instance in sparse form: parallel feature-id/value
// arrays, in any order, duplicates rejected.
type SparseRow struct {
	Indices []uint32  `json:"indices"`
	Values  []float32 `json:"values"`
}

// PredictRequest is the /v1/models/{name}/predict request body. Sparse
// rows are scored first, then dense rows.
type PredictRequest struct {
	Rows  []SparseRow `json:"rows,omitempty"`
	Dense [][]float32 `json:"dense,omitempty"`
	// Proba requests sigmoid/softmax probabilities alongside raw margins.
	Proba bool `json:"proba,omitempty"`
}

// PredictResponse is the /v1/models/{name}/predict response body. Model
// and Version identify the exact registry entry that scored every row of
// the response.
type PredictResponse struct {
	Model         string      `json:"model"`
	Version       int         `json:"version"`
	NumClass      int         `json:"num_class"`
	Scores        [][]float64 `json:"scores"`
	Probabilities [][]float64 `json:"probabilities,omitempty"`
}

// apiError is the stable JSON error envelope every non-2xx response
// carries: {"error": {"code": "...", "message": "..."}}. Code is a
// machine-readable slug derived from the HTTP status; Message is
// human-readable detail. Clients should match on Code, never on Message.
type apiError struct {
	Error ErrorBody `json:"error"`
}

// ErrorBody is the payload inside the apiError envelope.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorCode maps an HTTP status to the envelope's stable code slug.
func errorCode(status int) string {
	switch status {
	case http.StatusBadRequest:
		return "bad_request"
	case http.StatusNotFound:
		return "not_found"
	case http.StatusRequestEntityTooLarge:
		return "too_large"
	case http.StatusServiceUnavailable:
		return "capacity"
	case http.StatusForbidden:
		return "forbidden"
	case http.StatusConflict:
		return "conflict"
	default:
		return "internal"
	}
}

// writeError answers with the stable error envelope for status.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, apiError{Error: ErrorBody{Code: errorCode(status), Message: msg}})
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	// The request's clock covers everything the server adds to it: the
	// wait for admission, the body read, decode, scoring, and the response
	// write.
	start := time.Now()
	// Resolve the handle once: everything below — admission, scoring,
	// accounting, the response's (model, version) — is this one version,
	// no matter what swaps land meanwhile.
	h, name, ok := s.resolve(r)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("model %q not registered", name))
		return
	}

	// Bounded per-model concurrency: wait for a slot or client hang-up.
	select {
	case h.inflight <- struct{}{}:
		defer func() { <-h.inflight }()
	case <-r.Context().Done():
		h.metrics.rejected.Add(1)
		writeError(w, http.StatusServiceUnavailable, "request canceled while waiting for capacity")
		return
	}
	h.metrics.inFlight.Add(1)
	defer h.metrics.inFlight.Add(-1)

	// Everything the request decodes and the response it encodes live in
	// sc until the handler returns; nothing below may keep a row, a margin
	// view or the response bytes past that.
	sc := scratchPool.Get().(*predictScratch)
	defer sc.release()
	fail := func(status int, err error) {
		writeError(w, status, err.Error())
		h.metrics.observe(time.Since(start), 0, true)
	}
	status, err := sc.readBody(w, r, bodyLimit(s.opts.MaxBatchRows))
	if err != nil {
		fail(status, err)
		return
	}
	proba, status, err := sc.decode(sc.buf, s.opts.MaxBatchRows)
	if err != nil {
		fail(status, err)
		return
	}
	// Single-row requests coalesce with concurrent ones into a shared
	// blocked scoring call (see batcher.go); multi-row requests are
	// already batches and score directly, as does everything when the
	// coalescer declines (batching off, shutdown drain, or no concurrent
	// request worth waiting for).
	var margins []float64
	batched := false
	if h.batcher != nil && len(sc.feats) == 1 {
		margins, batched = h.batcher.enqueue(sc.feats[0], sc.vals[0])
	}
	if !batched {
		margins = h.pred.PredictRows(sc.feats, sc.vals)
	}
	var probs []float64
	if proba {
		probs = h.pred.Probabilities(margins)
	}

	// The body is decoded, so its buffer takes the response. It is encoded
	// whole before the status line goes out: a score JSON cannot carry is a
	// 500, not a 200 cut short.
	sc.buf, err = appendPredictResponse(sc.buf[:0], h.respHead, h.pred.NumClass(), margins, probs)
	if err != nil {
		fail(http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(sc.buf)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.buf) // a client that hung up is nobody's error
	h.metrics.observe(time.Since(start), len(sc.feats), false)
}

// SwapRequest is the admin POST /v1/models/{name} body: the encoded-model
// file to load.
type SwapRequest struct {
	Path string `json:"path"`
}

func (s *Server) handleAdminSwap(w http.ResponseWriter, r *http.Request) {
	if !s.opts.EnableAdmin {
		writeError(w, http.StatusForbidden, "admin endpoints disabled (start with admin enabled)")
		return
	}
	name := r.PathValue("name")
	var req SwapRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: "+err.Error())
		return
	}
	if req.Path == "" {
		writeError(w, http.StatusBadRequest, "empty path")
		return
	}
	data, err := os.ReadFile(req.Path)
	if err != nil {
		writeError(w, http.StatusBadRequest, "read model: "+err.Error())
		return
	}
	model, err := gbdt.DecodeModel(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decode model: "+err.Error())
		return
	}
	// Score a probe row before the swap becomes visible: a model that
	// decodes but cannot produce finite scores must never replace a
	// serving version.
	if err := probeModel(model); err != nil {
		writeError(w, http.StatusBadRequest, "model failed probe scoring: "+err.Error())
		return
	}
	st, prior, err := s.reg.Swap(name, req.Path, model)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if prior != nil {
		s.opts.Logger.Printf("serve: hot-swapped model %q v%d -> v%d (%d trees from %s; in-flight requests finish on v%d)",
			name, prior.Version, st.Version, st.NumTrees, st.Source, prior.Version)
	} else {
		s.opts.Logger.Printf("serve: loaded model %q v%d (%d trees from %s)", name, st.Version, st.NumTrees, st.Source)
	}
	writeJSON(w, http.StatusOK, st)
}

// probeModel scores one empty sparse row (every feature missing — a row
// any model must route via its default directions) through the model's
// compiled engine and rejects panics and non-finite outputs. It is the
// last line of defense behind DecodeForest's structural validation: a
// model can be structurally sound yet carry weights that overflow to
// Inf/NaN the moment they are summed.
func probeModel(m *gbdt.Model) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic scoring probe row: %v", r)
		}
	}()
	margins := m.PredictRow(nil, nil)
	if len(margins) == 0 {
		return fmt.Errorf("no scores for probe row")
	}
	for k, v := range margins {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("non-finite score %v for class %d", v, k)
		}
	}
	return nil
}

func (s *Server) handleAdminDelete(w http.ResponseWriter, r *http.Request) {
	if !s.opts.EnableAdmin {
		writeError(w, http.StatusForbidden, "admin endpoints disabled (start with admin enabled)")
		return
	}
	name := r.PathValue("name")
	if name == DefaultModel {
		writeError(w, http.StatusConflict, "cannot delete the default model")
		return
	}
	if err := s.reg.Delete(name); err != nil {
		writeError(w, http.StatusNotFound, err.Error())
		return
	}
	s.opts.Logger.Printf("serve: deleted model %q (in-flight requests finish on their version)", name)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": name})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
