// Multi-model registry: many named, versioned models behind one atomic
// pointer, so prediction handlers resolve a model without taking a lock
// and hot-swaps never stall traffic.
//
// The registry publishes an immutable map[name]*handle through an
// atomic.Pointer. Readers (predict requests) load the pointer once,
// resolve their handle, and keep using that handle for the whole request
// — an in-flight request therefore finishes on the exact model version it
// started with, even if a swap lands mid-request. Writers (Load, Swap,
// Delete) serialize on a mutex, copy the map, and publish the new one;
// the per-name metrics and admission limiter are carried across swaps so
// accounting and MaxInFlight are properties of the served name, not of
// one version.
package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vero/gbdt"
)

// handle is one immutable (name, version) binding of a served model. The
// metrics and inflight fields are shared across versions of the name.
type handle struct {
	name       string
	version    int
	source     string
	loadedAt   time.Time
	pred       *gbdt.Predictor
	numFeature int
	inflight   chan struct{}
	metrics    *modelMetrics
	// batcher, when non-nil, coalesces this version's single-row requests.
	// It is per-version (unlike metrics/inflight): rows it holds are scored
	// by exactly this predictor, so hot-swaps never mix versions.
	batcher *batcher
	// respHead is every predict response of this version up to its scores:
	// {"model":…,"version":…,"num_class":…,"scores":
	respHead []byte
}

// Registry holds the served models. The zero value is not usable; build
// one through New or NewMulti (or newRegistry for embedding).
type Registry struct {
	mu     sync.Mutex // serializes writers; readers never take it
	models atomic.Pointer[map[string]*handle]
	opts   Options
}

func newRegistry(opts Options) *Registry {
	r := &Registry{opts: opts}
	empty := map[string]*handle{}
	r.models.Store(&empty)
	return r
}

// get resolves a model name lock-free. Callers hold the returned handle
// for the whole request so the served version cannot change under them.
func (r *Registry) get(name string) (*handle, bool) {
	h, ok := (*r.models.Load())[name]
	return h, ok
}

// Names returns the registered model names, sorted.
func (r *Registry) Names() []string {
	m := *r.models.Load()
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ModelStatus describes one registered model version.
type ModelStatus struct {
	Name       string    `json:"name"`
	Version    int       `json:"version"`
	Source     string    `json:"source"`
	LoadedAt   time.Time `json:"loaded_at"`
	NumTrees   int       `json:"num_trees"`
	NumClass   int       `json:"num_class"`
	NumFeature int       `json:"num_feature"`
	Objective  string    `json:"objective"`
}

func (h *handle) status() ModelStatus {
	return ModelStatus{
		Name:       h.name,
		Version:    h.version,
		Source:     h.source,
		LoadedAt:   h.loadedAt,
		NumTrees:   h.pred.NumTrees(),
		NumClass:   h.pred.NumClass(),
		NumFeature: h.numFeature,
		Objective:  h.pred.Objective(),
	}
}

// Status returns the status of one registered model.
func (r *Registry) Status(name string) (ModelStatus, bool) {
	h, ok := r.get(name)
	if !ok {
		return ModelStatus{}, false
	}
	return h.status(), true
}

// List returns the status of every registered model, sorted by name.
func (r *Registry) List() []ModelStatus {
	m := *r.models.Load()
	out := make([]ModelStatus, 0, len(m))
	for _, h := range m {
		out = append(out, h.status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// compile builds a fresh handle for model, reusing prior's shared
// per-name state when swapping.
func (r *Registry) compile(name, source string, model *gbdt.Model, prior *handle) (*handle, error) {
	pred, err := gbdt.NewPredictor(model, gbdt.PredictorOptions{
		Workers:   r.opts.Workers,
		BlockRows: r.opts.BlockRows,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", name, err)
	}
	h := &handle{
		name:       name,
		version:    1,
		source:     source,
		loadedAt:   time.Now(),
		pred:       pred,
		numFeature: model.Forest().NumFeature,
	}
	if prior != nil {
		h.version = prior.version + 1
		h.inflight = prior.inflight
		h.metrics = prior.metrics
	} else {
		h.inflight = make(chan struct{}, r.opts.MaxInFlight)
		h.metrics = &modelMetrics{}
	}
	h.respHead = responseHead(name, h.version, pred.NumClass())
	if cfg := r.opts.batchConfig(name); cfg.MaxRows > 1 {
		h.batcher = newBatcher(pred, cfg, r.opts.clock, h.metrics)
	}
	return h, nil
}

// responseHead is a predict response up to its scores; only the scores
// differ between the responses of one model version. encoding/json spells
// the name, as it did when it wrote whole responses (HTML-safe escapes
// included).
func responseHead(name string, version, numClass int) []byte {
	quoted, _ := json.Marshal(name) // a string always marshals
	return fmt.Appendf(nil, `{"model":%s,"version":%d,"num_class":%d,"scores":`, quoted, version, numClass)
}

// publish installs mutate's result as the new model map. Callers must not
// hold r.mu.
func (r *Registry) publish(mutate func(next map[string]*handle) error) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := *r.models.Load()
	next := make(map[string]*handle, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	if err := mutate(next); err != nil {
		return err
	}
	r.models.Store(&next)
	return nil
}

// Load registers a new model under name. It fails if the name is already
// taken — use Swap to replace a live model.
func (r *Registry) Load(name, source string, model *gbdt.Model) (ModelStatus, error) {
	var st ModelStatus
	err := r.publish(func(next map[string]*handle) error {
		if _, exists := next[name]; exists {
			return fmt.Errorf("serve: model %q already registered", name)
		}
		h, err := r.compile(name, source, model, nil)
		if err != nil {
			return err
		}
		next[name] = h
		st = h.status()
		return nil
	})
	return st, err
}

// Swap atomically replaces (or first registers) the model served under
// name, bumping its version. Requests already in flight finish on the
// version they resolved; new requests see the new version immediately.
// The name's request metrics and MaxInFlight limiter carry over. The
// second return is the replaced version's status, nil when the swap
// registered a fresh name — read inside the swap's critical section, so
// it is the exact predecessor even under concurrent swaps.
func (r *Registry) Swap(name, source string, model *gbdt.Model) (ModelStatus, *ModelStatus, error) {
	var st ModelStatus
	var prior *ModelStatus
	var outgoing *handle
	err := r.publish(func(next map[string]*handle) error {
		old := next[name]
		h, err := r.compile(name, source, model, old)
		if err != nil {
			return err
		}
		if old != nil {
			p := old.status()
			prior = &p
			outgoing = old
		}
		next[name] = h
		st = h.status()
		return nil
	})
	// Drain the outgoing version's coalescing queue now rather than
	// letting it wait out its deadline: the queued rows score on the old
	// predictor and answer as the old version.
	if err == nil && outgoing != nil && outgoing.batcher != nil {
		outgoing.batcher.Close()
	}
	return st, prior, err
}

// Metrics returns every model's accounting snapshot, sorted by name.
func (r *Registry) Metrics() []MetricsSnapshot {
	m := *r.models.Load()
	out := make([]MetricsSnapshot, 0, len(m))
	for _, h := range m {
		out = append(out, h.metrics.snapshot(h.name, h.version, h.batcher != nil))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Model < out[j].Model })
	return out
}

// Delete unregisters a model. In-flight requests holding its handle
// finish normally (its coalescing queue is drained immediately); new
// requests get 404.
func (r *Registry) Delete(name string) error {
	var gone *handle
	err := r.publish(func(next map[string]*handle) error {
		h, ok := next[name]
		if !ok {
			return fmt.Errorf("serve: model %q not registered", name)
		}
		gone = h
		delete(next, name)
		return nil
	})
	if err == nil && gone.batcher != nil {
		gone.batcher.Close()
	}
	return err
}

// Close drains every model's pending micro-batches: queued rows are
// scored and answered, later single-row requests score inline. Call it
// when shutting the HTTP server down so no request is dropped.
func (r *Registry) Close() {
	for _, h := range *r.models.Load() {
		if h.batcher != nil {
			h.batcher.Close()
		}
	}
}
