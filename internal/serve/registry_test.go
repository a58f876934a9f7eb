package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vero/gbdt"
)

// constModel builds a single-leaf model that predicts the constant w for
// every row — the cheapest model whose identity is observable from its
// predictions, which is what the swap tests key on.
func constModel(t testing.TB, w float64) *gbdt.Model {
	t.Helper()
	data := fmt.Sprintf(`{"num_class":1,"learning_rate":1,"init_score":[0],
		"objective":"square","num_feature":4,
		"trees":[{"num_class":1,"nodes":[
			{"feature":-1,"left":-1,"right":-1,"weights":[%g]}]}]}`, w)
	m, err := gbdt.DecodeModel([]byte(data))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRegistryLoadSwapDelete(t *testing.T) {
	srv, err := NewMulti([]ModelSpec{
		{Name: "a", Source: "a-v1", Model: constModel(t, 1)},
		{Name: "b", Source: "b-v1", Model: constModel(t, 2)},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := srv.Registry()

	if _, err := reg.Load("a", "dup", constModel(t, 9)); err == nil {
		t.Fatal("Load over a live name succeeded; want error")
	}
	st, prior, err := reg.Swap("a", "a-v2", constModel(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 2 || st.Source != "a-v2" {
		t.Fatalf("swap status %+v, want version 2 source a-v2", st)
	}
	if prior == nil || prior.Version != 1 || prior.Source != "a-v1" {
		t.Fatalf("swap prior %+v, want the replaced v1", prior)
	}
	if names := reg.Names(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names %v", names)
	}
	// Swap of an unregistered name registers it at version 1, no prior.
	st, prior2, err := reg.Swap("c", "c-v1", constModel(t, 4))
	if err != nil || st.Version != 1 {
		t.Fatalf("swap-register: %v %+v", err, st)
	}
	if prior2 != nil {
		t.Fatalf("swap-register returned prior %+v, want nil", prior2)
	}
	if err := reg.Delete("c"); err != nil {
		t.Fatal(err)
	}
	if err := reg.Delete("c"); err == nil {
		t.Fatal("double delete succeeded")
	}
	list := reg.List()
	if len(list) != 2 || list[0].Name != "a" || list[0].Version != 2 || list[1].Name != "b" {
		t.Fatalf("list %+v", list)
	}
}

// TestRegistrySwapNeverMixesVersions is the hot-swap consistency test,
// run under -race in CI: one goroutine hammers Swap while readers predict
// continuously through the HTTP handler. Every constant model is built so
// its prediction equals its registry version, so a response whose score
// differs from its version proves a request observed two versions.
func TestRegistrySwapNeverMixesVersions(t *testing.T) {
	srv, err := New(constModel(t, 1), "v1", Options{MaxInFlight: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const swaps = 150
	var done atomic.Bool
	go func() {
		defer done.Store(true)
		for v := 2; v <= swaps; v++ {
			if _, _, err := srv.Registry().Swap(DefaultModel, fmt.Sprintf("v%d", v), constModel(t, float64(v))); err != nil {
				t.Errorf("swap %d: %v", v, err)
				return
			}
		}
	}()

	body := []byte(`{"rows":[{"indices":[0],"values":[1]}]}`)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				resp, err := http.Post(ts.URL+"/v1/models/default/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				var out PredictResponse
				err = json.NewDecoder(resp.Body).Decode(&out)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("predict returned %d", resp.StatusCode)
					return
				}
				if out.Model != DefaultModel || out.Version < 1 || out.Version > swaps {
					t.Errorf("response names model %q v%d", out.Model, out.Version)
					return
				}
				if got := out.Scores[0][0]; got != float64(out.Version) {
					t.Errorf("version %d scored %v: response mixed model versions", out.Version, got)
					return
				}
			}
		}()
	}
	wg.Wait()

	// After the dust settles the final version serves everywhere.
	st, ok := srv.Registry().Status(DefaultModel)
	if !ok || st.Version != swaps {
		t.Fatalf("final status %+v, want version %d", st, swaps)
	}
}

// TestRegistryDirectSwapRace exercises the registry API itself (no HTTP):
// readers resolve a handle and predict on it while swaps land.
func TestRegistryDirectSwapRace(t *testing.T) {
	srv, err := New(constModel(t, 1), "v1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := srv.Registry()
	var done atomic.Bool
	go func() {
		defer done.Store(true)
		for v := 2; v <= 200; v++ {
			if _, _, err := reg.Swap(DefaultModel, "src", constModel(t, float64(v))); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				h, ok := reg.get(DefaultModel)
				if !ok {
					t.Error("default model vanished")
					return
				}
				got := h.pred.PredictRow([]uint32{0}, []float32{1})[0]
				if got != float64(h.version) {
					t.Errorf("handle v%d predicted %v", h.version, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestMetricz(t *testing.T) {
	srv, err := New(constModel(t, 5), "m", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Two good requests (3 rows total), one bad.
	for _, body := range []string{
		`{"rows":[{"indices":[0],"values":[1]},{"indices":[],"values":[]}]}`,
		`{"dense":[[0,1,0,0]]}`,
		`{"rows":[{"indices":[0,0],"values":[1,2]}]}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/models/default/predict", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var mr MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&mr); err != nil {
		t.Fatal(err)
	}
	if len(mr.Models) != 1 {
		t.Fatalf("%d models in /metricz, want 1", len(mr.Models))
	}
	m := mr.Models[0]
	if m.Model != DefaultModel || m.Requests != 3 || m.Errors != 1 || m.Rows != 3 || m.InFlight != 0 {
		t.Fatalf("metrics %+v", m)
	}
	if m.LatencyMs.Count != 2 || m.LatencyMs.P50 <= 0 || m.LatencyMs.P99 < m.LatencyMs.P50 {
		t.Fatalf("latency %+v", m.LatencyMs)
	}
}

// TestMetricsCarryAcrossSwap pins that accounting belongs to the served
// name, not one version.
func TestMetricsCarryAcrossSwap(t *testing.T) {
	srv, err := New(constModel(t, 1), "m", Options{})
	if err != nil {
		t.Fatal(err)
	}
	h, _ := srv.Registry().get(DefaultModel)
	h.metrics.observe(time.Millisecond, 4, false)
	if _, _, err := srv.Registry().Swap(DefaultModel, "m2", constModel(t, 2)); err != nil {
		t.Fatal(err)
	}
	h2, _ := srv.Registry().get(DefaultModel)
	snap := h2.metrics.snapshot(h2.name, h2.version, false)
	if snap.Version != 2 || snap.Requests != 1 || snap.Rows != 4 {
		t.Fatalf("post-swap snapshot %+v, want carried-over requests", snap)
	}
}

func TestAdminEndpoints(t *testing.T) {
	dir := t.TempDir()
	writeModel := func(name string, w float64) string {
		t.Helper()
		data, err := constModel(t, w).Encode()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	srv, err := New(constModel(t, 1), "seed", Options{EnableAdmin: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(url, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.Bytes()
	}

	// Hot-swap the default model from a file.
	path2 := writeModel("m2.json", 42)
	code, body := post(ts.URL+"/v1/models/default", fmt.Sprintf(`{"path":%q}`, path2))
	if code != http.StatusOK {
		t.Fatalf("swap returned %d: %s", code, body)
	}
	var st ModelStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Version != 2 || st.Source != path2 {
		t.Fatalf("swap status %+v", st)
	}
	code, body = post(ts.URL+"/v1/models/default/predict", `{"rows":[{"indices":[],"values":[]}]}`)
	var pr PredictResponse
	if code != http.StatusOK || json.Unmarshal(body, &pr) != nil || pr.Scores[0][0] != 42 || pr.Version != 2 {
		t.Fatalf("post-swap predict %d %s", code, body)
	}

	// Load a second model, predict against it by name, then delete it.
	path3 := writeModel("m3.json", 7)
	if code, body = post(ts.URL+"/v1/models/shadow", fmt.Sprintf(`{"path":%q}`, path3)); code != http.StatusOK {
		t.Fatalf("load shadow returned %d: %s", code, body)
	}
	code, body = post(ts.URL+"/v1/models/shadow/predict", `{"dense":[[1,2,0,0]]}`)
	if code != http.StatusOK || json.Unmarshal(body, &pr) != nil || pr.Scores[0][0] != 7 || pr.Model != "shadow" {
		t.Fatalf("shadow predict %d %s", code, body)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/shadow", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete returned %d", resp.StatusCode)
	}
	if code, _ = post(ts.URL+"/v1/models/shadow/predict", `{"dense":[[1]]}`); code != http.StatusNotFound {
		t.Fatalf("deleted model predict returned %d, want 404", code)
	}
	// The default model cannot be deleted.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/default", nil)
	if resp, err = http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("delete default returned %d, want 409", resp.StatusCode)
	}
	// Bad paths fail cleanly.
	if code, _ = post(ts.URL+"/v1/models/default", `{"path":"/nonexistent/nope.json"}`); code != http.StatusBadRequest {
		t.Fatalf("bad path returned %d", code)
	}
	if code, _ = post(ts.URL+"/v1/models/default", `{"path":""}`); code != http.StatusBadRequest {
		t.Fatalf("empty path returned %d", code)
	}
}

func TestAdminDisabledByDefault(t *testing.T) {
	srv, err := New(constModel(t, 1), "seed", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/models/default", "application/json",
		bytes.NewReader([]byte(`{"path":"x"}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("admin swap with admin disabled returned %d, want 403", resp.StatusCode)
	}
}

func TestModelsListEndpoint(t *testing.T) {
	srv, err := NewMulti([]ModelSpec{
		{Name: "main", Source: "p1", Model: constModel(t, 1)},
		{Name: "canary", Source: "p2", Model: constModel(t, 2)},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list ModelList
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != 2 || list.Models[0].Name != "canary" || list.Models[1].Name != "main" {
		t.Fatalf("models %+v", list.Models)
	}

	// Named metadata route.
	resp, err = http.Get(ts.URL + "/v1/models/main")
	if err != nil {
		t.Fatal(err)
	}
	var info ModelStatus
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || info.Name != "main" || info.NumTrees != 1 {
		t.Fatalf("/v1/models/main: %+v (%v)", info, err)
	}
}
