package faros_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"faros"
	"faros/internal/pipeline"
	"faros/internal/samples"
)

// specHashes hashes every spec of a namespace snapshot.
func specHashes(t *testing.T, specs map[string]faros.Spec) map[string]string {
	t.Helper()
	out := make(map[string]string, len(specs))
	for name, spec := range specs {
		h, err := samples.SpecHash(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = h
	}
	return out
}

// TestBuiltinSpecsSharedReadOnly pins the contract that lets the built-in
// namespace be assembled once and shared: every scenario, submitted by
// name several times at once through farosd's handler and resolver, runs
// from specs whose slices alias the registry's, so a run that wrote
// through them would change a later spec hash or a later repeat's
// findings. Run it under -race to also catch concurrent writes.
func TestBuiltinSpecsSharedReadOnly(t *testing.T) {
	repeats := 3
	if testing.Short() {
		repeats = 2
	}
	names := faros.ScenarioNames()
	before := specHashes(t, faros.Scenarios())

	p, err := pipeline.New(pipeline.Config{Workers: 4, QueueDepth: len(names) * repeats})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	srv := httptest.NewServer(pipeline.NewHandler(p, pipeline.ServerConfig{
		Resolve: func(name string) (samples.Spec, bool) {
			spec, ok := faros.Scenarios()[name]
			return spec, ok
		},
		Names: faros.ScenarioNames,
	}))
	t.Cleanup(srv.Close)

	// Name-major order puts a scenario's repeats next to each other in
	// the feed, so several clients run the same shared spec at once.
	type task struct {
		name   string
		repeat int
	}
	tasks := make(chan task)
	go func() {
		defer close(tasks)
		for _, n := range names {
			for r := 0; r < repeats; r++ {
				tasks <- task{n, r}
			}
		}
	}()
	var mu sync.Mutex
	got := make(map[string][][]byte, len(names))
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for tk := range tasks {
				body := fmt.Sprintf(`{"scenario": %q, "wait": true, "no_cache": true}`, tk.name)
				resp, err := http.Post(srv.URL+"/analyze", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					continue
				}
				var view pipeline.JobView
				err = json.NewDecoder(resp.Body).Decode(&view)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || view.State != pipeline.StateDone || view.Result == nil {
					t.Errorf("%s #%d: status %d, state %q, error %q, decode %v",
						tk.name, tk.repeat, resp.StatusCode, view.State, view.Error, err)
					continue
				}
				findings, err := json.Marshal(view.Result.Findings)
				if err != nil {
					t.Error(err)
					continue
				}
				mu.Lock()
				got[tk.name] = append(got[tk.name], findings)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	for _, n := range names {
		runs := got[n]
		if len(runs) != repeats {
			t.Errorf("%s: %d of %d repeats settled", n, len(runs), repeats)
			continue
		}
		for r := 1; r < repeats; r++ {
			if string(runs[r]) != string(runs[0]) {
				t.Errorf("%s: repeat %d findings differ:\n%s\nvs\n%s", n, r, runs[r], runs[0])
			}
		}
	}
	after := specHashes(t, faros.Scenarios())
	for _, n := range names {
		if after[n] != before[n] {
			t.Errorf("%s: spec hash %s before the runs, %s after", n, before[n], after[n])
		}
	}

	// Each call hands out its own map.
	m := faros.Scenarios()
	delete(m, names[0])
	if _, ok := faros.Scenarios()[names[0]]; !ok {
		t.Errorf("deleting %q from one Scenarios() result removed it from the next", names[0])
	}
	ns := faros.ScenarioNames()
	ns[0] = ""
	if faros.ScenarioNames()[0] != names[0] {
		t.Error("writing one ScenarioNames() result changed the next")
	}
}

// TestNamedLookupAllocations guards the named-submission path against a
// return to per-call corpus assembly, which allocated every program image
// of all 133 specs (megabytes) for each lookup. A shallow copy of the
// namespace allocates at most one slot per entry plus the map's tables.
func TestNamedLookupAllocations(t *testing.T) {
	names := faros.ScenarioNames()
	var ok bool
	lookup := testing.AllocsPerRun(20, func() {
		_, ok = faros.Scenarios()["reflective_dll_inject"]
	})
	if !ok {
		t.Fatal("reflective_dll_inject missing")
	}
	if limit := float64(len(names) + 32); lookup > limit {
		t.Errorf("named lookup allocates %.0f times, want at most %.0f", lookup, limit)
	}
	if n := testing.AllocsPerRun(20, func() { _ = faros.ScenarioNames() }); n > 1 {
		t.Errorf("ScenarioNames allocates %.0f times, want at most 1", n)
	}
}
