package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"faros/internal/core"
	"faros/internal/guest"
	"faros/internal/samples"
	"faros/internal/scenario"
)

// stubResult fabricates a minimal scenario result for injected runners.
func stubResult(name string) *scenario.Result {
	res := &scenario.Result{Name: name}
	res.Summary = guest.RunSummary{Instructions: 1000, Reason: "stub"}
	return res
}

// blockingRunner returns a runner that parks until released (or its
// context ends), so tests can hold jobs in the running state.
func blockingRunner(release <-chan struct{}) Runner {
	return func(ctx context.Context, req Request) (*scenario.Result, error) {
		select {
		case <-release:
			return stubResult(req.Spec.Name), nil
		case <-ctx.Done():
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return nil, &scenario.DeadlineError{Scenario: req.Spec.Name, Instructions: 42}
			}
			return nil, &scenario.CancelError{Scenario: req.Spec.Name, Instructions: 42}
		}
	}
}

// mustNew builds a pool from a config the test knows is valid.
func mustNew(tb testing.TB, cfg Config) *Pool {
	tb.Helper()
	p, err := New(cfg)
	if err != nil {
		tb.Fatalf("New: %v", err)
	}
	return p
}

func waitState(t *testing.T, p *Pool, job *Job, want State) JobView {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	view, err := p.Wait(ctx, job)
	if err != nil {
		t.Fatalf("wait %s: %v", job.ID, err)
	}
	if view.State != want {
		t.Fatalf("job %s state = %s, want %s (err %q)", job.ID, view.State, want, view.Error)
	}
	return view
}

// TestPoolCacheAndDedup: a completed job's result serves identical
// re-submissions from the cache; concurrent identical submissions
// coalesce onto one in-flight job.
func TestPoolCacheAndDedup(t *testing.T) {
	release := make(chan struct{})
	p := mustNew(t, Config{Workers: 2, Runner: blockingRunner(release)})
	defer p.Close()

	spec := samples.Spinner(1000)
	j1, err := p.Submit(Request{Spec: spec, Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	if j1.Hash == "" {
		t.Fatal("cacheable spec got empty hash")
	}

	// Identical submission while j1 is in flight coalesces onto its run,
	// but gets its own waiter handle.
	j2, err := p.Submit(Request{Spec: spec, Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	if j2.ID == j1.ID {
		t.Errorf("coalesced waiter shares handle %s (want its own)", j2.ID)
	}
	if j2.Hash != j1.Hash {
		t.Errorf("coalesced waiter hash %s != %s", j2.Hash, j1.Hash)
	}
	if st := p.Stats(); st.WaitersCoalesced != 1 {
		t.Errorf("waiters_coalesced gauge = %d, want 1", st.WaitersCoalesced)
	}

	// Same spec under a different mode or config is different work.
	j3, err := p.Submit(Request{Spec: spec, Mode: ModeDetect})
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID == j1.ID {
		t.Error("different mode coalesced onto the same job")
	}

	close(release)
	waitState(t, p, j1, StateDone)
	view2 := waitState(t, p, j2, StateDone)
	if view2.Result == nil || view2.Result.Scenario != spec.Name {
		t.Errorf("coalesced waiter result = %+v", view2.Result)
	}
	waitState(t, p, j3, StateDone)

	// Re-submission after completion is a cache hit.
	j4, err := p.Submit(Request{Spec: spec, Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	view := waitState(t, p, j4, StateDone)
	if !view.CacheHit {
		t.Error("re-submission was not served from cache")
	}
	if view.Result == nil || view.Result.Scenario != spec.Name {
		t.Errorf("cached result = %+v", view.Result)
	}

	st := p.Stats()
	if st.CacheHits != 1 || st.JobsCoalesced != 1 {
		t.Errorf("stats: hits=%d coalesced=%d, want 1/1", st.CacheHits, st.JobsCoalesced)
	}
	if st.CacheMisses != 2 {
		t.Errorf("stats: misses=%d, want 2 (two distinct cacheable jobs)", st.CacheMisses)
	}
}

// TestPoolNoCache: NoCache requests never hit or populate the cache.
func TestPoolNoCache(t *testing.T) {
	release := make(chan struct{})
	close(release)
	p := mustNew(t, Config{Workers: 1, Runner: blockingRunner(release)})
	defer p.Close()

	spec := samples.Spinner(1000)
	j1, _ := p.Submit(Request{Spec: spec, Mode: ModeLive, NoCache: true})
	waitState(t, p, j1, StateDone)
	j2, _ := p.Submit(Request{Spec: spec, Mode: ModeLive, NoCache: true})
	view := waitState(t, p, j2, StateDone)
	if view.CacheHit {
		t.Error("NoCache submission served from cache")
	}
	if st := p.Stats(); st.CacheHits != 0 || st.CacheMisses != 0 || st.CacheEntries != 0 {
		t.Errorf("stats = %+v, want no cache activity", st)
	}
}

// TestPoolQueueFull: submissions beyond QueueDepth fail fast with
// ErrQueueFull instead of blocking the caller.
func TestPoolQueueFull(t *testing.T) {
	release := make(chan struct{})
	p := mustNew(t, Config{Workers: 1, QueueDepth: 1, Runner: blockingRunner(release)})
	defer p.Close()

	// Distinct specs so nothing coalesces. First occupies the worker,
	// second sits in the queue; the worker may not have popped the first
	// yet, so allow one extra before demanding failure.
	specs := []samples.Spec{samples.Spinner(1), samples.Spinner(2), samples.Spinner(3), samples.Spinner(4)}
	for i := range specs {
		specs[i].Name = specs[i].Name + string(rune('a'+i))
	}
	var accepted, rejected uint64
	for _, spec := range specs {
		if _, err := p.Submit(Request{Spec: spec, Mode: ModeLive}); errors.Is(err, ErrQueueFull) {
			rejected++
		} else if err == nil {
			accepted++
		}
	}
	if rejected == 0 {
		t.Error("queue never reported full")
	}
	// A rejected submission is back-pressure, not a cache miss: the miss
	// counter must track accepted cacheable jobs only, and rejections land
	// on the queue-full counter.
	st := p.Stats()
	if st.QueueFull != rejected {
		t.Errorf("queue_full counter = %d, want %d", st.QueueFull, rejected)
	}
	if st.CacheMisses != accepted {
		t.Errorf("cache misses = %d, want %d (accepted jobs only)", st.CacheMisses, accepted)
	}
	if st.JobsSubmitted != accepted {
		t.Errorf("submitted counter = %d, want %d", st.JobsSubmitted, accepted)
	}
	close(release)
}

// TestPoolCancel: cancelling a running job interrupts it via its context;
// cancelling a queued job drops it before it runs.
func TestPoolCancel(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	p := mustNew(t, Config{Workers: 1, Runner: blockingRunner(release)})
	defer p.Close()

	running, _ := p.Submit(Request{Spec: samples.Spinner(1000), Mode: ModeLive})
	queuedSpec := samples.Spinner(1000)
	queuedSpec.Name = "spinner_b"
	queued, _ := p.Submit(Request{Spec: queuedSpec, Mode: ModeLive})

	// Wait for the first job to actually be running before cancelling.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if view, _ := p.View(running.ID); view.State == StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if !p.Cancel(running.ID) || !p.Cancel(queued.ID) {
		t.Fatal("cancel returned false for a known job")
	}
	waitState(t, p, running, StateCanceled)
	waitState(t, p, queued, StateCanceled)
	if st := p.Stats(); st.JobsCanceled != 2 {
		t.Errorf("canceled counter = %d, want 2", st.JobsCanceled)
	}
}

// TestPoolDeadlineRealGuest: a wedged guest (infinite loop, effectively
// unbounded budget) is cancelled by its per-job deadline through the
// kernel's preemption check, while other jobs on the pool keep completing.
func TestPoolDeadlineRealGuest(t *testing.T) {
	p := mustNew(t, Config{Workers: 4})
	defer p.Close()

	wedged, err := p.Submit(Request{
		Spec:    samples.Spinner(1 << 40),
		Mode:    ModeLive,
		Timeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Healthy jobs sharing the pool must not be stalled by the wedged one.
	healthy := make([]*Job, 0, 3)
	for _, spec := range []samples.Spec{
		samples.Figure1Workload().Spec,
		samples.Figure2Workload().Spec,
		samples.ReflectiveDLLInject(),
	} {
		job, err := p.Submit(Request{Spec: spec, Mode: ModeLive})
		if err != nil {
			t.Fatal(err)
		}
		healthy = append(healthy, job)
	}
	for _, job := range healthy {
		waitState(t, p, job, StateDone)
	}
	view := waitState(t, p, wedged, StateFailed)
	if !strings.Contains(view.Error, "deadline exceeded") {
		t.Errorf("wedged job error = %q, want deadline exceeded", view.Error)
	}
	st := p.Stats()
	if st.JobsDeadline != 1 {
		t.Errorf("deadline counter = %d, want 1", st.JobsDeadline)
	}
	if st.JobsDone != 3 {
		t.Errorf("done counter = %d, want 3", st.JobsDone)
	}
}

// TestRunAllPreservesOrder: RunAll returns results positionally even
// though execution is concurrent and out of order.
func TestRunAllPreservesOrder(t *testing.T) {
	p := mustNew(t, Config{Workers: 4})
	defer p.Close()

	specs := []samples.Spec{
		samples.Figure1Workload().Spec,
		samples.Figure2Workload().Spec,
		samples.ReflectiveDLLInject(),
	}
	reqs := make([]Request, len(specs))
	for i, spec := range specs {
		reqs[i] = Request{Spec: spec, Mode: ModeLive}
	}
	results, err := p.RunAll(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("results[%d] is nil", i)
		}
		if res.Scenario != specs[i].Name {
			t.Errorf("results[%d] = %s, want %s", i, res.Scenario, specs[i].Name)
		}
		if res.Raw == nil {
			t.Errorf("results[%d] missing raw scenario result", i)
		}
	}
	if !results[2].Flagged {
		t.Error("reflective injection not flagged through the pool")
	}
}

// TestPoolClose: Close drains, cancels running work, and rejects new
// submissions.
func TestPoolClose(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	p := mustNew(t, Config{Workers: 1, Runner: blockingRunner(release)})
	job, _ := p.Submit(Request{Spec: samples.Spinner(1000), Mode: ModeLive})
	go p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := p.Wait(ctx, job); err != nil {
		t.Fatalf("job never settled after Close: %v", err)
	}
	if _, err := p.Submit(Request{Spec: samples.Spinner(1), Mode: ModeLive}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: err = %v, want ErrClosed", err)
	}
}

// TestCacheEviction: the cache stays within CacheCap, evicting oldest
// entries first.
func TestCacheEviction(t *testing.T) {
	release := make(chan struct{})
	close(release)
	p := mustNew(t, Config{Workers: 1, CacheCap: 2, Runner: blockingRunner(release)})
	defer p.Close()

	var first *Job
	for i := 0; i < 3; i++ {
		spec := samples.Spinner(uint64(1000 + i))
		job, err := p.Submit(Request{Spec: spec, Mode: ModeLive})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = job
		}
		waitState(t, p, job, StateDone)
	}
	if st := p.Stats(); st.CacheEntries != 2 {
		t.Errorf("cache entries = %d, want 2", st.CacheEntries)
	}
	if _, ok := p.ResultByHash(first.Hash); ok {
		t.Error("oldest entry survived eviction")
	}
}

// TestTaintStatsAggregation: completing a real FAROS job folds the taint
// engine's fast-path counters into the pool metrics and both renderings.
func TestTaintStatsAggregation(t *testing.T) {
	p := mustNew(t, Config{Workers: 1})
	defer p.Close()

	job, err := p.Submit(Request{Spec: samples.ReflectiveDLLInject(), Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, job, StateDone)

	st := p.Stats()
	ts := st.Taint
	if ts.Prepends == 0 || ts.ShadowWrites == 0 {
		t.Fatalf("taint counters not aggregated: %+v", ts)
	}
	if ts.PrependMemoHits > ts.Prepends || ts.UnionMemoHits > ts.Unions {
		t.Fatalf("memo hits exceed operations: %+v", ts)
	}
	if ts.TaintedPages == 0 {
		t.Fatalf("injection run should leave tainted pages: %+v", ts)
	}
	if bs := st.Block; bs.Built == 0 || bs.Hits == 0 {
		t.Fatalf("block counters not aggregated: %+v", bs)
	}
	// The /stats JSON "block" object carries exactly the five block
	// counters under their documented keys.
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Block map[string]json.RawMessage `json:"block"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var blockKeys []string
	for k := range doc.Block {
		blockKeys = append(blockKeys, k)
	}
	sort.Strings(blockKeys)
	if got, want := strings.Join(blockKeys, ","), "built,fused_ops,hits,invalidated,untainted_fast_blocks"; got != want {
		t.Errorf("/stats block keys = %s, want %s", got, want)
	}
	if !strings.Contains(st.String(), "taint:") {
		t.Errorf("String() missing taint line:\n%s", st.String())
	}
	if !strings.Contains(st.String(), "blocks:") {
		t.Errorf("String() missing blocks line:\n%s", st.String())
	}
	prom := st.Prometheus()
	for _, metric := range []string{
		"faros_taint_prepends_total",
		"faros_taint_prepend_memo_hits_total",
		"faros_taint_unions_total",
		"faros_taint_union_memo_hits_total",
		"faros_taint_shadow_writes_total",
		"faros_taint_fastpath_skips_total",
		"faros_taint_instr_prov_hits_total",
		"faros_taint_tainted_bytes_total",
		"faros_taint_tainted_pages_total",
		"faros_block_built_total",
		"faros_block_hits_total",
		"faros_block_invalidated_total",
		"faros_block_fused_ops_total",
		"faros_block_untainted_fast_blocks_total",
	} {
		if !strings.Contains(prom, metric) {
			t.Errorf("Prometheus() missing %s", metric)
		}
	}
}

// waitRunning polls until the job reports StateRunning.
func waitRunning(t *testing.T, p *Pool, job *Job) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if view, _ := p.View(job.ID); view.State == StateRunning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never started", job.ID)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheKeyDetectIgnoresConfig: ModeDetect always runs the paper's
// default policy, so identical detect requests must share a cache key no
// matter what (ignored) engine config they carry.
func TestCacheKeyDetectIgnoresConfig(t *testing.T) {
	release := make(chan struct{})
	close(release)
	p := mustNew(t, Config{Workers: 1, Runner: blockingRunner(release)})
	defer p.Close()

	spec := samples.Spinner(1000)
	j1, err := p.Submit(Request{Spec: spec, Mode: ModeDetect, Config: core.Config{ListCap: 7}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, j1, StateDone)
	j2, err := p.Submit(Request{Spec: spec, Mode: ModeDetect, Config: core.Config{StrictExecCheck: true}})
	if err != nil {
		t.Fatal(err)
	}
	view := waitState(t, p, j2, StateDone)
	if !view.CacheHit {
		t.Error("detect re-submission with a different (ignored) config missed the cache")
	}

	// Under ModeLive the config is live policy: different configs must
	// stay different work.
	j3, _ := p.Submit(Request{Spec: spec, Mode: ModeLive, Config: core.Config{ListCap: 7}})
	waitState(t, p, j3, StateDone)
	j4, _ := p.Submit(Request{Spec: spec, Mode: ModeLive, Config: core.Config{ListCap: 9}})
	if view := waitState(t, p, j4, StateDone); view.CacheHit {
		t.Error("live submissions with different configs shared a cache entry")
	}
}

// TestCoalescedCancelIsolation: cancelling one coalesced waiter settles
// only that handle; its peers keep waiting and still get the result.
func TestCoalescedCancelIsolation(t *testing.T) {
	release := make(chan struct{})
	p := mustNew(t, Config{Workers: 1, Runner: blockingRunner(release)})
	defer p.Close()

	spec := samples.Spinner(1000)
	j1, err := p.Submit(Request{Spec: spec, Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, p, j1)
	j2, _ := p.Submit(Request{Spec: spec, Mode: ModeLive})
	j3, _ := p.Submit(Request{Spec: spec, Mode: ModeLive})

	if !p.Cancel(j2.ID) {
		t.Fatal("cancel returned false for an active waiter")
	}
	waitState(t, p, j2, StateCanceled)

	close(release)
	v1 := waitState(t, p, j1, StateDone)
	v3 := waitState(t, p, j3, StateDone)
	if v1.Result == nil || v3.Result == nil {
		t.Fatal("surviving waiters missing results")
	}
	st := p.Stats()
	if st.JobsCanceled != 1 || st.JobsDone != 2 {
		t.Errorf("canceled=%d done=%d, want 1/2", st.JobsCanceled, st.JobsDone)
	}
	if st.JobsCoalesced != 2 {
		t.Errorf("coalesced counter = %d, want 2", st.JobsCoalesced)
	}
}

// TestAllWaitersCancelAbortsRun: when the last waiter detaches, the
// underlying run's context is canceled; a later identical submission
// starts a fresh run instead of inheriting the doomed one.
func TestAllWaitersCancelAbortsRun(t *testing.T) {
	release := make(chan struct{})
	aborted := make(chan struct{})
	var once sync.Once
	runner := func(ctx context.Context, req Request) (*scenario.Result, error) {
		select {
		case <-release:
			return stubResult(req.Spec.Name), nil
		case <-ctx.Done():
			once.Do(func() { close(aborted) })
			return nil, &scenario.CancelError{Scenario: req.Spec.Name, Instructions: 42}
		}
	}
	p := mustNew(t, Config{Workers: 1, Runner: runner})
	defer p.Close()

	spec := samples.Spinner(1000)
	j1, err := p.Submit(Request{Spec: spec, Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, p, j1)
	j2, _ := p.Submit(Request{Spec: spec, Mode: ModeLive})

	p.Cancel(j1.ID)
	waitState(t, p, j1, StateCanceled)
	// One waiter left: the run must still be alive.
	select {
	case <-aborted:
		t.Fatal("run aborted while a waiter was still attached")
	case <-time.After(20 * time.Millisecond):
	}
	p.Cancel(j2.ID)
	waitState(t, p, j2, StateCanceled)
	select {
	case <-aborted:
	case <-time.After(5 * time.Second):
		t.Fatal("run not aborted after the last waiter detached")
	}

	// The doomed run settled without caching anything; a fresh identical
	// submission runs again and completes.
	close(release)
	j3, err := p.Submit(Request{Spec: spec, Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	view := waitState(t, p, j3, StateDone)
	if view.CacheHit {
		t.Error("post-cancel resubmission was served from cache")
	}
}

// TestQueuedCancelFreshResubmit: cancelling the only waiter of a
// still-queued run removes it from the dedup index immediately, so a new
// identical submission starts a fresh run; the doomed run never executes.
func TestQueuedCancelFreshResubmit(t *testing.T) {
	release := make(chan struct{})
	var runs atomic.Int64
	runner := func(ctx context.Context, req Request) (*scenario.Result, error) {
		if strings.HasPrefix(req.Spec.Name, "tracked") {
			runs.Add(1)
		}
		select {
		case <-release:
			return stubResult(req.Spec.Name), nil
		case <-ctx.Done():
			return nil, &scenario.CancelError{Scenario: req.Spec.Name, Instructions: 42}
		}
	}
	p := mustNew(t, Config{Workers: 1, Runner: runner})
	defer p.Close()

	blocker, err := p.Submit(Request{Spec: samples.Spinner(1000), Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, p, blocker)

	tracked := samples.Spinner(2000)
	tracked.Name = "tracked_spinner"
	queued, err := p.Submit(Request{Spec: tracked, Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Cancel(queued.ID) {
		t.Fatal("cancel returned false for a queued waiter")
	}
	waitState(t, p, queued, StateCanceled)

	// Resubmission while the doomed run still sits in the queue must not
	// coalesce onto it.
	fresh, err := p.Submit(Request{Spec: tracked, Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	view := waitState(t, p, fresh, StateDone)
	if view.CacheHit {
		t.Error("fresh resubmission reported a cache hit")
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("tracked spec ran %d times, want 1 (doomed run dropped, fresh run executed)", got)
	}
	if view, ok := p.View(queued.ID); !ok || view.State != StateCanceled {
		t.Errorf("canceled waiter view = %+v, %v", view, ok)
	}
}

// TestJobRetentionCount: terminal jobs stay addressable through the
// retention ring, bounded by JobRetention with oldest-first eviction.
func TestJobRetentionCount(t *testing.T) {
	release := make(chan struct{})
	close(release)
	p := mustNew(t, Config{Workers: 1, JobRetention: 2, Runner: blockingRunner(release)})
	defer p.Close()

	jobs := make([]*Job, 3)
	for i := range jobs {
		spec := samples.Spinner(uint64(1000 + i))
		spec.Name = fmt.Sprintf("ret_%d", i)
		job, err := p.Submit(Request{Spec: spec, Mode: ModeLive})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, p, job, StateDone)
		jobs[i] = job
	}
	if _, ok := p.View(jobs[0].ID); ok {
		t.Error("oldest terminal job survived retention eviction")
	}
	for _, job := range jobs[1:] {
		view, ok := p.View(job.ID)
		if !ok || view.State != StateDone {
			t.Errorf("retained job %s: view=%+v ok=%v", job.ID, view, ok)
		}
	}
	st := p.Stats()
	if st.JobsRetained != 2 {
		t.Errorf("jobs_retained gauge = %d, want 2", st.JobsRetained)
	}
	if st.JobsActive != 0 {
		t.Errorf("jobs_active gauge = %d, want 0 after all jobs settled", st.JobsActive)
	}
}

// TestJobRetentionAge: retained jobs expire by age; View answers 404
// (false) afterwards.
func TestJobRetentionAge(t *testing.T) {
	release := make(chan struct{})
	close(release)
	p := mustNew(t, Config{Workers: 1, JobRetentionAge: 50 * time.Millisecond, Runner: blockingRunner(release)})
	defer p.Close()

	job, err := p.Submit(Request{Spec: samples.Spinner(1000), Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, p, job, StateDone)
	if _, ok := p.View(job.ID); !ok {
		t.Fatal("terminal job not visible immediately after settling")
	}
	time.Sleep(150 * time.Millisecond)
	if view, ok := p.View(job.ID); ok {
		t.Errorf("age-expired job still visible: %+v", view)
	}
}

// TestDegradedCachePolicy: degraded results (recovered panic, divergence)
// are not cached by default — identical re-submissions re-run — and are
// cached only briefly under DegradedTTL.
func TestDegradedCachePolicy(t *testing.T) {
	degradedRunner := func(ctx context.Context, req Request) (*scenario.Result, error) {
		res := stubResult(req.Spec.Name)
		res.Err = errors.New("recovered plugin panic: boom")
		return res, nil
	}

	p := mustNew(t, Config{Workers: 1, Runner: degradedRunner})
	defer p.Close()
	spec := samples.Spinner(1000)
	j1, err := p.Submit(Request{Spec: spec, Mode: ModeLive})
	if err != nil {
		t.Fatal(err)
	}
	view := waitState(t, p, j1, StateDone)
	if view.Result == nil || view.Result.Degraded == "" {
		t.Fatalf("expected degraded result, got %+v", view.Result)
	}
	j2, _ := p.Submit(Request{Spec: spec, Mode: ModeLive})
	if view := waitState(t, p, j2, StateDone); view.CacheHit {
		t.Error("degraded result was served from cache")
	}
	st := p.Stats()
	if st.CacheSkippedDegraded != 2 {
		t.Errorf("cache_skipped_degraded = %d, want 2", st.CacheSkippedDegraded)
	}
	if st.CacheEntries != 0 {
		t.Errorf("cache holds %d entries, want 0", st.CacheEntries)
	}

	// With the knob on, degraded results are cached for the TTL only.
	p2 := mustNew(t, Config{Workers: 1, DegradedTTL: 50 * time.Millisecond, Runner: degradedRunner})
	defer p2.Close()
	k1, _ := p2.Submit(Request{Spec: spec, Mode: ModeLive})
	waitState(t, p2, k1, StateDone)
	k2, _ := p2.Submit(Request{Spec: spec, Mode: ModeLive})
	if view := waitState(t, p2, k2, StateDone); !view.CacheHit {
		t.Error("DegradedTTL>0: degraded result not served within the TTL")
	}
	time.Sleep(150 * time.Millisecond)
	k3, _ := p2.Submit(Request{Spec: spec, Mode: ModeLive})
	if view := waitState(t, p2, k3, StateDone); view.CacheHit {
		t.Error("degraded result outlived its TTL")
	}
	if st := p2.Stats(); st.CacheExpired == 0 {
		t.Error("cache_expired counter never incremented")
	}
}

// TestCacheTTL: clean results age out of the cache after CacheTTL.
func TestCacheTTL(t *testing.T) {
	release := make(chan struct{})
	close(release)
	p := mustNew(t, Config{Workers: 1, CacheTTL: 50 * time.Millisecond, Runner: blockingRunner(release)})
	defer p.Close()

	spec := samples.Spinner(1000)
	j1, _ := p.Submit(Request{Spec: spec, Mode: ModeLive})
	waitState(t, p, j1, StateDone)
	j2, _ := p.Submit(Request{Spec: spec, Mode: ModeLive})
	if view := waitState(t, p, j2, StateDone); !view.CacheHit {
		t.Error("fresh entry missed within its TTL")
	}
	time.Sleep(150 * time.Millisecond)
	j3, _ := p.Submit(Request{Spec: spec, Mode: ModeLive})
	if view := waitState(t, p, j3, StateDone); view.CacheHit {
		t.Error("entry served after its TTL")
	}
	if st := p.Stats(); st.CacheExpired != 1 {
		t.Errorf("cache_expired = %d, want 1", st.CacheExpired)
	}
}

// TestCacheLRU: under CacheLRU a lookup refreshes an entry's position, so
// the least-recently-used entry is evicted instead of the oldest-inserted.
func TestCacheLRU(t *testing.T) {
	release := make(chan struct{})
	close(release)
	p := mustNew(t, Config{Workers: 1, CacheCap: 2, CacheLRU: true, Runner: blockingRunner(release)})
	defer p.Close()

	specs := make([]samples.Spec, 3)
	for i := range specs {
		specs[i] = samples.Spinner(uint64(1000 + i))
		specs[i].Name = fmt.Sprintf("lru_%d", i)
	}
	a, _ := p.Submit(Request{Spec: specs[0], Mode: ModeLive})
	waitState(t, p, a, StateDone)
	b, _ := p.Submit(Request{Spec: specs[1], Mode: ModeLive})
	waitState(t, p, b, StateDone)

	// Touch A so B becomes the LRU entry.
	hit, _ := p.Submit(Request{Spec: specs[0], Mode: ModeLive})
	if view := waitState(t, p, hit, StateDone); !view.CacheHit {
		t.Fatal("touch of entry A was not a cache hit")
	}
	c, _ := p.Submit(Request{Spec: specs[2], Mode: ModeLive})
	waitState(t, p, c, StateDone)

	if _, ok := p.ResultByHash(a.Hash); !ok {
		t.Error("recently-used entry A was evicted")
	}
	if _, ok := p.ResultByHash(b.Hash); ok {
		t.Error("least-recently-used entry B survived eviction")
	}
}

// TestSustainedLoadBoundedRegistry is the service-hardening acceptance
// test: 10k submissions through a small pool leave the job registry
// bounded by JobRetention, degraded results are never served from cache,
// and sprinkled waiter cancellations never cancel coalesced peers.
func TestSustainedLoadBoundedRegistry(t *testing.T) {
	const (
		n         = 10000
		retention = 64
		distinct  = 100
	)
	runner := func(ctx context.Context, req Request) (*scenario.Result, error) {
		res := stubResult(req.Spec.Name)
		if strings.HasPrefix(req.Spec.Name, "bad") {
			res.Err = errors.New("recovered plugin panic: flaky sample")
		}
		return res, nil
	}
	p := mustNew(t, Config{Workers: 4, JobRetention: retention, Runner: runner})
	defer p.Close()

	var poisonedHits, canceledPeersDone atomic.Int64
	sem := make(chan struct{}, 128)
	var wg sync.WaitGroup
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i := 0; i < n; i++ {
		spec := samples.Spinner(uint64(1000 + i%distinct))
		if i%2 == 0 {
			spec.Name = fmt.Sprintf("good_%03d", i%distinct)
		} else {
			spec.Name = fmt.Sprintf("bad_%03d", i%distinct)
		}
		sem <- struct{}{}
		job, err := p.Submit(Request{Spec: spec, Mode: ModeLive})
		if err != nil {
			// Back-pressure under burst is expected; it must not leak.
			<-sem
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("submit %d: %v", i, err)
			}
			continue
		}
		if i%37 == 0 {
			// Cancel a sprinkling of waiters; peers must be unaffected.
			p.Cancel(job.ID)
		}
		wg.Add(1)
		go func(job *Job) {
			defer wg.Done()
			defer func() { <-sem }()
			view, err := p.Wait(ctx, job)
			if err != nil {
				t.Errorf("wait %s: %v", job.ID, err)
				return
			}
			switch view.State {
			case StateDone:
				if view.CacheHit && view.Result != nil && view.Result.Degraded != "" {
					poisonedHits.Add(1)
				}
				if strings.HasPrefix(view.Scenario, "good") {
					canceledPeersDone.Add(1)
				}
			case StateCanceled:
				// Only explicitly canceled waiters may end here.
			default:
				t.Errorf("job %s ended %s: %s", view.ID, view.State, view.Error)
			}
		}(job)
	}
	wg.Wait()

	st := p.Stats()
	if st.JobsActive != 0 {
		t.Errorf("jobs_active = %d after drain, want 0", st.JobsActive)
	}
	if st.JobsRetained > retention {
		t.Errorf("jobs_retained = %d, exceeds JobRetention %d", st.JobsRetained, retention)
	}
	if poisonedHits.Load() != 0 {
		t.Errorf("%d degraded results were served from cache", poisonedHits.Load())
	}
	if st.CacheSkippedDegraded == 0 {
		t.Error("no degraded results skipped — load mix broken?")
	}
	if st.CacheHits == 0 {
		t.Error("no cache hits across 10k submissions — cache broken?")
	}
	if canceledPeersDone.Load() == 0 {
		t.Error("no good-spec jobs completed")
	}
	t.Logf("sustained load: %d submitted, %d done, %d canceled, %d coalesced, %d hits, %d retained",
		st.JobsSubmitted, st.JobsDone, st.JobsCanceled, st.JobsCoalesced, st.CacheHits, st.JobsRetained)
}
