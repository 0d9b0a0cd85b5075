package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"faros"
	"faros/internal/baseline/malfind"
	"faros/internal/core"
	"faros/internal/guest"
	"faros/internal/pipeline"
	"faros/internal/pipeline/client"
	"faros/internal/provgraph"
	"faros/internal/record"
	"faros/internal/samples"
	"faros/internal/scenario"
	"faros/internal/store"
	"faros/internal/trace"
	"faros/internal/triage"
)

// The layer pass runs after the load, in this process. On a seeded
// sample of the workload's own submissions it calls each layer's public
// function in the order a job uses it and records one span per call. Two
// trees per sampled request mirror farosd's two answers: "job" (the
// executed path) and "hit" (the path of an answer served from cache).
// Layers a request's path does not cross are timed under "probe" roots on
// the same input, so every layer has a figure on every workload; whether
// a layer is on the path shows in the trees and in the /stats counters.

// span is one timed call; IDs are unique within a run, Parent is the
// enclosing span's ID (0 for a root), Req identifies the sampled request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

type tracer struct {
	t0    time.Time
	spans []span
}

// open starts a span and returns its index; close it with end.
func (t *tracer) open(req, parent int, name string) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// do times fn as a child of parent (a span ID, 0 for a root).
func (t *tracer) do(req, parent int, name string, fn func() error) error {
	i := t.open(req, parent, name)
	err := fn()
	t.end(i)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// layerResult is the layer pass's output.
type layerResult struct {
	spans []span
	// byName collects every span's duration by layer name.
	byName map[string][]time.Duration
	// self is each (root, name)'s self time: duration minus the time its
	// children cover.
	self map[string][]time.Duration
	// pathSum is, per root ("job", "hit") and sampled request, the sum of
	// the children's durations that block the client's answer.
	pathSum map[string]map[int]time.Duration
	// unaccJob and unaccHit are, per sampled request, its client latency
	// minus its path sum: for a job the load's answer, for a hit a
	// resubmission after the load.
	unaccJob, unaccHit []time.Duration
	// byReq is each sampled request's span durations by name.
	byReq   map[int]map[string]time.Duration
	samples int
}

// pairedDelta is the median over sampled requests of a's duration minus
// b's on the same request: one plugin's cost, with the input's own size
// cancelled out.
func (lr *layerResult) pairedDelta(a, b string) time.Duration {
	var ds []time.Duration
	for _, m := range lr.byReq {
		da, okA := m[a]
		db, okB := m[b]
		if okA && okB {
			ds = append(ds, da-db)
		}
	}
	return medianDur(ds)
}

// storePuts is how many result writes (fsync included) the pass times:
// enough samples for a p90 with ten beyond it.
const storePuts = 128

// forwardCalls is how many forwarded submissions the pass times.
const forwardCalls = 128

// resolveScenario is the resolver farosd installs for named submissions.
func resolveScenario(name string) (samples.Spec, bool) {
	spec, ok := faros.Scenarios()[name]
	return spec, ok
}

// detectPlugins is the analysis set of a detect job's replay.
func detectPlugins() scenario.Plugins {
	return scenario.Plugins{Faros: &core.Config{}, Cuckoo: true, Malfind: true, OSI: true}
}

// layerInput is one sampled submission and the load's answer to it.
type layerInput struct {
	body []byte
	ans  answer
}

// sampleInputs draws n submissions from what the clients actually sent:
// up to half answered as executed jobs, the rest as hits, so both trees
// can be paired with client latencies on every workload that has both.
func sampleInputs(b *bench, streams []*stream, n int) []layerInput {
	var jobs, hits []layerInput
	for _, s := range streams {
		for i, r := range s.items {
			a := s.answers[i]
			if r.method != http.MethodPost || a.hash == "" {
				continue
			}
			if a.hit {
				hits = append(hits, layerInput{body: r.body, ans: a})
			} else {
				jobs = append(jobs, layerInput{body: r.body, ans: a})
			}
		}
	}
	h := sha256.Sum256([]byte(fmt.Sprintf("layer-pass|%d", b.seed)))
	r := newRNG(h[:])
	for _, all := range [][]layerInput{jobs, hits} {
		r.shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	}
	nj := min(len(jobs), max(n/2, n-len(hits)))
	out := append(jobs[:nj:nj], hits[:min(len(hits), n-nj)]...)
	return out
}

// layerPass times every layer on a sample of the workload's inputs.
func layerPass(b *bench, w *workload, f *fleet, streams []*stream) (*layerResult, error) {
	dir := filepath.Join(b.dir, "layers")
	st, err := store.Open(store.Config{Dir: filepath.Join(dir, "store")})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	ts, err := trace.OpenStore(trace.StoreConfig{Dir: filepath.Join(dir, "traces")})
	if err != nil {
		return nil, err
	}
	defer ts.Close()

	inputs := sampleInputs(b, streams, w.layerSamples)
	if len(inputs) == 0 {
		return nil, fmt.Errorf("no answered submissions to sample")
	}
	lp := &layerPipeline{b: b, f: f, st: st, ts: ts, pol: triage.Default(), t: &tracer{t0: time.Now()}}
	var payloads [][]byte
	for i, in := range inputs {
		payload, err := lp.one(i+1, in)
		if err != nil {
			return nil, fmt.Errorf("request %d: %w", i+1, err)
		}
		payloads = append(payloads, payload)
	}
	for i := len(inputs); i < storePuts; i++ {
		key := passKey(b.seed, i)
		payload := payloads[i%len(payloads)]
		if err := lp.t.do(0, 0, "store.put", func() error { return st.Put(key, payload) }); err != nil {
			return nil, err
		}
	}
	if err := lp.forwards(f, inputs); err != nil {
		return nil, err
	}
	lr := summarize(lp.t.spans, len(inputs))
	for i, in := range inputs {
		req := i + 1
		if !in.ans.hit {
			lr.unaccJob = append(lr.unaccJob, in.ans.lat-lr.pathSum["job"][req])
		}
		lr.unaccHit = append(lr.unaccHit, lr.byReq[req]["client.hit"]-lr.pathSum["hit"][req])
	}
	return lr, nil
}

// passKey is a unique store key for the pass's own writes.
func passKey(seed uint64, i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("layer-put|%d|%d", seed, i)))
	return hex.EncodeToString(sum[:])
}

type layerPipeline struct {
	b   *bench
	f   *fleet
	st  *store.Store
	ts  *trace.Store
	pol *triage.Policy
	t   *tracer
}

// one runs the job tree, the hit tree and the probes for one input, and
// returns the served result payload.
func (lp *layerPipeline) one(req int, in layerInput) ([]byte, error) {
	t := lp.t
	var (
		areq   pipeline.AnalyzeRequest
		spec   samples.Spec
		log    *record.Log
		sres   *scenario.Result
		served *pipeline.Result
	)
	traceInput := false
	probe := func(name string, fn func() error) error { return t.do(req, 0, name, fn) }

	// Trace inputs need their bytes in the pass's trace store first.
	if err := json.Unmarshal(in.body, &areq); err != nil {
		return nil, err
	}
	if areq.Trace != "" {
		traceInput = true
		tr := lp.b.farm.byDigest(areq.Trace)
		if tr == nil {
			return nil, fmt.Errorf("trace %.12s is not in the farm", areq.Trace)
		}
		if err := probe("trace.put", func() error { _, _, err := lp.ts.Put(tr.data); return err }); err != nil {
			return nil, err
		}
	}

	// The job tree: what an executed request costs, in order.
	root := t.open(req, 0, "job")
	jobID := t.spans[root].ID
	err := func() error {
		if err := t.do(req, jobID, "http.decode", func() error { return json.Unmarshal(in.body, &areq) }); err != nil {
			return err
		}
		if err := lp.resolve(req, jobID, areq, &spec, &log); err != nil {
			return err
		}
		if traceInput {
			cfg := core.Config{}
			if areq.Config != nil {
				cfg = *areq.Config
			}
			return t.do(req, jobID, "scenario.trace_replay", func() (err error) {
				sres, err = scenario.ReplayContext(context.Background(), spec, log, scenario.Plugins{Faros: &cfg}, nil)
				return err
			})
		}
		if err := t.do(req, jobID, "samples.spec_hash", func() error { _, err := samples.SpecHash(spec); return err }); err != nil {
			return err
		}
		det := t.open(req, jobID, "scenario.detect")
		defer t.end(det)
		detID := t.spans[det].ID
		if err := t.do(req, detID, "scenario.record", func() (err error) {
			log, _, err = scenario.RecordContext(context.Background(), spec, nil)
			return err
		}); err != nil {
			return err
		}
		return t.do(req, detID, "scenario.replay", func() (err error) {
			sres, err = scenario.ReplayContext(context.Background(), spec, log, detectPlugins(), nil)
			return err
		})
	}()
	if err != nil {
		t.end(root)
		return nil, err
	}
	var payload []byte
	err = func() error {
		served = &pipeline.Result{Hash: in.ans.hash, Scenario: spec.Name, Mode: pipeline.ModeDetect,
			Flagged: sres.Flagged(), Instructions: sres.Summary.Instructions, WallTime: sres.WallTime}
		if traceInput {
			served.Mode = pipeline.ModeTrace
		}
		if err := t.do(req, jobID, "provgraph.merge", func() error { served.Prov = sres.ProvGraph(); return nil }); err != nil {
			return err
		}
		if err := t.do(req, jobID, "triage.score", func() error { lp.score(sres, served); return nil }); err != nil {
			return err
		}
		if err := t.do(req, jobID, "pipeline.encode", func() (err error) { _, err = json.Marshal(jobView(served)); return err }); err != nil {
			return err
		}
		var err error
		if payload, err = json.Marshal(served); err != nil {
			return err
		}
		return t.do(req, jobID, "store.put", func() error { return lp.st.Put(passKey(lp.b.seed, req-1), payload) })
	}()
	t.end(root)
	if err != nil {
		return nil, err
	}

	// The hit tree: the same request answered from cache.
	hroot := t.open(req, 0, "hit")
	hitID := t.spans[hroot].ID
	err = func() error {
		if err := t.do(req, hitID, "http.decode", func() error { return json.Unmarshal(in.body, &areq) }); err != nil {
			return err
		}
		var hspec samples.Spec
		if traceInput {
			// farosd verifies a trace submission's header even on a hit.
			meta, err := trace.ReadMeta(bytes.NewReader(lp.b.farm.byDigest(areq.Trace).data))
			if err != nil {
				return err
			}
			return t.do(req, hitID, "trace.verify", func() error { _, err := scenario.VerifyTraceMeta(meta); return err })
		}
		if err := lp.resolveSpec(req, hitID, areq, &hspec); err != nil {
			return err
		}
		if err := t.do(req, hitID, "samples.spec_hash", func() error { _, err := samples.SpecHash(hspec); return err }); err != nil {
			return err
		}
		return t.do(req, hitID, "pipeline.encode", func() (err error) { _, err = json.Marshal(jobView(served)); return err })
	}()
	t.end(hroot)
	if err != nil {
		return nil, err
	}

	// The client's side of a hit: resubmit to the entry node. A first,
	// untimed resubmission puts the key back in the entry node's cache
	// if it was evicted (fleet-forward's entry node keeps no store).
	resubmit := func() (*pipeline.JobView, error) {
		body, status, err := lp.f.do(context.Background(), http.MethodPost, lp.f.entry().url+"/analyze", in.body, nil)
		if err != nil {
			return nil, err
		}
		var v pipeline.JobView
		if err := json.Unmarshal(body, &v); err != nil {
			return nil, fmt.Errorf("status %d: %w", status, err)
		}
		return &v, nil
	}
	if _, err := resubmit(); err != nil {
		return nil, err
	}
	if err := probe("client.hit", func() error {
		v, err := resubmit()
		if err != nil {
			return err
		}
		if !v.CacheHit || v.Hash != in.ans.hash {
			return fmt.Errorf("resubmission: cache_hit=%v hash %.12s, want a hit on %.12s", v.CacheHit, v.Hash, in.ans.hash)
		}
		return nil
	}); err != nil {
		return nil, err
	}

	// Probes: the layers this request's path does not cross, and the
	// single-layer figures (plain replay, one plugin at a time).
	if err := lp.probes(req, traceInput, areq, spec, log, sres, served); err != nil {
		return nil, err
	}
	return payload, nil
}

// resolve materializes the request's spec on the job path (and, for a
// trace, its log).
func (lp *layerPipeline) resolve(req, parent int, areq pipeline.AnalyzeRequest, spec *samples.Spec, log **record.Log) error {
	t := lp.t
	if areq.Trace == "" {
		return lp.resolveSpec(req, parent, areq, spec)
	}
	var data []byte
	var meta trace.Meta
	if err := t.do(req, parent, "trace.get", func() error {
		var ok bool
		if data, ok = lp.ts.Get(areq.Trace); !ok {
			return fmt.Errorf("trace %.12s not stored", areq.Trace)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := t.do(req, parent, "trace.decode", func() (err error) { meta, *log, err = trace.DecodeBytes(data); return err }); err != nil {
		return err
	}
	return t.do(req, parent, "trace.verify", func() (err error) { *spec, err = scenario.VerifyTraceMeta(meta); return err })
}

// resolveSpec is farosd's selector for spec submissions: the resolver for
// a name, UnmarshalSpec for an inline spec.
func (lp *layerPipeline) resolveSpec(req, parent int, areq pipeline.AnalyzeRequest, spec *samples.Spec) error {
	if areq.Scenario != "" {
		return lp.t.do(req, parent, "samples.resolve", func() error {
			var ok bool
			if *spec, ok = resolveScenario(areq.Scenario); !ok {
				return fmt.Errorf("unknown scenario %q", areq.Scenario)
			}
			return nil
		})
	}
	return lp.t.do(req, parent, "samples.unmarshal_spec", func() (err error) { *spec, err = samples.UnmarshalSpec(areq.Spec); return err })
}

// score applies the default policy the way the pool does.
func (lp *layerPipeline) score(sres *scenario.Result, served *pipeline.Result) {
	served.Findings = servedFindings(lp.pol, sres)
	served.Risk = aggregateRisk(served.Findings)
	served.RiskPolicy = lp.pol.Hash()
}

func jobView(res *pipeline.Result) pipeline.JobView {
	now := time.Now()
	return pipeline.JobView{ID: "j000001", Hash: res.Hash, Scenario: res.Scenario, State: pipeline.StateDone,
		Submitted: now, Started: now, Finished: now, Result: res}
}

// probes times the layers off this request's path.
func (lp *layerPipeline) probes(req int, traceInput bool, areq pipeline.AnalyzeRequest, spec samples.Spec,
	log *record.Log, sres *scenario.Result, served *pipeline.Result) error {
	t := lp.t
	probe := func(name string, fn func() error) error { return t.do(req, 0, name, fn) }
	ctx := context.Background()

	base, _, _ := strings.Cut(spec.Name, "~")
	if areq.Scenario == "" {
		// The resolver builds the whole namespace on every call, so a name
		// outside it (the Table V apps) costs what a corpus name does.
		if err := probe("samples.resolve", func() error { resolveScenario(base); return nil }); err != nil {
			return err
		}
	}
	if areq.Spec == nil {
		wire, err := samples.MarshalSpec(spec)
		if err != nil {
			return err
		}
		if err := probe("samples.unmarshal_spec", func() error { _, err := samples.UnmarshalSpec(wire); return err }); err != nil {
			return err
		}
	}
	if traceInput {
		if err := probe("samples.spec_hash", func() error { _, err := samples.SpecHash(spec); return err }); err != nil {
			return err
		}
	}
	if err := probe("scenario.kernel_setup", func() error {
		k, err := guest.NewKernel()
		if err != nil {
			return err
		}
		for name, data := range samples.SeedFiles() {
			k.FS.Install(name, data)
		}
		for _, p := range spec.Programs {
			k.FS.Install(p.Path, p.Bytes)
		}
		return nil
	}); err != nil {
		return err
	}
	detectRes := sres
	if traceInput {
		// A trace-farm job neither records nor runs the baselines; time
		// both on the trace's own spec.
		if err := probe("scenario.record", func() (err error) { _, _, err = scenario.RecordContext(ctx, spec, nil); return err }); err != nil {
			return err
		}
		if err := probe("scenario.replay", func() (err error) {
			detectRes, err = scenario.ReplayContext(ctx, spec, log, detectPlugins(), nil)
			return err
		}); err != nil {
			return err
		}
	} else {
		// A detect job never touches the trace layer; time it on a
		// trace of this request's own recording.
		data, digest, err := scenario.EncodeTrace(spec, log)
		if err != nil {
			return err
		}
		if err := probe("trace.put", func() error { _, _, err := lp.ts.Put(data); return err }); err != nil {
			return err
		}
		if err := probe("trace.get", func() error {
			if _, ok := lp.ts.Get(digest); !ok {
				return fmt.Errorf("trace %.12s not stored", digest)
			}
			return nil
		}); err != nil {
			return err
		}
		var meta trace.Meta
		var dlog *record.Log
		if err := probe("trace.decode", func() (err error) { meta, dlog, err = trace.DecodeBytes(data); return err }); err != nil {
			return err
		}
		if err := probe("trace.verify", func() error { _, err := scenario.VerifyTraceMeta(meta); return err }); err != nil {
			return err
		}
		if err := probe("scenario.trace_replay", func() error {
			_, err := scenario.ReplayContext(ctx, spec, dlog, scenario.Plugins{Faros: &core.Config{}}, nil)
			return err
		}); err != nil {
			return err
		}
	}
	cfg := core.Config{}
	if areq.Config != nil {
		cfg = *areq.Config
	}
	replays := []struct {
		name    string
		plugins scenario.Plugins
	}{
		{"scenario.replay_plain", scenario.Plugins{}},
		{"core.faros_replay", scenario.Plugins{Faros: &cfg}},
		{"scenario.replay_cuckoo", scenario.Plugins{Cuckoo: true}},
		{"scenario.replay_osi", scenario.Plugins{OSI: true}},
	}
	for _, rp := range replays {
		if err := probe(rp.name, func() error { _, err := scenario.ReplayContext(ctx, spec, log, rp.plugins, nil); return err }); err != nil {
			return err
		}
	}
	if err := probe("baseline.malfind", func() error { malfind.Scan(detectRes.Kernel); return nil }); err != nil {
		return err
	}
	g := served.Prov
	if g == nil {
		g = provgraph.Merge()
	}
	if err := probe("provgraph.encode", func() error { _, err := g.Encode("json"); return err }); err != nil {
		return err
	}
	return probe("store.get", func() error {
		if _, ok := lp.st.Get(passKey(lp.b.seed, req-1)); !ok {
			return fmt.Errorf("stored result missing")
		}
		return nil
	})
}

// forwards times pipeline/client.Analyze with the hop header against each
// sampled key's owner, which answers from its cache. On a single node the
// node itself is the owner.
func (lp *layerPipeline) forwards(f *fleet, inputs []layerInput) error {
	clients := map[string]*client.Client{}
	for _, s := range f.nodes {
		c, err := client.New(client.Config{BaseURL: s.url, HTTP: f.http, MaxAttempts: 1,
			Headers: http.Header{pipeline.ForwardedHeader: []string{f.entry().id}}})
		if err != nil {
			return err
		}
		clients[s.id] = c
	}
	// The first call per input is untimed: it brings back a key the
	// entry node evicted (it keeps no store on fleet-forward).
	for i := 0; i < len(inputs)+forwardCalls; i++ {
		in := inputs[i%len(inputs)]
		var areq pipeline.AnalyzeRequest
		if err := json.Unmarshal(in.body, &areq); err != nil {
			return err
		}
		owner := f.entry().id
		if lp.b.ring != nil {
			spec, err := samples.UnmarshalSpec(areq.Spec)
			if err != nil {
				return err
			}
			h, err := samples.SpecHash(spec)
			if err != nil {
				return err
			}
			owner = lp.b.ring.Owner(h)
		}
		if i < len(inputs) {
			if _, err := clients[owner].Analyze(context.Background(), areq); err != nil {
				return err
			}
			continue
		}
		err := lp.t.do(0, 0, "cluster.forward", func() error {
			v, err := clients[owner].Analyze(context.Background(), areq)
			if err != nil {
				return err
			}
			if !v.CacheHit || v.Hash != in.ans.hash {
				return fmt.Errorf("forward to %s: cache_hit=%v hash %.12s, want a hit on %.12s", owner, v.CacheHit, v.Hash, in.ans.hash)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// summarize folds spans into per-layer durations, self times and path
// sums.
func summarize(spans []span, n int) *layerResult {
	lr := &layerResult{spans: spans, byName: map[string][]time.Duration{},
		self: map[string][]time.Duration{}, pathSum: map[string]map[int]time.Duration{},
		byReq: map[int]map[string]time.Duration{}, samples: n}
	byID := make(map[int]*span, len(spans))
	childSum := make(map[int]time.Duration)
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for _, s := range spans {
		if s.Parent != 0 {
			childSum[s.Parent] += s.dur()
		}
	}
	rootOf := func(s *span) string {
		for s.Parent != 0 {
			s = byID[s.Parent]
		}
		return s.Name
	}
	blocking := map[int]time.Duration{}
	for i := range spans {
		s := &spans[i]
		root := rootOf(s)
		if s.Parent == 0 {
			if s.Name == "job" || s.Name == "hit" {
				lr.self[root+"/"+root] = append(lr.self[root+"/"+root], s.dur()-childSum[s.ID])
				continue
			}
			root = "probe"
		}
		lr.byName[s.Name] = append(lr.byName[s.Name], s.dur())
		if s.Req != 0 {
			if lr.byReq[s.Req] == nil {
				lr.byReq[s.Req] = map[string]time.Duration{}
			}
			lr.byReq[s.Req][s.Name] = s.dur()
		}
		lr.self[root+"/"+s.Name] = append(lr.self[root+"/"+s.Name], s.dur()-childSum[s.ID])
		// The store write runs after the waiters settle: it holds the
		// worker, not the client.
		if p := byID[s.Parent]; p != nil && p.Parent == 0 && s.Name != "store.put" {
			blocking[p.ID] += s.dur()
		}
	}
	for _, s := range spans {
		if s.Parent == 0 && (s.Name == "job" || s.Name == "hit") {
			if lr.pathSum[s.Name] == nil {
				lr.pathSum[s.Name] = map[int]time.Duration{}
			}
			lr.pathSum[s.Name][s.Req] = blocking[s.ID]
		}
	}
	return lr
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// medianDur is the median of ds (0 when empty).
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
