package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"faros"
	"faros/internal/cluster"
	"faros/internal/core"
	"faros/internal/pipeline"
	"faros/internal/samples"
	"faros/internal/scenario"
	"faros/internal/triage"
)

// bench is one run's shared state: flags, the inputs prepare builds, and
// the answer book every check consults.
type bench struct {
	farosd  string
	dir     string
	seed    uint64
	clients int
	traced  bool

	// corpus is every built-in scenario, sorted by name.
	corpus []*baseSpec
	// hashByName maps a named scenario to its cache key (hot-mixed,
	// learned from the preload answers).
	hashByName map[string]string
	// farm is trace-farm's recorded pool and reference answers.
	farm *traceFarm
	// warm is fleet-forward's pool of B-owned keys pre-warmed on node b.
	warm []*request
	// ring mirrors the two-node fleet's placement.
	ring *cluster.Ring

	book answerBook
}

// expect is what a spec declares about its own analysis.
type expect struct {
	flag bool
	rule string
	// high: the default triage policy must score the run high.
	high bool
}

// highRisk lists the attacks whose provenance crosses a process
// boundary; the default policy scores them high (reverse_tcp_dns runs its
// shellcode in-process and is flagged low by design).
var highRisk = map[string]bool{
	"reflective_dll_inject": true,
	"bypassuac_injection":   true,
	"process_hollowing":     true,
	"darkcomet":             true,
	"njrat":                 true,
	"transient_reflective":  true,
}

// baseSpec is one built-in scenario with its canonical wire form.
type baseSpec struct {
	name   string
	spec   samples.Spec
	wire   []byte
	expect expect
}

func newBaseSpec(spec samples.Spec) (*baseSpec, error) {
	wire, err := samples.MarshalSpec(spec)
	if err != nil {
		return nil, err
	}
	prefix := namePrefix(spec.Name)
	if !bytes.HasPrefix(wire, prefix) {
		return nil, fmt.Errorf("spec %s: wire form does not start with its name", spec.Name)
	}
	return &baseSpec{
		name:   spec.Name,
		spec:   spec,
		wire:   wire,
		expect: expect{flag: spec.ExpectFlag, rule: spec.ExpectRule, high: highRisk[spec.Name]},
	}, nil
}

func namePrefix(name string) []byte {
	q, _ := json.Marshal(name)
	return append([]byte(`{"name":`), q...)
}

// renamed returns the wire form of the spec under a new name and its
// spec hash. The name enters the hash but neither guest execution nor the
// declared verdict, so a renamed spec is fresh work with a known answer.
func (s *baseSpec) renamed(name string) (wire []byte, specHash string) {
	rest := s.wire[len(namePrefix(s.name)):]
	wire = append(namePrefix(name), rest...)
	sum := sha256.Sum256(wire)
	return wire, hex.EncodeToString(sum[:])
}

// loadCorpus fills b.corpus once.
func (b *bench) loadCorpus() error {
	if b.corpus != nil {
		return nil
	}
	all := faros.Scenarios()
	names := make([]string, 0, len(all))
	for n := range all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		bs, err := newBaseSpec(all[n])
		if err != nil {
			return err
		}
		b.corpus = append(b.corpus, bs)
	}
	return nil
}

// coldCorpus is the corpus minus process_hollowing, whose long run
// belongs to trace-farm.
func (b *bench) coldCorpus() []*baseSpec {
	var out []*baseSpec
	for _, s := range b.corpus {
		if s.name != "process_hollowing" {
			out = append(out, s)
		}
	}
	return out
}

// kind is a request's intended path through farosd.
type kind int

const (
	kindFresh       kind = iota // inline spec never seen: runs the full detect path
	kindNamedHit                // named submission of a stored key
	kindInlineHit               // inline spec of a stored key
	kindResultRead              // GET /results/{hash}
	kindProvRead                // GET /results/{hash}/prov
	kindFirstTouch              // first request for a stored key after restart: store read-through
	kindTraceReplay             // analysis-only replay of a distinct (trace, config)
	kindTraceRepeat             // resubmission of an earlier (trace, config): header re-verified, answered from cache
	kindLocalCold               // fleet: entry-owned fresh spec
	kindFwdCold                 // fleet: peer-owned fresh spec, forwarded and run by the owner
	kindOwnerHit                // fleet: peer-owned key cached on the owner: forward, hit, backfill
	numKinds
)

var kindNames = [numKinds]string{
	"fresh", "named-hit", "inline-hit", "result-read", "prov-read", "first-touch",
	"trace-replay", "trace-repeat", "local-cold", "fwd-cold", "owner-hit",
}

func (k kind) String() string { return kindNames[k] }

// answeredFromCache is the cache_hit a healthy farosd answers a
// submission of kind k with. A store read-through counts as a hit, so
// first touches of stored keys are hits too.
func (k kind) answeredFromCache() bool {
	switch k {
	case kindFresh, kindTraceReplay, kindLocalCold, kindFwdCold:
		return false
	}
	return true
}

// request is one generated request. Reads and repeats name an earlier
// item of the same stream (ref) whose answer supplies the hash to read or
// the hash the repeat must be answered with.
type request struct {
	seq    int
	kind   kind
	method string
	path   string
	body   []byte
	ref    int
	// key is the cache key the answer must carry when known up front.
	key string
	// name is the scenario name the answer must carry ("" = any).
	name string
	exp  expect
	// want is the trace-farm reference the answer must equal (nil = none).
	want *refAnswer
}

// stream is one client's request sequence: a pure function of the seed
// and the client index. Answers are recorded per item so later reads can
// refer to them and the layer pass can pair its spans with them.
type stream struct {
	rng     rng
	items   []*request
	answers []answer
	gen     func(s *stream) *request
}

func newStream(b *bench, w string, client int, gen func(s *stream) *request) *stream {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%d|%d", w, b.seed, client)))
	return &stream{rng: newRNG(h[:]), gen: gen}
}

func (s *stream) next() *request {
	r := s.gen(s)
	r.seq = len(s.items)
	s.items = append(s.items, r)
	s.answers = append(s.answers, answer{})
	return r
}

// answer is what the load learned from one item: the cache key it was
// answered under, the client latency, and whether it was a hit.
type answer struct {
	hash string
	lat  time.Duration
	hit  bool
}

// again draws one of the last 64 items of kind k this stream generated,
// as a result read (rk = kindResultRead) or as a resubmission of the same
// body (any other rk); ok=false when there is none yet.
func (s *stream) again(k, rk kind) (*request, bool) {
	var cands []int
	for i := len(s.items) - 1; i >= 0 && len(cands) < 64; i-- {
		if s.items[i].kind == k {
			cands = append(cands, i)
		}
	}
	if len(cands) == 0 {
		return nil, false
	}
	ref := cands[s.rng.intn(len(cands))]
	prev := s.items[ref]
	r := &request{kind: rk, method: http.MethodGet, ref: ref, name: prev.name, exp: prev.exp, want: prev.want}
	if rk != kindResultRead {
		r.method, r.path, r.body = prev.method, prev.path, prev.body
	}
	return r, true
}

func analyzeBody(req pipeline.AnalyzeRequest) []byte {
	req.Wait = true
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // AnalyzeRequest always marshals
	}
	return body
}

// freshRequest renames a corpus spec with a suffix unique to the run.
func freshRequest(k kind, base *baseSpec, name string) (*request, string) {
	wire, specHash := base.renamed(name)
	return &request{kind: k, method: http.MethodPost, path: "/analyze",
		body: analyzeBody(pipeline.AnalyzeRequest{Spec: wire}),
		ref:  -1, name: name, exp: base.expect}, specHash
}

// workload is one named traffic mix.
type workload struct {
	name string
	// prepare builds inputs and reference answers (not timed).
	prepare func(b *bench) error
	// setup launches and preloads the fleet (timed: setup_s).
	setup func(b *bench, dir string) (*fleet, error)
	// stream returns client c's request sequence.
	stream func(b *bench, c int) *stream
	// layerSamples is how many submissions the layer pass samples.
	layerSamples int
	// setups is how many times a run sets up; setup_s is their median
	// and the last set-up serves the load. Cheap set-ups repeat more.
	setups int
}

var workloads = map[string]*workload{}

func register(w *workload) { workloads[w.name] = w }

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// launch starts one farosd with a fresh store (and trace store) under
// dir and waits until it is ready.
func launch(b *bench, dir, id string, extra ...string) (*server, error) {
	ports, err := freePorts(1)
	if err != nil {
		return nil, err
	}
	args := append([]string{
		"-store-dir", filepath.Join(dir, id, "store"),
		"-trace-dir", filepath.Join(dir, id, "traces"),
	}, extra...)
	s, err := startServer(b, dir, id, ports[0], args...)
	if err != nil {
		return nil, err
	}
	if err := s.waitReady(nil); err != nil {
		_ = s.stop()
		return nil, err
	}
	return s, nil
}

// restart stops a server and starts it again on the same flags and
// store, waiting until it is ready.
func restart(b *bench, dir string, s *server) (*server, error) {
	if err := s.stop(); err != nil {
		return nil, err
	}
	ports, err := freePorts(1)
	if err != nil {
		return nil, err
	}
	ns, err := startServer(b, dir, s.id, ports[0], s.args[2:]...)
	if err != nil {
		return nil, err
	}
	if err := ns.waitReady(nil); err != nil {
		_ = ns.stop()
		return nil, err
	}
	return ns, nil
}

// parallel runs fn(0..n-1) on workers goroutines and returns the first
// error.
func parallel(workers, n int, fn func(i int) error) error {
	var (
		mu    sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := fn(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return first
}

// preload submits requests to node with b.clients concurrent callers and
// checks each answer; it returns the settled views in request order.
func preload(b *bench, f *fleet, node *server, reqs []*request) ([]*pipeline.JobView, error) {
	views := make([]*pipeline.JobView, len(reqs))
	err := parallel(b.clients, len(reqs), func(i int) error {
		r := reqs[i]
		body, status, err := f.do(context.Background(), r.method, node.url+r.path, r.body, nil)
		if err == nil {
			views[i], err = checkView(b, r, body, status)
		}
		if err != nil {
			return fmt.Errorf("preload %s: %w", r.name, err)
		}
		return nil
	})
	return views, err
}

func init() {
	register(&workload{
		name:         "cold-detect",
		setups:       9,
		layerSamples: 24,
		prepare:      func(b *bench) error { return b.loadCorpus() },
		setup: func(b *bench, dir string) (*fleet, error) {
			s, err := launch(b, dir, "a")
			if err != nil {
				return nil, err
			}
			return newFleet(b.clients, s), nil
		},
		stream: func(b *bench, c int) *stream {
			cold := b.coldCorpus()
			var d deck
			return newStream(b, "cold-detect", c, func(s *stream) *request {
				if s.rng.float() < coldReadShare {
					if r, ok := s.again(kindFresh, kindResultRead); ok {
						return r
					}
				}
				base := cold[d.deal(&s.rng, len(cold))]
				r, _ := freshRequest(kindFresh, base, fmt.Sprintf("%s~s%dc%dn%d", base.name, b.seed, c, len(s.items)))
				return r
			})
		},
	})

	register(&workload{
		name:         "hot-mixed",
		setups:       5,
		layerSamples: 24,
		prepare:      func(b *bench) error { return b.loadCorpus() },
		setup: func(b *bench, dir string) (*fleet, error) {
			s, err := launch(b, dir, "a")
			if err != nil {
				return nil, err
			}
			f := newFleet(b.clients, s)
			var reqs []*request
			for _, base := range b.corpus {
				reqs = append(reqs, &request{kind: kindNamedHit, method: http.MethodPost, path: "/analyze",
					body: analyzeBody(pipeline.AnalyzeRequest{Scenario: base.name}),
					ref:  -1, name: base.name, exp: base.expect})
			}
			views, err := preload(b, f, s, reqs)
			if err != nil {
				_ = f.stop()
				return nil, err
			}
			b.hashByName = make(map[string]string, len(reqs))
			for i, v := range views {
				b.hashByName[reqs[i].name] = v.Hash
			}
			ns, err := restart(b, dir, s)
			if err != nil {
				return nil, err
			}
			f.nodes[0] = ns
			b.book.resetTouched()
			return f, nil
		},
		stream: func(b *bench, c int) *stream {
			cold := b.coldCorpus()
			ranks := b.rankedCorpus("hot-mixed")
			z := newZipf(len(ranks), hotZipfS)
			m := newMix(share{kindFresh, hotFresh}, share{kindNamedHit, hotNamed},
				share{kindInlineHit, hotInline}, share{kindResultRead, hotResult}, share{kindProvRead, hotProv})
			var d deck
			return newStream(b, "hot-mixed", c, func(s *stream) *request {
				k := m.draw(&s.rng)
				if k == kindFresh {
					base := cold[d.deal(&s.rng, len(cold))]
					r, _ := freshRequest(kindFresh, base, fmt.Sprintf("%s~s%dc%dn%d", base.name, b.seed, c, len(s.items)))
					return r
				}
				base := ranks[z.draw(&s.rng)]
				key := b.hashByName[base.name]
				r := &request{kind: k, method: http.MethodPost, path: "/analyze", ref: -1, key: key,
					name: base.name, exp: base.expect}
				switch k {
				case kindNamedHit:
					r.body = analyzeBody(pipeline.AnalyzeRequest{Scenario: base.name})
				case kindInlineHit:
					r.body = analyzeBody(pipeline.AnalyzeRequest{Spec: base.wire})
				case kindResultRead:
					r.method, r.path = http.MethodGet, "/results/"+key
				default:
					r.method, r.path = http.MethodGet, "/results/"+key+"/prov"
				}
				return r
			})
		},
	})

	register(&workload{
		name:         "trace-farm",
		setups:       3,
		layerSamples: 8,
		prepare:      prepareFarm,
		setup:        setupFarm,
		stream: func(b *bench, c int) *stream {
			var d deck
			round := -1
			return newStream(b, "trace-farm", c, func(s *stream) *request {
				if s.rng.float() < farmRepeatShare {
					if r, ok := s.again(kindTraceReplay, kindTraceRepeat); ok {
						return r
					}
				}
				// Each round replays one variant of every (app, config)
				// pair in a seeded order; clients own disjoint variants.
				if d.left() == 0 {
					round++
				}
				k := d.deal(&s.rng, b.farm.roundLen())
				v := (c + round*b.clients) % (farmRoundsPerClient * b.clients)
				r := b.farm.pair(v, k).request()
				if round >= farmRoundsPerClient {
					// The pool is spent and this client's own pairs come
					// round again, answered from cache.
					r.kind = kindTraceRepeat
				}
				return r
			})
		},
	})

	register(&workload{
		name:         "fleet-forward",
		setups:       5,
		layerSamples: 24,
		prepare:      prepareFleet,
		setup:        setupFleet,
		stream: func(b *bench, c int) *stream {
			cold := b.coldCorpus()
			// Each client cycles through its own slice of the owner's
			// keys, always in the same seeded order. A cycle inserts more
			// keys into a's FIFO result cache than it holds, so a key is
			// evicted from a before the client comes back to it: every
			// owner hit forwards.
			var warm []*request
			for i := c; i < len(b.warm); i += b.clients {
				warm = append(warm, b.warm[i])
			}
			used := 0
			m := newMix(share{kindOwnerHit, fleetOwnerHit}, share{kindLocalCold, fleetLocalCold},
				share{kindFwdCold, fleetFwdCold})
			var d deck
			return newStream(b, "fleet-forward", c, func(s *stream) *request {
				k := m.draw(&s.rng)
				if k == kindOwnerHit {
					if used == 0 {
						s.rng.shuffle(len(warm), func(i, j int) { warm[i], warm[j] = warm[j], warm[i] })
					}
					w := *warm[used%len(warm)]
					used++
					return &w
				}
				owner := "b"
				if k == kindLocalCold {
					owner = "a"
				}
				base := cold[d.deal(&s.rng, len(cold))]
				for try := 0; ; try++ {
					name := fmt.Sprintf("%s~s%dc%dn%dt%d", base.name, b.seed, c, len(s.items), try)
					r, specHash := freshRequest(k, base, name)
					if b.ring.Owner(specHash) == owner {
						return r
					}
				}
			})
		},
	})
}

// rankedCorpus is the corpus in a fixed pseudo-random order: rank 0 is
// the hottest key of the Zipf draw. The order does not depend on the
// seed. If it did, each seed would crown its own hot set, and the hot
// keys' spec sizes (a Zipf-weighted mean of 3.1 to 4.3 kB over seeds
// 81-96) would move every hit metric with the seed; the seed varies the
// draws from the ranking instead.
func (b *bench) rankedCorpus(salt string) []*baseSpec {
	out := append([]*baseSpec(nil), b.corpus...)
	h := sha256.Sum256([]byte(salt))
	r := newRNG(h[:])
	r.shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// fleetNodes are the two fleet-forward node IDs; clients enter at "a".
var fleetNodes = []string{"a", "b"}

func prepareFleet(b *bench) error {
	if err := b.loadCorpus(); err != nil {
		return err
	}
	b.ring = cluster.NewRing(fleetNodes, 0)
	cold := b.coldCorpus()
	h := sha256.Sum256([]byte("fleet-warm|" + strconv.FormatUint(b.seed, 10)))
	r := newRNG(h[:])
	b.warm = nil
	var d deck
	for i := 0; len(b.warm) < fleetWarmPerClient*b.clients; i++ {
		base := cold[d.deal(&r, len(cold))]
		name := fmt.Sprintf("%s~s%dw%d", base.name, b.seed, i)
		req, specHash := freshRequest(kindOwnerHit, base, name)
		if b.ring.Owner(specHash) == "b" {
			b.warm = append(b.warm, req)
		}
	}
	return nil
}

func setupFleet(b *bench, dir string) (*fleet, error) {
	ports, err := freePorts(len(fleetNodes))
	if err != nil {
		return nil, err
	}
	peers := ""
	for i, id := range fleetNodes {
		if i > 0 {
			peers += ","
		}
		peers += fmt.Sprintf("%s=http://127.0.0.1:%d", id, ports[i])
	}
	start := func(i int) (*server, error) {
		id := fleetNodes[i]
		args := []string{"-trace-dir", filepath.Join(dir, id, "traces"), "-node-id", id, "-peers", peers}
		if i > 0 {
			// Only the owner persists. The entry node keeps what it
			// backfills in its result cache alone, so a forward costs
			// no fsync on a and the load does not time the host disk.
			args = append(args, "-store-dir", filepath.Join(dir, id, "store"))
		}
		return startServer(b, dir, id, ports[i], args...)
	}
	// The owner starts first so the entry node's first health probe finds
	// it up.
	nb, err := start(1)
	if err != nil {
		return nil, err
	}
	if err := nb.waitReady(nil); err != nil {
		_ = nb.stop()
		return nil, err
	}
	na, err := start(0)
	if err != nil {
		_ = nb.stop()
		return nil, err
	}
	f := newFleet(b.clients, na, nb)
	if err := na.waitReady(func(rd pipeline.Readiness) bool { return rd.PeersUp == 1 }); err != nil {
		_ = f.stop()
		return nil, err
	}
	if _, err := preload(b, f, nb, b.warm); err != nil {
		_ = f.stop()
		return nil, err
	}
	return f, nil
}

// refAnswer is a trace-farm reference: the answer scenario.ReplayTrace
// gives in-process for one (app, config).
type refAnswer struct {
	flagged      bool
	instructions uint64
	risk         string
	findings     []byte
}

// farmConfigs are the engine configs trace-farm replays under.
var farmConfigs = []core.Config{
	{},
	{StrictExecCheck: true},
	{ListCap: 4},
	{PropagateAddrDeps: true},
}

type farmApp struct {
	base *baseSpec
	refs []*refAnswer // by config index
}

type farmTrace struct {
	app    *farmApp
	name   string
	spec   samples.Spec
	data   []byte
	digest string
}

type farmPair struct {
	t   *farmTrace
	cfg int
}

func (p farmPair) request() *request {
	cfg := farmConfigs[p.cfg]
	r := &request{kind: kindTraceReplay, method: http.MethodPost, path: "/analyze",
		body: analyzeBody(pipeline.AnalyzeRequest{Trace: p.t.digest, Config: &cfg}),
		ref:  -1, name: p.t.name, want: p.t.app.refs[p.cfg]}
	if p.cfg == 0 {
		r.exp = p.t.app.base.expect
	} else {
		r.exp = expect{flag: r.want.flagged}
	}
	return r
}

// traceFarm is the recorded pool. A round deals every (app, config) pair
// of one variant, plus farmExtra pairs of process_hollowing (apps[0]) on
// a second variant of it. That lifts process_hollowing, the one long app
// (≈150 ms replays against ≤40 ms), from 1/7 to 1/5 of the replays, so the
// job p90 sits mid-way through its replays rather than in their lower
// tail, where a run's share of concurrent replays moves it most, while the
// job p50 stays inside perf_spygate's replays.
type traceFarm struct {
	apps   []*farmApp
	traces []*farmTrace
	// extra[v] is variant v's second process_hollowing trace.
	extra []*farmTrace
}

func (tf *traceFarm) roundLen() int { return len(tf.apps)*len(farmConfigs) + farmExtra }

func (tf *traceFarm) byDigest(digest string) *farmTrace {
	for _, t := range tf.traces {
		if t.digest == digest {
			return t
		}
	}
	return nil
}

// pair is the k-th pair of variant v's round.
func (tf *traceFarm) pair(v, k int) farmPair {
	n := len(tf.apps) * len(farmConfigs)
	if k >= n {
		return farmPair{t: tf.extra[v], cfg: k - n}
	}
	return farmPair{t: tf.traces[v*len(tf.apps)+k/len(farmConfigs)], cfg: k % len(farmConfigs)}
}

// prepareFarm builds the seeded renamed variants of the six Table V
// applications plus process_hollowing and the reference answer of each
// (app, config) via in-process scenario.ReplayTrace of a recording.
func prepareFarm(b *bench) error {
	apps := []samples.Spec{samples.ProcessHollowing()}
	for _, w := range samples.PerfWorkloads() {
		apps = append(apps, w.Spec)
	}
	tf := &traceFarm{}
	for _, spec := range apps {
		base, err := newBaseSpec(spec)
		if err != nil {
			return err
		}
		tf.apps = append(tf.apps, &farmApp{base: base, refs: make([]*refAnswer, len(farmConfigs))})
	}
	err := parallel(b.clients, len(tf.apps), func(i int) error {
		app := tf.apps[i]
		data, _, _, err := scenario.RecordTrace(context.Background(), app.base.spec, nil)
		if err != nil {
			return fmt.Errorf("record %s: %w", app.base.name, err)
		}
		for ci := range farmConfigs {
			cfg := farmConfigs[ci]
			res, err := scenario.ReplayTrace(data, scenario.Plugins{Faros: &cfg})
			if err != nil {
				return fmt.Errorf("reference %s: %w", app.base.name, err)
			}
			if app.refs[ci], err = referenceOf(res); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	variant := func(app *farmApp, name string) *farmTrace {
		spec := app.base.spec
		spec.Name = name
		return &farmTrace{app: app, name: name, spec: spec}
	}
	n := farmRoundsPerClient * b.clients
	for v := 0; v < n; v++ {
		for _, app := range tf.apps {
			tf.traces = append(tf.traces, variant(app, fmt.Sprintf("%s~s%dv%d", app.base.name, b.seed, v)))
		}
	}
	for v := 0; v < n; v++ {
		t := variant(tf.apps[0], fmt.Sprintf("%s~s%dv%dx", tf.apps[0].base.name, b.seed, v))
		tf.extra = append(tf.extra, t)
		tf.traces = append(tf.traces, t)
	}
	b.farm = tf
	return b.loadCorpus()
}

// setupFarm launches farosd, then records every variant and uploads it
// with b.clients workers.
func setupFarm(b *bench, dir string) (*fleet, error) {
	s, err := launch(b, dir, "a")
	if err != nil {
		return nil, err
	}
	f := newFleet(b.clients, s)
	err = parallel(b.clients, len(b.farm.traces), func(i int) error {
		t := b.farm.traces[i]
		data, digest, _, err := scenario.RecordTrace(context.Background(), t.spec, nil)
		if err != nil {
			return fmt.Errorf("record %s: %w", t.name, err)
		}
		if t.digest != "" && t.digest != digest {
			return fmt.Errorf("record %s: digest %s differs from an earlier recording %s", t.name, digest, t.digest)
		}
		t.data, t.digest = data, digest
		body, status, err := f.do(context.Background(), http.MethodPost, s.url+"/traces", data, nil)
		if err == nil && status != http.StatusCreated {
			err = fmt.Errorf("POST /traces: %d %s", status, bytes.TrimSpace(body))
		}
		return err
	})
	if err != nil {
		_ = f.stop()
		return nil, err
	}
	return f, nil
}

// referenceOf summarizes an in-process run the way farosd serves it:
// findings in order, each scored by the default triage policy.
func referenceOf(res *scenario.Result) (*refAnswer, error) {
	fs := servedFindings(triage.Default(), res)
	data, err := json.Marshal(fs)
	if err != nil {
		return nil, err
	}
	return &refAnswer{
		flagged:      res.Flagged(),
		instructions: res.Summary.Instructions,
		risk:         aggregateRisk(fs),
		findings:     data,
	}, nil
}

// Mix shares and weights (see README.md for why each sits where it does)
// and pool sizes. hot-mixed deals its kinds in rounds of 200: 10% fresh
// specs, and hits split 30/30/25/15 between named, inline, result and
// prov reads. fleet-forward deals rounds of 100: 80 owner hits, 7 local
// and 13 forwarded cold jobs. A trace-farm round is one variant of every
// (app, config) pair, and a client's 60 rounds hold about 1800 distinct
// pairs, more than a 40 s run replays (≈30/s on two cores), so no stream
// runs out of distinct pairs. A fleet-forward client cycles through its
// 600 owner keys, more than the entry node's 512-entry result cache holds.
const (
	coldReadShare       = 0.2
	hotFresh            = 20
	hotNamed            = 54
	hotInline           = 54
	hotResult           = 45
	hotProv             = 27
	hotZipfS            = 1.1
	farmRepeatShare     = 0.5
	farmRoundsPerClient = 60
	farmExtra           = 2
	fleetOwnerHit       = 80
	fleetLocalCold      = 7
	fleetFwdCold        = 13
	fleetWarmPerClient  = 600
)
