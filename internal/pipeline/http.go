package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"faros/internal/core"
	"faros/internal/provgraph"
	"faros/internal/record"
	"faros/internal/samples"
	"faros/internal/scenario"
	"faros/internal/trace"
)

// ServerConfig wires the HTTP layer to a scenario namespace. The pipeline
// package stays below the faros facade, so the binary injects the corpus
// registry instead of importing it.
type ServerConfig struct {
	// Resolve maps a scenario name to its spec (nil disables submission
	// by name).
	Resolve func(name string) (samples.Spec, bool)
	// Names lists the scenario namespace for GET /scenarios.
	Names func() []string
	// Admission enables the admission-control front door: per-client
	// token-bucket rate limits and queue-saturation load shedding (429 +
	// Retry-After; cached/stored results keep serving while new work is
	// shed). nil disables both.
	Admission *AdmissionConfig
}

// AnalyzeRequest is the POST /analyze body. Exactly one of Scenario,
// ScenarioFile, Spec, or Trace selects the work. With Trace, one of the
// spec selectors may additionally be given: the server then verifies the
// trace was recorded from exactly that spec (409 on mismatch) instead of
// trusting the embedded one blindly.
type AnalyzeRequest struct {
	// Scenario names a built-in corpus entry.
	Scenario string `json:"scenario,omitempty"`
	// ScenarioFile is an inline bring-your-own-shellcode description in
	// the samples.ScenarioFile format. payload_hex only: payload_asm
	// names a server-side file and is rejected over HTTP.
	ScenarioFile *samples.ScenarioFile `json:"scenario_file,omitempty"`
	// Spec is a full serialized spec in the canonical wire form
	// (samples.MarshalSpec).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Trace selects a stored trace by digest for analysis-only replay
	// (mode "trace", the implied default when set).
	Trace string `json:"trace,omitempty"`

	// Mode is "detect" (default), "live", or "trace".
	Mode string `json:"mode,omitempty"`
	// Config overrides the live-mode engine configuration.
	Config *core.Config `json:"config,omitempty"`
	// TimeoutMS bounds the job's wall time (0 = server default). It is
	// capped at the server default when that is enabled; a negative value
	// is rejected with 400.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Wait makes the request block until the job settles and return the
	// finished job instead of 202.
	Wait bool `json:"wait,omitempty"`
	// NoCache bypasses the result cache for this job.
	NoCache bool `json:"no_cache,omitempty"`
}

type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

// statusClientClosedRequest is nginx's non-standard 499 "client closed
// request": the job stopped because its client went away, which is not a
// server fault — a cancellation surfacing as 5xx would page an operator
// for a client's own Ctrl-C (and trip the retrying client's 5xx logic).
const statusClientClosedRequest = 499

// errStatus maps typed errors onto HTTP statuses. Trace identity
// mismatches are 409 (the upload and the job disagree — resolvable by the
// client), malformed or legacy trace blobs are 400, and a replay that
// failed to reproduce its recording (record.DivergenceError) is 422: the
// request was well-formed but the trace cannot be processed faithfully.
// Deadline exhaustion (*scenario.DeadlineError, or anything wrapping
// context.DeadlineExceeded) is 504: the work timed out downstream of a
// well-formed request, and the retrying client treats 504 as retryable.
// Client cancellation (*scenario.CancelError / context.Canceled) is 499.
// Unrecognized errors map to 500.
func errStatus(err error) int {
	var he *httpError
	var mm *trace.MismatchError
	var ce *trace.CorruptError
	var le *trace.LegacyFormatError
	var dv *record.DivergenceError
	switch {
	case errors.As(err, &he):
		return he.status
	case errors.As(err, &mm):
		return http.StatusConflict
	case errors.As(err, &ce), errors.As(err, &le):
		return http.StatusBadRequest
	case errors.As(err, &dv):
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	}
	return http.StatusInternalServerError
}

// resolveSpec materializes the request's scenario selection and holds it
// to the max_instr ceiling.
func (sc ServerConfig) resolveSpec(req AnalyzeRequest) (samples.Spec, error) {
	selected := 0
	for _, on := range []bool{req.Scenario != "", req.ScenarioFile != nil, len(req.Spec) > 0} {
		if on {
			selected++
		}
	}
	if selected != 1 {
		return samples.Spec{}, &httpError{http.StatusBadRequest,
			"exactly one of scenario, scenario_file, spec must be set"}
	}
	var spec samples.Spec
	switch {
	case req.Scenario != "":
		if sc.Resolve == nil {
			return samples.Spec{}, &httpError{http.StatusBadRequest, "named scenarios are not enabled"}
		}
		var ok bool
		if spec, ok = sc.Resolve(req.Scenario); !ok {
			return samples.Spec{}, &httpError{http.StatusNotFound,
				fmt.Sprintf("unknown scenario %q (GET /scenarios lists the namespace)", req.Scenario)}
		}
	case req.ScenarioFile != nil:
		if req.ScenarioFile.PayloadASM != "" {
			return samples.Spec{}, &httpError{http.StatusBadRequest,
				"payload_asm names a server-side file; submit payload_hex over HTTP"}
		}
		var err error
		if spec, err = samples.BuildScenario(*req.ScenarioFile, ""); err != nil {
			return samples.Spec{}, &httpError{http.StatusBadRequest, err.Error()}
		}
	default:
		var err error
		if spec, err = samples.UnmarshalSpec(req.Spec); err != nil {
			return samples.Spec{}, &httpError{http.StatusBadRequest, err.Error()}
		}
	}
	return spec, checkMaxInstr(spec)
}

// maxSpecInstr is the largest instruction budget (a spec's max_instr) a
// submission may ask for. The job deadline bounds a worker's wall time
// only when the operator sets one; this bounds the guest work any request
// can demand. The largest built-in budget, the Table V perf workloads'
// (samples/perf.go), is 80M; 2^30 leaves bring-your-own specs more than
// ten times that, about ten seconds of live guest time on a 2-vCPU VM.
const maxSpecInstr = 1 << 30

// checkMaxInstr rejects a spec whose max_instr exceeds maxSpecInstr.
func checkMaxInstr(spec samples.Spec) error {
	if spec.MaxInstr > maxSpecInstr {
		return &httpError{http.StatusBadRequest,
			fmt.Sprintf("max_instr %d exceeds the server ceiling %d", spec.MaxInstr, maxSpecInstr)}
	}
	return nil
}

// maxAnalyzeBody bounds a POST /analyze body (413 beyond it). The largest
// built-in spec's wire form is under 6 KB; the bound leaves room for
// bring-your-own specs with sizeable images and only stops a hostile or
// accidental giant body from being decoded into memory.
const maxAnalyzeBody = 4 << 20

// jobTimeout turns a request's timeout_ms into the job's deadline: 0 keeps
// the server default, a negative value is rejected (it would otherwise run
// the job with no deadline at all), and a positive value is capped at the
// server's own deadline when that is enabled, so no client can hold a
// worker longer than the operator allows.
func jobTimeout(ms int64, server time.Duration) (time.Duration, error) {
	if ms < 0 {
		return 0, &httpError{http.StatusBadRequest, fmt.Sprintf("timeout_ms %d: must not be negative (0 = server default)", ms)}
	}
	if ms > int64(math.MaxInt64/time.Millisecond) {
		ms = int64(math.MaxInt64 / time.Millisecond)
	}
	timeout := time.Duration(ms) * time.Millisecond
	if server > 0 && timeout > server {
		timeout = server
	}
	return timeout, nil
}

// maxTraceUpload bounds a POST /traces body (413 beyond it). Encoded
// traces are a few hundred KB for the built-in corpus; the bound only stops
// a hostile or accidental multi-GB upload from exhausting memory.
const maxTraceUpload = 256 << 20

// bodyError maps a failure to read or decode a request body to its HTTP
// error: 413 when the body overran its http.MaxBytesReader bound, 400
// otherwise.
func bodyError(err error) *httpError {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	return &httpError{status, "body: " + err.Error()}
}

// resolveTrace validates a trace-selector submission: the trace must be
// stored, its memory-image digest must match the image this binary boots
// (typed 409 otherwise), and — when the client also names a spec — the
// trace's spec hash must match that spec (409 again). Returns the trace's
// embedded spec, which the job carries for display.
func resolveTrace(p *Pool, sc ServerConfig, req AnalyzeRequest) (samples.Spec, error) {
	traces := p.Traces()
	if traces == nil {
		return samples.Spec{}, &httpError{http.StatusBadRequest, "trace analysis is not enabled (farosd has no trace store)"}
	}
	info, ok := traces.Stat(req.Trace)
	if !ok {
		return samples.Spec{}, &httpError{http.StatusNotFound,
			fmt.Sprintf("no stored trace %s (POST /traces to upload, GET /traces to list)", req.Trace)}
	}
	spec, err := scenario.VerifyTraceMeta(info.Meta)
	if err != nil {
		var mm *trace.MismatchError
		if errors.As(err, &mm) {
			p.metrics.add(func(m *Stats) { m.Trace.DigestMismatch++ })
		}
		return samples.Spec{}, err
	}
	if err := checkMaxInstr(spec); err != nil {
		return samples.Spec{}, err
	}
	if req.Scenario != "" || req.ScenarioFile != nil || len(req.Spec) > 0 {
		want, err := sc.resolveSpec(req)
		if err != nil {
			return samples.Spec{}, err
		}
		wantHash, err := samples.SpecHash(want)
		if err != nil {
			return samples.Spec{}, &httpError{http.StatusBadRequest, err.Error()}
		}
		if wantHash != info.SpecHash {
			p.metrics.add(func(m *Stats) { m.Trace.DigestMismatch++ })
			return samples.Spec{}, &trace.MismatchError{Field: "spec hash", Want: info.SpecHash, Got: wantHash}
		}
	}
	return spec, nil
}

// NewHandler builds the farosd HTTP API over a pool:
//
//	POST /traces           upload an encoded trace (verified end-to-end,
//	                       deduplicated by content digest)
//	GET  /traces           list stored traces (headers only)
//	GET  /traces/{digest}  one stored trace's header (?raw=1 for the bytes)
//	POST /analyze          submit a job (optionally waiting for the result)
//	GET  /jobs/{id}        job status + result (settled jobs answer from the
//	                       retention ring until count/age evicts them → 404)
//	GET  /jobs/{id}/events the job's append-only audit-ledger timeline
//	GET  /events           live Server-Sent-Events stream of job transitions,
//	                       admission rejections, and scored findings
//	POST /jobs/{id}/cancel detach this waiter (coalesced peers unaffected)
//	GET  /results/{hash}   cached result by cache key
//	GET  /results/{hash}/prov?format=json|dot|text
//	                       the result's merged provenance graph
//	GET  /metrics          Prometheus text exposition
//	GET  /stats            Stats snapshot as JSON
//	GET  /scenarios        scenario namespace
//	GET  /healthz          liveness (process is up, nothing more)
//	GET  /readyz           readiness: queue saturation, drain state, store
//	                       health (503 while not ready)
//
// With ServerConfig.Admission set, POST /analyze sits behind admission
// control: per-client rate limiting and queue-saturation shedding both
// answer 429 with a Retry-After header. While shedding, requests whose
// result is already in the cache or the persistent store are still
// served — overload degrades farosd to a read-only result server instead
// of letting the queue grow without bound.
func NewHandler(p *Pool, cfg ServerConfig) http.Handler {
	mux := http.NewServeMux()
	var adm *admission
	if cfg.Admission != nil {
		adm = newAdmission(*cfg.Admission)
	}

	writeJSON := func(w http.ResponseWriter, status int, v any) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_ = json.NewEncoder(w).Encode(v)
	}
	writeErr := func(w http.ResponseWriter, err error) {
		writeJSON(w, errStatus(err), map[string]string{"error": err.Error()})
	}
	// writeRetryable is a back-pressure rejection: the client should retry
	// after the hinted delay (pipeline/client does so automatically).
	writeRetryable := func(w http.ResponseWriter, status int, after time.Duration, msg string) {
		secs := int(math.Ceil(math.Max(after.Seconds(), 1)))
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, status, map[string]string{"error": msg})
	}

	// forwardAnalyze routes a non-owned submission to its owning peer.
	// The local memory cache and persistent store are consulted first (a
	// hit never leaves the node), the forward always waits server-side
	// (owner-side job IDs are not resolvable here, so the entry node
	// returns the settled view), and a successful answer is backfilled
	// into the local cache/store so repeat submissions and result reads
	// become local hits. A down or failing owner degrades to local
	// execution — the analysis is deterministic on every node, so only
	// cache locality is lost, never correctness. Returns true when the
	// response has been written; false means "run the local path".
	forwardAnalyze := func(w http.ResponseWriter, r *http.Request, req AnalyzeRequest, preq Request, forwardedFrom string) bool {
		cl := p.cfg.Cluster
		if cl == nil || forwardedFrom != "" {
			return false // single-node, or the hop guard terminates the loop
		}
		key := ShardKey(preq)
		if key == "" {
			return false
		}
		node, self, up := cl.Owner(key)
		if self {
			return false
		}
		if job, ok := p.CachedJob(preq); ok {
			view, _ := p.View(job.ID)
			writeJSON(w, http.StatusOK, view)
			return true
		}
		if up {
			fwd := req
			fwd.Wait = true
			view, err := cl.AnalyzePeer(r.Context(), node, fwd)
			if err == nil {
				p.metrics.add(func(m *Stats) { m.Cluster.ForwardedOut++ })
				if view.Result != nil && view.State == StateDone {
					p.Backfill(view.Result)
				}
				writeJSON(w, http.StatusOK, view)
				return true
			}
			var fe *ForwardError
			if errors.As(err, &fe) {
				if fe.relayable() {
					// A deterministic rejection (400/409/422): the same
					// request would fail identically here — relay it.
					writeJSON(w, fe.Status, map[string]string{"error": fe.Msg})
					return true
				}
				if fe.Status == http.StatusNotFound {
					// Node-local state (an unreplicated trace, an evicted
					// result): try locally without counting the owner down.
					return false
				}
			}
		}
		p.metrics.add(func(m *Stats) { m.Cluster.OwnerDownLocalRuns++ })
		return false
	}

	mux.HandleFunc("POST /analyze", func(w http.ResponseWriter, r *http.Request) {
		forwardedFrom := r.Header.Get(ForwardedHeader)
		if forwardedFrom != "" {
			// Fleet-internal traffic: the origin node already admitted the
			// client, so the per-client rate limit does not apply twice
			// (queue-saturation shedding below still does).
			p.metrics.add(func(m *Stats) { m.Cluster.ForwardedIn++ })
		} else if adm != nil {
			if ok, after := adm.allow(clientKey(r.RemoteAddr)); !ok {
				p.NoteRateLimited()
				writeRetryable(w, http.StatusTooManyRequests, after, "rate limit exceeded")
				return
			}
		}
		var req AnalyzeRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxAnalyzeBody)).Decode(&req); err != nil {
			writeErr(w, bodyError(err))
			return
		}
		timeout, err := jobTimeout(req.TimeoutMS, p.cfg.JobTimeout)
		if err != nil {
			writeErr(w, err)
			return
		}
		preq := Request{
			Timeout: timeout,
			NoCache: req.NoCache,
		}
		if req.Config != nil {
			preq.Config = *req.Config
		}
		if req.Trace != "" {
			if req.Mode != "" && req.Mode != string(ModeTrace) {
				writeErr(w, &httpError{http.StatusBadRequest,
					fmt.Sprintf("a trace selector implies mode %q, not %q", ModeTrace, req.Mode)})
				return
			}
			preq.Mode = ModeTrace
			preq.TraceDigest = req.Trace
			// Routing happens before local validation: the owner holds
			// the replicated trace even when this node never ingested it.
			if forwardAnalyze(w, r, req, preq, forwardedFrom) {
				return
			}
			spec, err := resolveTrace(p, cfg, req)
			if err != nil {
				writeErr(w, err)
				return
			}
			preq.Spec = spec
		} else {
			switch req.Mode {
			case "", string(ModeDetect):
				preq.Mode = ModeDetect
			case string(ModeLive):
				preq.Mode = ModeLive
			case string(ModeTrace):
				writeErr(w, &httpError{http.StatusBadRequest,
					`mode "trace" needs a trace digest selector (POST /traces to upload one)`})
				return
			default:
				writeErr(w, &httpError{http.StatusBadRequest, fmt.Sprintf("unknown mode %q", req.Mode)})
				return
			}
			spec, err := cfg.resolveSpec(req)
			if err != nil {
				writeErr(w, err)
				return
			}
			preq.Spec = spec
			if forwardAnalyze(w, r, req, preq, forwardedFrom) {
				return
			}
		}
		var job *Job
		if adm != nil && adm.shedding(p) {
			// Overload mode: only already-available results are served;
			// anything needing execution sheds with a retry hint.
			cached, ok := p.CachedJob(preq)
			if !ok {
				p.NoteShed(preq.Spec.Name)
				writeRetryable(w, http.StatusTooManyRequests, adm.cfg.RetryAfter,
					"queue saturated; serving cached results only")
				return
			}
			job = cached
		} else {
			var err error
			job, err = p.Submit(preq)
			retryAfter := time.Second
			if adm != nil {
				retryAfter = adm.cfg.RetryAfter
			}
			switch {
			case err == ErrQueueFull:
				writeRetryable(w, http.StatusTooManyRequests, retryAfter, err.Error())
				return
			case err == ErrDraining, err == ErrClosed:
				writeRetryable(w, http.StatusServiceUnavailable, retryAfter, err.Error())
				return
			case err != nil:
				writeErr(w, err)
				return
			}
		}
		if req.Wait {
			view, err := p.Wait(r.Context(), job)
			if err != nil {
				writeErr(w, &httpError{http.StatusRequestTimeout, err.Error()})
				return
			}
			// A waited job that failed with a typed error (trace identity
			// mismatch, replay divergence, deadline exhaustion) or was
			// canceled answers with the mapped status; other failures keep
			// the 200-with-error-field contract. The view is still the
			// body either way, so the client always sees the job's state.
			status := http.StatusOK
			if view.State == StateFailed || view.State == StateCanceled {
				if jerr := p.JobErr(job); jerr != nil {
					if st := errStatus(jerr); st != http.StatusInternalServerError {
						status = st
					}
				}
			}
			writeJSON(w, status, view)
			return
		}
		view, _ := p.View(job.ID)
		writeJSON(w, http.StatusAccepted, view)
	})

	mux.HandleFunc("POST /traces", func(w http.ResponseWriter, r *http.Request) {
		traces := p.Traces()
		if traces == nil {
			writeErr(w, &httpError{http.StatusBadRequest, "trace ingestion is not enabled (farosd has no trace store)"})
			return
		}
		if r.ContentLength > maxTraceUpload {
			// Refuse a declared oversize body before reading any of it.
			writeErr(w, bodyError(&http.MaxBytesError{Limit: maxTraceUpload}))
			return
		}
		data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxTraceUpload))
		if err != nil {
			writeErr(w, bodyError(err))
			return
		}
		digest, created, err := traces.Put(data)
		if err != nil {
			// Corrupt and legacy-format blobs map to 400 via errStatus; a
			// store write failure stays 500.
			writeErr(w, err)
			return
		}
		if created {
			p.metrics.add(func(m *Stats) { m.Trace.Ingested++; m.Trace.Bytes += uint64(len(data)) })
		}
		if forwardedFrom := r.Header.Get(ForwardedHeader); forwardedFrom != "" {
			p.metrics.add(func(m *Stats) { m.Cluster.ForwardedIn++ })
		} else if cl := p.cfg.Cluster; cl != nil {
			// Replicate the trace to its ring owner so trace-replay jobs
			// routed there resolve it locally. A failed replication is
			// non-fatal: the bytes are stored here, and an analyze for
			// this digest degrades to local execution while the owner is
			// unreachable.
			if node, self, up := cl.Owner(digest); !self && up {
				if _, err := cl.TracePeer(r.Context(), node, data); err == nil {
					p.metrics.add(func(m *Stats) { m.Cluster.ForwardedOut++ })
				}
			}
		}
		info, _ := traces.Stat(digest)
		status := http.StatusOK // dedup: already stored
		if created {
			status = http.StatusCreated
		}
		writeJSON(w, status, map[string]any{"digest": digest, "created": created, "trace": info})
	})

	mux.HandleFunc("GET /traces", func(w http.ResponseWriter, r *http.Request) {
		traces := p.Traces()
		if traces == nil {
			writeJSON(w, http.StatusOK, map[string]any{"traces": []trace.Info{}})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"traces": traces.List()})
	})

	mux.HandleFunc("GET /traces/{digest}", func(w http.ResponseWriter, r *http.Request) {
		traces := p.Traces()
		digest := r.PathValue("digest")
		if traces == nil {
			writeErr(w, &httpError{http.StatusNotFound, "no stored trace " + digest})
			return
		}
		if r.URL.Query().Get("raw") != "" {
			data, ok := traces.Get(digest)
			if !ok {
				writeErr(w, &httpError{http.StatusNotFound, "no stored trace " + digest})
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			_, _ = w.Write(data)
			return
		}
		info, ok := traces.Stat(digest)
		if !ok {
			writeErr(w, &httpError{http.StatusNotFound, "no stored trace " + digest})
			return
		}
		writeJSON(w, http.StatusOK, info)
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		view, ok := p.View(r.PathValue("id"))
		if !ok {
			writeErr(w, &httpError{http.StatusNotFound, "unknown job " + r.PathValue("id")})
			return
		}
		writeJSON(w, http.StatusOK, view)
	})

	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		events, ok := p.JobEvents(id)
		if !ok {
			writeErr(w, &httpError{http.StatusNotFound,
				"no event timeline for job " + id + " (unknown, or evicted from the ledger)"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"job": id, "events": events})
	})

	// GET /events is a Server-Sent-Events stream of every lifecycle event:
	// job transitions (submitted, coalesced, cache_hit, done, failed,
	// canceled), admission rejections (shed, rate_limited), degradations,
	// and scored findings (flagged). Frames carry the hub sequence number
	// as the SSE id — a gap means this subscriber was too slow and events
	// were dropped for it rather than back-pressuring the pipeline.
	mux.HandleFunc("GET /events", func(w http.ResponseWriter, r *http.Request) {
		flusher, ok := w.(http.Flusher)
		if !ok {
			writeErr(w, &httpError{http.StatusInternalServerError, "streaming unsupported"})
			return
		}
		sub := p.Subscribe(256)
		defer sub.Close()
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
		w.Header().Set("Connection", "keep-alive")
		w.WriteHeader(http.StatusOK)
		// An immediate comment both commits the headers and tells the
		// client the stream is live before any event fires.
		fmt.Fprint(w, ": stream open\n\n")
		flusher.Flush()
		heartbeat := time.NewTicker(15 * time.Second)
		defer heartbeat.Stop()
		for {
			select {
			case <-r.Context().Done():
				return
			case <-heartbeat.C:
				fmt.Fprint(w, ": heartbeat\n\n")
				flusher.Flush()
			case e, open := <-sub.Events():
				if !open {
					return // pool shut down
				}
				data, err := json.Marshal(e)
				if err != nil {
					continue
				}
				fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
				flusher.Flush()
			}
		}
	})

	mux.HandleFunc("POST /jobs/{id}/cancel", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if p.Cancel(id) {
			view, _ := p.View(id)
			writeJSON(w, http.StatusOK, view)
			return
		}
		if _, ok := p.View(id); ok {
			writeErr(w, &httpError{http.StatusConflict, "job " + id + " already settled"})
			return
		}
		writeErr(w, &httpError{http.StatusNotFound, "unknown job " + id})
	})

	// lookupResult answers a result read: local cache and persistent
	// store first, then — for client-originated reads on a cluster node —
	// the up peers in ring-walk order (owner first, replicas after). A
	// peer hit is backfilled locally so the next read is a local hit. The
	// hop guard keeps peer-originated reads strictly local.
	lookupResult := func(r *http.Request, hash string) (*Result, bool) {
		if res, ok := p.ResultByHash(hash); ok {
			return res, true
		}
		cl := p.cfg.Cluster
		if cl == nil {
			return nil, false
		}
		if r.Header.Get(ForwardedHeader) != "" {
			p.metrics.add(func(m *Stats) { m.Cluster.ForwardedIn++ })
			return nil, false
		}
		for _, node := range cl.WalkUp(hash) {
			res, err := cl.ResultPeer(r.Context(), node, hash)
			if err != nil {
				continue
			}
			p.metrics.add(func(m *Stats) { m.Cluster.ForwardedOut++ })
			p.Backfill(res)
			return res, true
		}
		return nil, false
	}

	mux.HandleFunc("GET /results/{hash}", func(w http.ResponseWriter, r *http.Request) {
		res, ok := lookupResult(r, r.PathValue("hash"))
		if !ok {
			writeErr(w, &httpError{http.StatusNotFound, "no cached result for " + r.PathValue("hash")})
			return
		}
		writeJSON(w, http.StatusOK, res)
	})

	mux.HandleFunc("GET /results/{hash}/prov", func(w http.ResponseWriter, r *http.Request) {
		res, ok := lookupResult(r, r.PathValue("hash"))
		if !ok {
			writeErr(w, &httpError{http.StatusNotFound, "no cached result for " + r.PathValue("hash")})
			return
		}
		format := r.URL.Query().Get("format")
		if format == "" {
			format = "json"
		}
		g := res.Prov
		if g == nil {
			g = provgraph.Merge() // clean run: canonical empty graph
		}
		body, err := g.Encode(format)
		if err != nil {
			writeErr(w, &httpError{http.StatusBadRequest, err.Error()})
			return
		}
		switch format {
		case "json":
			w.Header().Set("Content-Type", "application/json")
		default:
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		}
		fmt.Fprint(w, body)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprint(w, p.Stats().Prometheus())
	})

	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, p.Stats())
	})

	mux.HandleFunc("GET /scenarios", func(w http.ResponseWriter, r *http.Request) {
		names := []string{}
		if cfg.Names != nil {
			names = cfg.Names()
		}
		writeJSON(w, http.StatusOK, map[string][]string{"scenarios": names})
	})

	// /healthz is pure liveness: the process is up and serving HTTP.
	// Everything that can degrade — queue saturation, drain state, store
	// health — belongs to /readyz, so an overloaded or draining farosd is
	// taken out of rotation without being restarted.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		rd := Readiness{
			Draining:        p.Draining(),
			QueueSaturation: p.QueueSaturation(),
			Store:           "disabled",
		}
		if adm != nil {
			rd.Shedding = adm.shedding(p)
		}
		storeOK := true
		if p.cfg.Store != nil {
			if err := p.StoreErr(); err != nil {
				rd.Store = "degraded: " + err.Error()
				storeOK = false
			} else {
				rd.Store = "ok"
			}
		}
		if cl := p.cfg.Cluster; cl != nil {
			rd.Node = cl.NodeID()
			rd.Peers = cl.PeerHealth()
			for _, ph := range rd.Peers {
				if ph.Up {
					rd.PeersUp++
				} else {
					rd.PeersDown++
				}
			}
		}
		// Peer health is reported but never gates readiness: a node with
		// every peer down still serves correct answers by degrading to
		// local execution, so only local conditions may return 503.
		rd.Ready = !rd.Draining && !rd.Shedding && storeOK
		status := http.StatusOK
		if !rd.Ready {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, rd)
	})

	return mux
}

// Readiness is the GET /readyz body: whether farosd should receive new
// traffic, and why not when it shouldn't.
type Readiness struct {
	Ready           bool    `json:"ready"`
	Draining        bool    `json:"draining"`
	Shedding        bool    `json:"shedding"`
	QueueSaturation float64 `json:"queue_saturation"`
	// Store is "disabled", "ok", or "degraded: <last write error>".
	Store string `json:"store"`
	// Node and the peer fields appear in cluster mode. Peer health never
	// flips Ready: a fully partitioned node degrades to local execution
	// instead of leaving rotation.
	Node      string       `json:"node,omitempty"`
	PeersUp   int          `json:"peers_up,omitempty"`
	PeersDown int          `json:"peers_down,omitempty"`
	Peers     []PeerHealth `json:"peers,omitempty"`
}
