package pipeline

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"faros/internal/store"
	"faros/internal/vm"
)

// latencyBuckets are the histogram upper bounds in seconds. Guest runs
// span sub-millisecond microbenchmarks to multi-second corpus sweeps.
var latencyBuckets = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// histogram is a fixed-bucket latency histogram (cumulative on render,
// per-bucket internally).
type histogram struct {
	counts []uint64
	sum    float64
	n      uint64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]uint64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(seconds float64) {
	h.sum += seconds
	h.n++
	for i, le := range latencyBuckets {
		if seconds <= le {
			h.counts[i]++
			return
		}
	}
	h.counts[len(latencyBuckets)]++
}

// ClusterStats counts the cross-node surface: requests received from
// peers (they carried the hop-guard header), requests this node
// forwarded to their owner, peer results backfilled into the local
// cache/store, and requests that degraded to local execution because
// their owner was down.
type ClusterStats struct {
	ForwardedIn        uint64 `json:"forwarded_in"`
	ForwardedOut       uint64 `json:"forwarded_out"`
	Backfills          uint64 `json:"backfills"`
	OwnerDownLocalRuns uint64 `json:"owner_down_local_runs"`
}

// TaintStats aggregates the taint engine's fast-path counters across
// completed FAROS jobs: how often propagation was answered from the memo
// tables, how much shadow traffic the page summaries skipped, and how much
// taint the runs left behind. Memo hit rates near 1 and large skip counts
// are the signature of the optimized hot path doing its job.
type TaintStats struct {
	Prepends        uint64 `json:"prepends"`
	PrependMemoHits uint64 `json:"prepend_memo_hits"`
	Unions          uint64 `json:"unions"`
	UnionMemoHits   uint64 `json:"union_memo_hits"`
	ShadowWrites    uint64 `json:"shadow_writes"`
	RangeFastSkips  uint64 `json:"range_fast_skips"`
	InstrProvHits   uint64 `json:"instr_prov_hits"`
	TaintedBytes    uint64 `json:"tainted_bytes"`
	TaintedPages    uint64 `json:"tainted_pages"`
}

// ProvStats aggregates provenance-graph construction across completed
// FAROS jobs: graphs built (findings and taint-map regions) and the nodes
// and edges those builds produced.
type ProvStats struct {
	Builds uint64 `json:"builds"`
	Nodes  uint64 `json:"nodes"`
	Edges  uint64 `json:"edges"`
}

// TraceStats counts the replay-farm surface: traces ingested through
// POST /traces (new store entries only — dedup re-uploads don't count),
// the encoded bytes those ingests carried, analysis-only replays executed
// by ModeTrace jobs, and submissions rejected because a trace's identity
// digests did not match the job.
type TraceStats struct {
	Ingested       uint64 `json:"ingested"`
	Bytes          uint64 `json:"bytes"`
	Replays        uint64 `json:"replays"`
	DigestMismatch uint64 `json:"digest_mismatch"`
}

// metrics is the pool's metric state: the counter fields of one Stats
// value plus the latency histogram, both guarded by mu. Gauge fields of
// the Stats value stay zero here; Pool.Stats fills them on the snapshot.
type metrics struct {
	mu  sync.Mutex
	s   Stats
	lat *histogram
}

func newMetrics() *metrics {
	return &metrics{
		s: Stats{
			FindingsByRule: make(map[string]uint64),
			FindingsByRisk: make(map[string]uint64),
			ResultsByRisk:  make(map[string]uint64),
		},
		lat: newHistogram(),
	}
}

func (m *metrics) add(f func(*Stats)) {
	m.mu.Lock()
	f(&m.s)
	m.mu.Unlock()
}

// observe records one completed job's wall time.
func (m *metrics) observe(d time.Duration) {
	m.mu.Lock()
	m.lat.observe(d.Seconds())
	m.mu.Unlock()
}

// LatencyBucket is one cumulative histogram bucket; LE is the upper bound
// in seconds (math.Inf(1) for the overflow bucket).
type LatencyBucket struct {
	LE    float64
	Count uint64
}

// Stats is an immutable snapshot of the pool's observable state. Both the
// CLI (farosbench progress, farosd logs) and the HTTP layer (/metrics,
// /stats) render this one type. Its counter fields are also the pool's
// live metric state (metrics.s), so a new counter is one field here plus
// its lines in Prometheus and, when it belongs in the summary, String.
type Stats struct {
	Workers      int `json:"workers"`
	QueueDepth   int `json:"queue_depth"`
	Running      int `json:"running"`
	CacheEntries int `json:"cache_entries"`
	// JobsActive is the size of the active (queued/running) registry;
	// JobsRetained the size of the terminal-job retention ring. Together
	// they bound farosd's per-job memory regardless of traffic volume.
	JobsActive   int `json:"jobs_active"`
	JobsRetained int `json:"jobs_retained"`
	// WaitersCoalesced counts waiter handles currently sharing an
	// in-flight run with at least one peer (the beyond-the-first waiters).
	WaitersCoalesced int `json:"waiters_coalesced"`

	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsCoalesced uint64 `json:"jobs_coalesced"`
	JobsDone      uint64 `json:"jobs_done"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsDeadline  uint64 `json:"jobs_deadline"`
	JobsCanceled  uint64 `json:"jobs_canceled"`
	QueueFull     uint64 `json:"queue_full"`

	// AdmissionShed counts submissions rejected with 429 because the
	// queue passed the shed threshold and the result was not already
	// cached or stored; AdmissionRateLimited counts per-client
	// token-bucket rejections.
	AdmissionShed        uint64 `json:"admission_shed"`
	AdmissionRateLimited uint64 `json:"admission_rate_limited"`

	// StoreEnabled reports whether a persistent store is configured;
	// Store is its counters (entries/bytes gauges, hit/miss/quarantine/GC
	// totals).
	StoreEnabled bool        `json:"store_enabled"`
	Store        store.Stats `json:"store"`

	// TraceStoreEnabled reports whether a trace store is configured;
	// TraceStore is the underlying content-addressed store's counters and
	// Trace the replay-farm counters (ingests, replays, mismatches).
	TraceStoreEnabled bool        `json:"trace_store_enabled"`
	TraceStore        store.Stats `json:"trace_store"`
	Trace             TraceStats  `json:"trace"`

	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
	// CacheExpired counts entries dropped at lookup because their TTL
	// passed; CacheSkippedDegraded counts degraded results the cache
	// policy refused to insert.
	CacheExpired         uint64 `json:"cache_expired"`
	CacheSkippedDegraded uint64 `json:"cache_skipped_degraded"`

	// TriageEnabled reports whether a risk policy is active; TriagePolicy
	// is its content hash. FindingsByRisk / ResultsByRisk count scored
	// findings and completed results by risk level.
	TriageEnabled  bool              `json:"triage_enabled"`
	TriagePolicy   string            `json:"triage_policy,omitempty"`
	FindingsByRisk map[string]uint64 `json:"findings_by_risk,omitempty"`
	ResultsByRisk  map[string]uint64 `json:"results_by_risk,omitempty"`

	// ClusterEnabled reports whether this node runs in cluster mode;
	// ClusterNode is its node ID and ClusterPeers the probed health of
	// every peer. Cluster holds the forwarding counters.
	ClusterEnabled bool         `json:"cluster_enabled"`
	ClusterNode    string       `json:"cluster_node,omitempty"`
	ClusterPeers   []PeerHealth `json:"cluster_peers,omitempty"`
	Cluster        ClusterStats `json:"cluster"`

	// EventsPublished / EventsDropped are the live event hub's counters
	// (drops are per-subscriber deliveries lost to slowness, never
	// back-pressure); EventSubscribers the current GET /events consumers.
	// LedgerJobs / LedgerEvicted gauge the audit ledger.
	EventsPublished  uint64 `json:"events_published"`
	EventsDropped    uint64 `json:"events_dropped"`
	EventSubscribers int    `json:"event_subscribers"`
	LedgerJobs       int    `json:"ledger_jobs"`
	LedgerEvicted    uint64 `json:"ledger_evicted"`

	Instructions   uint64            `json:"instructions"`
	FindingsByRule map[string]uint64 `json:"findings_by_rule,omitempty"`
	Taint          TaintStats        `json:"taint"`
	Prov           ProvStats         `json:"prov"`
	// Block sums the block-dispatch counters of completed FAROS jobs. High
	// hit and fast-block counts against low builds and invalidations are
	// the signature of the fused dispatcher paying off.
	Block vm.BlockStats `json:"block"`

	LatencyCount   uint64          `json:"latency_count"`
	LatencySum     time.Duration   `json:"latency_sum_ns"`
	LatencyBuckets []LatencyBucket `json:"-"`
}

// snapshot copies the counters, with maps and latency histogram of their
// own, into a Stats value the caller owns.
func (m *metrics) snapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.s
	s.FindingsByRule = maps.Clone(m.s.FindingsByRule)
	s.FindingsByRisk = maps.Clone(m.s.FindingsByRisk)
	s.ResultsByRisk = maps.Clone(m.s.ResultsByRisk)
	s.LatencyCount = m.lat.n
	s.LatencySum = time.Duration(m.lat.sum * float64(time.Second))
	cum := uint64(0)
	for i, le := range latencyBuckets {
		cum += m.lat.counts[i]
		s.LatencyBuckets = append(s.LatencyBuckets, LatencyBucket{LE: le, Count: cum})
	}
	cum += m.lat.counts[len(latencyBuckets)]
	s.LatencyBuckets = append(s.LatencyBuckets, LatencyBucket{LE: math.Inf(1), Count: cum})
	return s
}

// rate is hits/total, 0 when total is zero.
func rate(hits, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// CacheHitRate is hits / (hits + misses), 0 when no cacheable submissions
// have been seen.
func (s Stats) CacheHitRate() float64 { return rate(s.CacheHits, s.CacheHits+s.CacheMisses) }

// String renders a compact human-readable report (the CLI surface).
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pipeline: %d workers, %d queued, %d running, %d active / %d retained jobs, %d cached results\n",
		s.Workers, s.QueueDepth, s.Running, s.JobsActive, s.JobsRetained, s.CacheEntries)
	fmt.Fprintf(&sb, "jobs: %d submitted, %d done, %d failed (%d deadline), %d canceled, %d coalesced, %d queue-full\n",
		s.JobsSubmitted, s.JobsDone, s.JobsFailed, s.JobsDeadline, s.JobsCanceled, s.JobsCoalesced, s.QueueFull)
	fmt.Fprintf(&sb, "cache: %d hits, %d misses (%.0f%% hit rate), %d expired, %d degraded skipped\n",
		s.CacheHits, s.CacheMisses, 100*s.CacheHitRate(), s.CacheExpired, s.CacheSkippedDegraded)
	if s.StoreEnabled {
		fmt.Fprintf(&sb, "store: %d entries (%d bytes), %d hits, %d misses, %d quarantined, %d gc-evicted\n",
			s.Store.Entries, s.Store.Bytes, s.Store.Hits, s.Store.Misses,
			s.Store.CorruptQuarantined, s.Store.GCEvicted)
	}
	if s.TraceStoreEnabled {
		fmt.Fprintf(&sb, "traces: %d stored (%d bytes on disk), %d ingested (%d bytes), %d replays, %d digest mismatches\n",
			s.TraceStore.Entries, s.TraceStore.Bytes,
			s.Trace.Ingested, s.Trace.Bytes, s.Trace.Replays, s.Trace.DigestMismatch)
	}
	if s.AdmissionShed+s.AdmissionRateLimited > 0 {
		fmt.Fprintf(&sb, "admission: %d shed, %d rate-limited\n", s.AdmissionShed, s.AdmissionRateLimited)
	}
	if s.TriageEnabled {
		fmt.Fprintf(&sb, "triage: policy %.12s, results", s.TriagePolicy)
		for _, risk := range []string{"high", "medium", "low"} {
			fmt.Fprintf(&sb, " %s=%d", risk, s.ResultsByRisk[risk])
		}
		sb.WriteString(", findings")
		for _, risk := range []string{"high", "medium", "low"} {
			fmt.Fprintf(&sb, " %s=%d", risk, s.FindingsByRisk[risk])
		}
		sb.WriteByte('\n')
	}
	if s.ClusterEnabled {
		up := 0
		for _, p := range s.ClusterPeers {
			if p.Up {
				up++
			}
		}
		fmt.Fprintf(&sb, "cluster: node %s, %d/%d peers up, %d forwarded out, %d in, %d backfills, %d owner-down local runs\n",
			s.ClusterNode, up, len(s.ClusterPeers),
			s.Cluster.ForwardedOut, s.Cluster.ForwardedIn,
			s.Cluster.Backfills, s.Cluster.OwnerDownLocalRuns)
	}
	if s.EventsPublished > 0 || s.EventSubscribers > 0 {
		fmt.Fprintf(&sb, "events: %d published, %d dropped, %d subscribers; ledger %d jobs (%d evicted)\n",
			s.EventsPublished, s.EventsDropped, s.EventSubscribers, s.LedgerJobs, s.LedgerEvicted)
	}
	fmt.Fprintf(&sb, "guest: %d instructions executed\n", s.Instructions)
	if t := s.Taint; t.Prepends+t.Unions+t.ShadowWrites > 0 {
		fmt.Fprintf(&sb, "taint: %d prepends (%.0f%% memoized), %d unions (%.0f%% memoized), %d shadow writes, %d page skips, %d instr-prov hits\n",
			t.Prepends, 100*rate(t.PrependMemoHits, t.Prepends),
			t.Unions, 100*rate(t.UnionMemoHits, t.Unions),
			t.ShadowWrites, t.RangeFastSkips, t.InstrProvHits)
	}
	if p := s.Prov; p.Builds > 0 {
		fmt.Fprintf(&sb, "provgraph: %d graphs built (%d nodes, %d edges)\n", p.Builds, p.Nodes, p.Edges)
	}
	if b := s.Block; b.Built+b.Hits > 0 {
		fmt.Fprintf(&sb, "blocks: %d built, %d hits (%.0f%% hit rate), %d invalidated, %d fused ops, %d untainted fast blocks\n",
			b.Built, b.Hits, 100*rate(b.Hits, b.Built+b.Hits), b.Invalidated, b.FusedOps, b.UntaintedFastBlocks)
	}
	if len(s.FindingsByRule) > 0 {
		rules := make([]string, 0, len(s.FindingsByRule))
		for rule := range s.FindingsByRule {
			rules = append(rules, rule)
		}
		sort.Strings(rules)
		sb.WriteString("findings:")
		for _, rule := range rules {
			fmt.Fprintf(&sb, " %s=%d", rule, s.FindingsByRule[rule])
		}
		sb.WriteByte('\n')
	}
	if s.LatencyCount > 0 {
		fmt.Fprintf(&sb, "latency: %d jobs, %v total, %v mean\n",
			s.LatencyCount, s.LatencySum.Round(time.Millisecond),
			(s.LatencySum / time.Duration(s.LatencyCount)).Round(time.Microsecond))
	}
	return sb.String()
}

// Prometheus renders the snapshot in the Prometheus text exposition
// format (the /metrics surface).
func (s Stats) Prometheus() string {
	var sb strings.Builder
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int) {
		fmt.Fprintf(&sb, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	gauge("faros_workers", "Worker pool size.", s.Workers)
	gauge("faros_jobs_queued", "Jobs waiting in the queue.", s.QueueDepth)
	gauge("faros_jobs_running", "Jobs currently executing.", s.Running)
	gauge("faros_cache_entries", "Results held in the cache.", s.CacheEntries)
	gauge("faros_jobs_active", "Waiter handles in the active (queued/running) registry.", s.JobsActive)
	gauge("faros_jobs_retained", "Terminal jobs held in the retention ring.", s.JobsRetained)
	gauge("faros_waiters_coalesced", "Waiters currently sharing an in-flight run with a peer.", s.WaitersCoalesced)
	counter("faros_jobs_submitted_total", "Jobs accepted into the queue.", s.JobsSubmitted)
	counter("faros_jobs_coalesced_total", "Submissions coalesced onto an in-flight identical run.", s.JobsCoalesced)
	counter("faros_jobs_done_total", "Waiter handles settled successfully.", s.JobsDone)
	counter("faros_jobs_failed_total", "Waiter handles settled failed (including deadline expiries).", s.JobsFailed)
	counter("faros_jobs_deadline_total", "Runs cancelled by their deadline.", s.JobsDeadline)
	counter("faros_jobs_canceled_total", "Waiter handles cancelled by request.", s.JobsCanceled)
	counter("faros_queue_full_total", "Submissions rejected because the queue was at capacity.", s.QueueFull)
	counter("faros_admission_shed_total", "Submissions shed with 429 because the queue passed the shed threshold.", s.AdmissionShed)
	counter("faros_admission_rate_limited_total", "Submissions rejected by the per-client rate limit.", s.AdmissionRateLimited)
	if s.StoreEnabled {
		gauge("faros_store_entries", "Entries in the persistent result store.", s.Store.Entries)
		gauge("faros_store_bytes", "On-disk bytes held by the persistent result store.", int(s.Store.Bytes))
		counter("faros_store_hits_total", "Lookups served from the persistent result store.", s.Store.Hits)
		counter("faros_store_misses_total", "Persistent-store lookups that found no entry.", s.Store.Misses)
		counter("faros_store_corrupt_quarantined_total", "Store entries that failed verification and were quarantined.", s.Store.CorruptQuarantined)
		counter("faros_store_gc_evicted_total", "Store entries dropped by TTL or size garbage collection.", s.Store.GCEvicted)
	}
	if s.TraceStoreEnabled {
		gauge("faros_trace_entries", "Traces in the content-addressed trace store.", s.TraceStore.Entries)
		gauge("faros_trace_store_bytes", "On-disk bytes held by the trace store.", int(s.TraceStore.Bytes))
		counter("faros_trace_store_corrupt_quarantined_total", "Trace store entries that failed verification and were quarantined.", s.TraceStore.CorruptQuarantined)
		counter("faros_trace_store_gc_evicted_total", "Trace store entries dropped by TTL or size garbage collection.", s.TraceStore.GCEvicted)
	}
	if s.TriageEnabled {
		gauge("faros_triage_enabled", "Whether a triage risk policy is active.", 1)
	} else {
		gauge("faros_triage_enabled", "Whether a triage risk policy is active.", 0)
	}
	fmt.Fprintf(&sb, "# HELP faros_triage_findings_total Findings scored by the triage policy, by risk.\n# TYPE faros_triage_findings_total counter\n")
	for _, risk := range []string{"low", "medium", "high"} {
		if n, ok := s.FindingsByRisk[risk]; ok {
			fmt.Fprintf(&sb, "faros_triage_findings_total{risk=%q} %d\n", risk, n)
		}
	}
	fmt.Fprintf(&sb, "# HELP faros_triage_results_total Completed results scored by the triage policy, by aggregate risk.\n# TYPE faros_triage_results_total counter\n")
	for _, risk := range []string{"low", "medium", "high"} {
		if n, ok := s.ResultsByRisk[risk]; ok {
			fmt.Fprintf(&sb, "faros_triage_results_total{risk=%q} %d\n", risk, n)
		}
	}
	if s.ClusterEnabled {
		fmt.Fprintf(&sb, "# HELP faros_cluster_forwarded_total Requests forwarded across the cluster, by direction.\n# TYPE faros_cluster_forwarded_total counter\n")
		fmt.Fprintf(&sb, "faros_cluster_forwarded_total{direction=\"in\"} %d\n", s.Cluster.ForwardedIn)
		fmt.Fprintf(&sb, "faros_cluster_forwarded_total{direction=\"out\"} %d\n", s.Cluster.ForwardedOut)
		counter("faros_cluster_backfill_total", "Peer results backfilled into the local cache and store.", s.Cluster.Backfills)
		counter("faros_cluster_owner_down_local_runs_total", "Requests degraded to local execution because their owner was down.", s.Cluster.OwnerDownLocalRuns)
		fmt.Fprintf(&sb, "# HELP faros_cluster_peer_up Probed peer health (1 up, 0 down).\n# TYPE faros_cluster_peer_up gauge\n")
		for _, p := range s.ClusterPeers {
			v := 0
			if p.Up {
				v = 1
			}
			fmt.Fprintf(&sb, "faros_cluster_peer_up{peer=%q} %d\n", p.Node, v)
		}
	}
	counter("faros_events_published_total", "Lifecycle events published to the live event hub.", s.EventsPublished)
	counter("faros_events_dropped_total", "Per-subscriber event deliveries dropped for slowness.", s.EventsDropped)
	gauge("faros_event_subscribers", "Current live event-stream subscribers.", s.EventSubscribers)
	gauge("faros_ledger_jobs", "Job timelines retained in the audit ledger.", s.LedgerJobs)
	counter("faros_ledger_evicted_total", "Job timelines evicted whole from the audit ledger.", s.LedgerEvicted)
	counter("faros_trace_ingested_total", "Traces ingested through POST /traces (new store entries only).", s.Trace.Ingested)
	counter("faros_trace_bytes_total", "Encoded bytes of ingested traces.", s.Trace.Bytes)
	counter("faros_trace_replays_total", "Analysis-only replays executed from stored traces.", s.Trace.Replays)
	counter("faros_trace_digest_mismatch_total", "Trace submissions rejected on spec-hash or memory-image digest mismatch.", s.Trace.DigestMismatch)
	counter("faros_cache_hits_total", "Submissions served from the result cache.", s.CacheHits)
	counter("faros_cache_misses_total", "Cacheable submissions that missed the cache.", s.CacheMisses)
	counter("faros_cache_expired_total", "Cache entries dropped at lookup because their TTL passed.", s.CacheExpired)
	counter("faros_cache_skipped_degraded_total", "Degraded results the cache policy refused to insert.", s.CacheSkippedDegraded)
	counter("faros_guest_instructions_total", "Guest instructions executed by completed jobs.", s.Instructions)
	counter("faros_taint_prepends_total", "Provenance list prepends across completed FAROS jobs.", s.Taint.Prepends)
	counter("faros_taint_prepend_memo_hits_total", "Prepends answered from the memo table.", s.Taint.PrependMemoHits)
	counter("faros_taint_unions_total", "Provenance list unions across completed FAROS jobs.", s.Taint.Unions)
	counter("faros_taint_union_memo_hits_total", "Unions answered from the memo table.", s.Taint.UnionMemoHits)
	counter("faros_taint_shadow_writes_total", "Shadow byte writes across completed FAROS jobs.", s.Taint.ShadowWrites)
	counter("faros_taint_fastpath_skips_total", "Whole-page skips taken by the shadow range fast paths.", s.Taint.RangeFastSkips)
	counter("faros_taint_instr_prov_hits_total", "Instruction-provenance cache hits across completed FAROS jobs.", s.Taint.InstrProvHits)
	counter("faros_taint_tainted_bytes_total", "Shadow bytes still tainted at the end of completed jobs.", s.Taint.TaintedBytes)
	counter("faros_taint_tainted_pages_total", "Shadow pages still tainted at the end of completed jobs.", s.Taint.TaintedPages)
	counter("faros_provgraph_build_total", "Provenance graphs built by completed FAROS jobs.", s.Prov.Builds)
	counter("faros_provgraph_nodes_total", "Nodes across built provenance graphs.", s.Prov.Nodes)
	counter("faros_provgraph_edges_total", "Edges across built provenance graphs.", s.Prov.Edges)
	counter("faros_block_built_total", "Guest code blocks predecoded into micro-op streams.", s.Block.Built)
	counter("faros_block_hits_total", "Block executions served from the block cache.", s.Block.Hits)
	counter("faros_block_invalidated_total", "Cached blocks invalidated by self-modifying-code writes.", s.Block.Invalidated)
	counter("faros_block_fused_ops_total", "Superinstructions retired by the block executors.", s.Block.FusedOps)
	counter("faros_block_untainted_fast_blocks_total", "Block executions that took the untainted fast loop.", s.Block.UntaintedFastBlocks)

	fmt.Fprintf(&sb, "# HELP faros_findings_total Findings reported by completed jobs, by rule.\n# TYPE faros_findings_total counter\n")
	rules := make([]string, 0, len(s.FindingsByRule))
	for rule := range s.FindingsByRule {
		rules = append(rules, rule)
	}
	sort.Strings(rules)
	for _, rule := range rules {
		fmt.Fprintf(&sb, "faros_findings_total{rule=%q} %d\n", rule, s.FindingsByRule[rule])
	}

	fmt.Fprintf(&sb, "# HELP faros_job_duration_seconds Wall time of completed jobs.\n# TYPE faros_job_duration_seconds histogram\n")
	for _, b := range s.LatencyBuckets {
		le := "+Inf"
		if !math.IsInf(b.LE, 1) {
			le = strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", b.LE), "0"), ".")
		}
		fmt.Fprintf(&sb, "faros_job_duration_seconds_bucket{le=%q} %d\n", le, b.Count)
	}
	fmt.Fprintf(&sb, "faros_job_duration_seconds_sum %f\n", s.LatencySum.Seconds())
	fmt.Fprintf(&sb, "faros_job_duration_seconds_count %d\n", s.LatencyCount)
	return sb.String()
}
