package pipeline

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"faros/internal/scenario"
	"faros/internal/store"
	"faros/internal/vm"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/stats_* golden renderings")

// fullStats is a snapshot with every optional section on: store, traces,
// triage, a cluster with one peer up and one down, events, findings by
// rule and by risk, and a latency histogram with observations in several
// buckets including the overflow bucket.
func fullStats() Stats {
	return Stats{
		Workers:              4,
		QueueDepth:           3,
		Running:              2,
		CacheEntries:         17,
		JobsActive:           5,
		JobsRetained:         9,
		WaitersCoalesced:     1,
		JobsSubmitted:        101,
		JobsCoalesced:        7,
		JobsDone:             88,
		JobsFailed:           6,
		JobsDeadline:         2,
		JobsCanceled:         3,
		QueueFull:            4,
		AdmissionShed:        11,
		AdmissionRateLimited: 12,
		StoreEnabled:         true,
		Store:                store.Stats{Entries: 40, Bytes: 123456, Hits: 21, Misses: 22, CorruptQuarantined: 1, GCEvicted: 5},
		TraceStoreEnabled:    true,
		TraceStore:           store.Stats{Entries: 3, Bytes: 654321, Hits: 2, Misses: 1, CorruptQuarantined: 2, GCEvicted: 4},
		Trace:                TraceStats{Ingested: 3, Bytes: 654000, Replays: 8, DigestMismatch: 1},
		CacheHits:            30,
		CacheMisses:          70,
		CacheExpired:         9,
		CacheSkippedDegraded: 2,
		TriageEnabled:        true,
		TriagePolicy:         "0123456789abcdef0123456789abcdef",
		FindingsByRisk:       map[string]uint64{"high": 13, "medium": 4, "low": 1},
		ResultsByRisk:        map[string]uint64{"high": 10, "low": 78},
		ClusterEnabled:       true,
		ClusterNode:          "a",
		ClusterPeers: []PeerHealth{
			{Node: "b", URL: "http://127.0.0.1:7482", Up: true},
			{Node: "c", URL: "http://127.0.0.1:7483", LastError: "connection refused"},
		},
		Cluster:          ClusterStats{ForwardedIn: 14, ForwardedOut: 15, Backfills: 16, OwnerDownLocalRuns: 17},
		EventsPublished:  400,
		EventsDropped:    6,
		EventSubscribers: 2,
		LedgerJobs:       90,
		LedgerEvicted:    8,
		Instructions:     9876543,
		FindingsByRule:   map[string]uint64{"return_to_tainted": 9, "exec_tainted_api": 4},
		Taint: TaintStats{Prepends: 1000, PrependMemoHits: 750, Unions: 400, UnionMemoHits: 100,
			ShadowWrites: 5000, RangeFastSkips: 60, InstrProvHits: 70, TaintedBytes: 8000, TaintedPages: 3},
		Prov:  ProvStats{Builds: 12, Nodes: 48, Edges: 36},
		Block: vm.BlockStats{Built: 200, Hits: 1800, Invalidated: 3, FusedOps: 900, UntaintedFastBlocks: 1500},

		LatencyCount: 88,
		LatencySum:   12345678900 * time.Nanosecond,
		LatencyBuckets: []LatencyBucket{
			{LE: 0.001, Count: 2}, {LE: 0.005, Count: 10}, {LE: 0.01, Count: 10},
			{LE: 0.025, Count: 30}, {LE: 0.05, Count: 30}, {LE: 0.1, Count: 55},
			{LE: 0.25, Count: 70}, {LE: 0.5, Count: 70}, {LE: 1, Count: 80},
			{LE: 2.5, Count: 80}, {LE: 5, Count: 84}, {LE: 10, Count: 84},
			{LE: 30, Count: 85}, {LE: math.Inf(1), Count: 88},
		},
	}
}

// TestStatsGolden pins the three renderings of a Stats snapshot — the
// Prometheus exposition (/metrics), the /stats JSON body, and String() —
// for a fresh pool with every optional section off and for a snapshot
// with every section on. Regenerate deliberately with:
//
//	go test ./internal/pipeline -run TestStatsGolden -update-golden
func TestStatsGolden(t *testing.T) {
	p := mustNew(t, Config{Workers: 2, Runner: func(context.Context, Request) (*scenario.Result, error) {
		return stubResult("unused"), nil
	}})
	defer p.Close()
	cases := map[string]Stats{"off": p.Stats(), "full": fullStats()}
	for name, s := range cases {
		var body bytes.Buffer
		// The same encoding the /stats handler writes.
		if err := json.NewEncoder(&body).Encode(s); err != nil {
			t.Fatal(err)
		}
		for ext, got := range map[string]string{"prom": s.Prometheus(), "json": body.String(), "txt": s.String()} {
			path := filepath.Join("testdata", "stats_"+name+"."+ext)
			if *updateGolden {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v (run with -update-golden to create)", path, err)
			}
			if got != string(want) {
				t.Errorf("%s drifted from golden; rerun with -update-golden if intended\n got:\n%s\nwant:\n%s", path, got, want)
			}
		}
	}
}

// poolGauges are the Stats fields Pool.Stats fills from live pool state
// on every snapshot; fillDistinct leaves them to the pool.
var poolGauges = map[string]bool{
	"Store": true, "TraceStore": true, "EventsPublished": true,
	"EventsDropped": true, "LedgerEvicted": true, "LatencyCount": true,
}

// fillDistinct gives every uint64 counter reachable from v (struct
// fields, nested structs, one entry per map) the next value of *next, so
// no two counters share a value. Pointers and slices are left alone.
func fillDistinct(v reflect.Value, next *uint64) {
	switch v.Kind() {
	case reflect.Uint64:
		*next++
		v.SetUint(*next)
	case reflect.Map:
		if v.Type().Elem().Kind() != reflect.Uint64 {
			return
		}
		if v.IsNil() {
			v.Set(reflect.MakeMap(v.Type()))
		}
		*next++
		v.SetMapIndex(reflect.ValueOf("key"), reflect.ValueOf(*next))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if poolGauges[v.Type().Field(i).Name] {
				continue
			}
			fillDistinct(v.Field(i), next)
		}
	}
}

// collectCounters appends every nonzero uint64 reachable from v (struct
// fields and map values; slices are skipped) to out.
func collectCounters(v reflect.Value, out []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Uint64:
		if n := v.Uint(); n != 0 {
			out = append(out, n)
		}
	case reflect.Map:
		iter := v.MapRange()
		for iter.Next() {
			out = collectCounters(iter.Value(), out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out = collectCounters(v.Field(i), out)
		}
	}
	return out
}

// TestStatsCountersDistinct gives every metric counter a distinct value
// and checks that Pool.Stats reports each value exactly once: no counter
// is dropped on the way into the snapshot, copied into two fields, or
// clobbered by a gauge.
func TestStatsCountersDistinct(t *testing.T) {
	p := mustNew(t, Config{Workers: 1, Runner: func(context.Context, Request) (*scenario.Result, error) {
		return stubResult("unused"), nil
	}})
	defer p.Close()
	var n uint64
	p.metrics.add(func(m *Stats) { fillDistinct(reflect.ValueOf(m).Elem(), &n) })
	if n < 40 {
		t.Fatalf("filled only %d counters", n)
	}
	got := collectCounters(reflect.ValueOf(p.Stats()), nil)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if uint64(len(got)) != n {
		t.Fatalf("snapshot holds %d nonzero counters, want %d: %v", len(got), n, got)
	}
	for i, v := range got {
		if v != uint64(i+1) {
			t.Fatalf("snapshot counters = %v, want each of 1..%d exactly once", got, n)
		}
	}
}
