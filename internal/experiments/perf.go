package experiments

import (
	"encoding/json"
	"fmt"

	"faros/internal/core"
	"faros/internal/samples"
	"faros/internal/scenario"
)

// The perf experiment emits the machine-readable performance snapshot
// committed as BENCH_3.json: the guest-execution microbenchmark measured
// live against its recorded pre-optimization baseline, the Table V
// replay-overhead rows, and the taint engine's fast-path counters (memo
// hit rates, whole-page skips) that explain where the time went.

// Pre-optimization measurements of the guest-execution benchmark
// (BenchmarkGuestExecutionPlain / BenchmarkGuestExecutionFAROS at the
// taint-fast-path PR's base commit, 100 ops, same reference machine the
// "after" numbers are measured on). They anchor the before/after
// comparison in BENCH_3.json.
const (
	baselinePlainNS = 3715767
	baselineFAROSNS = 6651445
)

// perfGuestExec is the live re-measurement of the guest-execution
// benchmark workload.
type perfGuestExec struct {
	Workload         string  `json:"workload"`
	Instructions     uint64  `json:"instructions"`
	PlainNSPerOp     int64   `json:"plain_ns_per_op"`
	FarosNSPerOp     int64   `json:"faros_ns_per_op"`
	Slowdown         float64 `json:"slowdown"`
	BaselinePlainNS  int64   `json:"baseline_plain_ns_per_op"`
	BaselineFarosNS  int64   `json:"baseline_faros_ns_per_op"`
	SpeedupPlain     float64 `json:"speedup_plain"`
	SpeedupFaros     float64 `json:"speedup_faros"`
	BaselineSlowdown float64 `json:"baseline_slowdown"`
}

// perfTableVRow is one Table V application in machine-readable form.
type perfTableVRow struct {
	Application  string  `json:"application"`
	Instructions uint64  `json:"instructions"`
	PlainNS      int64   `json:"plain_ns"`
	FarosNS      int64   `json:"faros_ns"`
	Slowdown     float64 `json:"slowdown"`
}

// perfTaint is the fast-path counter snapshot from one FAROS run of the
// benchmark workload.
type perfTaint struct {
	ListsInterned   int     `json:"lists_interned"`
	Prepends        uint64  `json:"prepends"`
	PrependMemoHits uint64  `json:"prepend_memo_hits"`
	PrependHitRate  float64 `json:"prepend_hit_rate"`
	Unions          uint64  `json:"unions"`
	UnionMemoHits   uint64  `json:"union_memo_hits"`
	UnionHitRate    float64 `json:"union_hit_rate"`
	ShadowWrites    uint64  `json:"shadow_writes"`
	RangeFastSkips  uint64  `json:"range_fast_skips"`
	InstrProvHits   uint64  `json:"instr_prov_hits"`
	TaintedBytes    int     `json:"tainted_bytes"`
	TaintedPages    int     `json:"tainted_pages"`
}

// perfBlock is the block-dispatch counter snapshot from the same FAROS
// run: predecode amortization (hit rate) and how much of the run retired
// through the fused and untainted fast loops.
type perfBlock struct {
	Built               uint64  `json:"built"`
	Hits                uint64  `json:"hits"`
	HitRate             float64 `json:"hit_rate"`
	Invalidated         uint64  `json:"invalidated"`
	FusedOps            uint64  `json:"fused_ops"`
	UntaintedFastBlocks uint64  `json:"untainted_fast_blocks"`
}

// perfSnapshot is the full snapshot payload (committed as BENCH_3.json at
// the taint-fast-path PR, BENCH_8.json at the block-dispatch PR).
type perfSnapshot struct {
	GuestExecution perfGuestExec   `json:"guest_execution"`
	TableV         []perfTableVRow `json:"table5"`
	TableVAvg      float64         `json:"table5_avg_slowdown"`
	Taint          perfTaint       `json:"taint"`
	Block          perfBlock       `json:"block"`
}

// perfRepeats is how many live runs each configuration of the benchmark
// workload takes; the fastest is reported, since noise only ever adds
// time. It is below scenario.MeasurePerf's 7 because a noisy reading here
// is re-measured rather than trusted: cmd/benchgate retries a failing
// attempt with fresh runs, so three per attempt keeps each attempt (and
// the full farosbench sweep, which includes this experiment) short.
const perfRepeats = 3

// Perf measures the guest-execution benchmark workload live (plain and
// with FAROS), sweeps Table V, and renders the combined snapshot as JSON.
func Perf() (string, error) {
	w := samples.PerfWorkloads()[2] // Bozok — the bench_test.go workload
	bestRun := func(plugins scenario.Plugins) (int64, *scenario.Result, error) {
		var best int64
		var last *scenario.Result
		for i := 0; i < perfRepeats; i++ {
			res, err := scenario.RunLive(w.Spec, plugins)
			if err != nil {
				return 0, nil, err
			}
			if ns := res.WallTime.Nanoseconds(); best == 0 || ns < best {
				best = ns
			}
			last = res
		}
		return best, last, nil
	}
	plainNS, plainRes, err := bestRun(scenario.Plugins{})
	if err != nil {
		return "", fmt.Errorf("perf plain: %w", err)
	}
	farosNS, farosRes, err := bestRun(scenario.Plugins{Faros: &core.Config{}})
	if err != nil {
		return "", fmt.Errorf("perf faros: %w", err)
	}

	snap := perfSnapshot{
		GuestExecution: perfGuestExec{
			Workload:         w.Display,
			Instructions:     plainRes.Summary.Instructions,
			PlainNSPerOp:     plainNS,
			FarosNSPerOp:     farosNS,
			Slowdown:         ratio(farosNS, plainNS),
			BaselinePlainNS:  baselinePlainNS,
			BaselineFarosNS:  baselineFAROSNS,
			SpeedupPlain:     ratio(baselinePlainNS, plainNS),
			SpeedupFaros:     ratio(baselineFAROSNS, farosNS),
			BaselineSlowdown: ratio(baselineFAROSNS, baselinePlainNS),
		},
	}

	st := farosRes.Faros.Stats()
	snap.Taint = perfTaint{
		ListsInterned:   st.Taint.ListsInterned,
		Prepends:        st.Taint.Prepends,
		PrependMemoHits: st.Taint.PrependMemoHits,
		PrependHitRate:  hitRate(st.Taint.PrependMemoHits, st.Taint.Prepends),
		Unions:          st.Taint.Unions,
		UnionMemoHits:   st.Taint.UnionMemoHits,
		UnionHitRate:    hitRate(st.Taint.UnionMemoHits, st.Taint.Unions),
		ShadowWrites:    st.Taint.ShadowWrites,
		RangeFastSkips:  st.Taint.RangeFastSkips,
		InstrProvHits:   st.InstrProvHits,
		TaintedBytes:    st.Taint.TaintedBytes,
		TaintedPages:    st.Taint.TaintedPages,
	}
	snap.Block = perfBlock{
		Built:               st.Block.Built,
		Hits:                st.Block.Hits,
		HitRate:             hitRate(st.Block.Hits, st.Block.Built+st.Block.Hits),
		Invalidated:         st.Block.Invalidated,
		FusedOps:            st.Block.FusedOps,
		UntaintedFastBlocks: st.Block.UntaintedFastBlocks,
	}

	var total float64
	for _, pw := range samples.PerfWorkloads() {
		row, err := scenario.MeasurePerf(pw)
		if err != nil {
			return "", fmt.Errorf("%s: %w", pw.Display, err)
		}
		snap.TableV = append(snap.TableV, perfTableVRow{
			Application:  row.Application,
			Instructions: row.Instructions,
			PlainNS:      row.ReplayPlain.Nanoseconds(),
			FarosNS:      row.ReplayFAROS.Nanoseconds(),
			Slowdown:     row.Slowdown,
		})
		total += row.Slowdown
	}
	snap.TableVAvg = total / float64(len(snap.TableV))

	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}

// ratio is a/b as float, 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// hitRate is hits/total, 0 when total is 0.
func hitRate(hits, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
