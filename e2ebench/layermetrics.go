package main

import (
	"fmt"
	"time"

	"faros/internal/pipeline"
)

// statsDelta is the change in farosd's /stats counters over the load,
// summed across nodes.
type statsDelta struct {
	cacheHits, cacheMisses, coalesced    uint64
	runs, instructions                   uint64
	blockBuilt, blockHits, fastBlocks    uint64
	prepends, prependHits                uint64
	unions, unionHits, shadowWrites      uint64
	storeHits, storeMisses               uint64
	storeWrites                          int64
	forwardedOut, backfills, ownerDownLo uint64
}

func diffStats(before, after []pipeline.Stats) statsDelta {
	var d statsDelta
	for i := range after {
		a, b := after[i], before[i]
		d.cacheHits += a.CacheHits - b.CacheHits
		d.cacheMisses += a.CacheMisses - b.CacheMisses
		d.coalesced += a.JobsCoalesced - b.JobsCoalesced
		d.runs += a.LatencyCount - b.LatencyCount
		d.instructions += a.Instructions - b.Instructions
		d.blockBuilt += a.Block.Built - b.Block.Built
		d.blockHits += a.Block.Hits - b.Block.Hits
		d.fastBlocks += a.Block.UntaintedFastBlocks - b.Block.UntaintedFastBlocks
		d.prepends += a.Taint.Prepends - b.Taint.Prepends
		d.prependHits += a.Taint.PrependMemoHits - b.Taint.PrependMemoHits
		d.unions += a.Taint.Unions - b.Taint.Unions
		d.unionHits += a.Taint.UnionMemoHits - b.Taint.UnionMemoHits
		d.shadowWrites += a.Taint.ShadowWrites - b.Taint.ShadowWrites
		d.storeHits += a.Store.Hits - b.Store.Hits
		d.storeMisses += a.Store.Misses - b.Store.Misses
		d.storeWrites += int64(a.Store.Entries - b.Store.Entries)
		d.forwardedOut += a.Cluster.ForwardedOut - b.Cluster.ForwardedOut
		d.backfills += a.Cluster.Backfills - b.Cluster.Backfills
		d.ownerDownLo += a.Cluster.OwnerDownLocalRuns - b.Cluster.OwnerDownLocalRuns
	}
	return d
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// perLayer computes the traced run's per-layer metrics.
func (rep *report) perLayer() []metric {
	lr, d := rep.layers, rep.statsDelta
	med := func(name string) time.Duration { return medianDur(lr.byName[name]) }
	pct := func(name string, p float64) time.Duration { v, _ := pctile(lr.byName[name], p); return v }
	tail := fmt.Sprintf("_p%.0f", tailPct*100)

	// Server-side spans of the traced half of the load.
	var queue, run, httpSelf, tracedLat, untracedLat []time.Duration
	var recordPasses uint64
	for _, s := range rep.load.samples {
		if !s.ok {
			continue
		}
		if !s.hit && s.kind != kindTraceReplay {
			recordPasses++
		}
		if !s.traced {
			untracedLat = append(untracedLat, s.lat)
			continue
		}
		tracedLat = append(tracedLat, s.lat)
		if !s.hasTimes {
			continue
		}
		httpSelf = append(httpSelf, s.lat-s.server)
		if !s.hit {
			queue = append(queue, s.queue)
			run = append(run, s.run)
		}
	}
	qp50, _ := pctile(queue, 0.5)
	qtail, _ := pctile(queue, tailPct)
	rp50, _ := pctile(run, 0.5)
	hs50, _ := pctile(httpSelf, 0.5)
	tr50, _ := pctile(tracedLat, 0.5)
	un50, _ := pctile(untracedLat, 0.5)
	overhead := 0.0
	if un50 > 0 {
		overhead = 100 * (float64(tr50) - float64(un50)) / float64(un50)
	}

	plain := sumDur(lr.byName["scenario.replay_plain"])
	farosX := 0.0
	if plain > 0 {
		farosX = float64(sumDur(lr.byName["core.faros_replay"])) / float64(plain)
	}
	blocks := d.blockBuilt + d.blockHits

	return []metric{
		{"samples.resolve_us", "us", us(med("samples.resolve"))},
		{"samples.unmarshal_spec_us", "us", us(med("samples.unmarshal_spec"))},
		{"samples.spec_hash_us", "us", us(med("samples.spec_hash"))},
		{"http.decode_us", "us", us(med("http.decode"))},
		{"http.self_us_p50", "us", us(hs50)},
		{"pipeline.queue_wait_ms_p50", "ms", ms(qp50)},
		{"pipeline.queue_wait_ms" + tail, "ms", ms(qtail)},
		{"pipeline.run_ms_p50", "ms", ms(rp50)},
		{"pipeline.cache_hit_ratio", "ratio", ratio(d.cacheHits, d.cacheHits+d.cacheMisses)},
		{"pipeline.coalesced", "count", float64(d.coalesced)},
		{"pipeline.encode_us", "us", us(med("pipeline.encode"))},
		{"scenario.kernel_setup_us", "us", us(med("scenario.kernel_setup"))},
		{"scenario.record_ms", "ms", ms(med("scenario.record"))},
		{"scenario.record_passes", "count", float64(recordPasses)},
		{"scenario.replay_ms", "ms", ms(med("scenario.replay"))},
		{"scenario.replay_plain_ms", "ms", ms(med("scenario.replay_plain"))},
		{"scenario.trace_replay_ms", "ms", ms(med("scenario.trace_replay"))},
		{"core.faros_overhead_x", "x", farosX},
		{"vm.block_hit_rate", "ratio", ratio(d.blockHits, blocks)},
		{"core.untainted_fast_blocks_per_job", "count", ratio(d.fastBlocks, d.runs)},
		{"taint.prepend_memo_hit_rate", "ratio", ratio(d.prependHits, d.prepends)},
		{"taint.union_memo_hit_rate", "ratio", ratio(d.unionHits, d.unions)},
		{"taint.shadow_writes_per_job", "count", ratio(d.shadowWrites, d.runs)},
		{"guest.instructions_per_job", "count", ratio(d.instructions, d.runs)},
		{"baseline.cuckoo_us", "us", us(lr.pairedDelta("scenario.replay_cuckoo", "scenario.replay_plain"))},
		{"baseline.malfind_us", "us", us(med("baseline.malfind"))},
		{"osi.us", "us", us(lr.pairedDelta("scenario.replay_osi", "scenario.replay_plain"))},
		{"provgraph.merge_us", "us", us(med("provgraph.merge"))},
		{"provgraph.encode_us", "us", us(med("provgraph.encode"))},
		{"triage.score_us", "us", us(med("triage.score"))},
		{"store.put_ms_p50", "ms", ms(pct("store.put", 0.5))},
		{"store.put_ms" + tail, "ms", ms(pct("store.put", tailPct))},
		{"store.get_us", "us", us(med("store.get"))},
		{"store.hits", "count", float64(d.storeHits)},
		{"store.misses", "count", float64(d.storeMisses)},
		{"store.writes", "count", float64(d.storeWrites)},
		{"trace.get_us", "us", us(med("trace.get"))},
		{"trace.decode_us", "us", us(med("trace.decode"))},
		{"trace.verify_us", "us", us(med("trace.verify"))},
		{"trace.put_ms", "ms", ms(med("trace.put"))},
		{"cluster.forward_ms_p50", "ms", ms(pct("cluster.forward", 0.5))},
		{"cluster.forward_ms" + tail, "ms", ms(pct("cluster.forward", tailPct))},
		{"cluster.forwarded_out", "count", float64(d.forwardedOut)},
		{"cluster.backfill", "count", float64(d.backfills)},
		{"cluster.owner_down_local_runs", "count", float64(d.ownerDownLo)},
		{"cluster.backfill_ratio", "ratio", ratio(d.backfills, d.forwardedOut)},
		{"unaccounted.job_ms", "ms", ms(medianDur(lr.unaccJob))},
		{"unaccounted.hit_ms", "ms", ms(medianDur(lr.unaccHit))},
		{"tracing.overhead_pct", "%", overhead},
	}
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}
