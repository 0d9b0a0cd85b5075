package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// tailPct is the high percentile reported next to each median. At the
// benchmark's run length every class holds well over the hundred samples
// a p90 needs to keep ten beyond it; a p99 would need a thousand, which
// trace-farm's long replays do not reach.
const tailPct = 0.90

// report is one run's outcome.
type report struct {
	workload string
	seed     uint64
	clients  int
	traced   bool

	setupS     float64
	rssMB      float64
	load       *loadResult
	statsDelta statsDelta
	layers     *layerResult
	spans      []span
}

// metric is one named, unit-carrying figure of the result line.
type metric struct {
	name  string
	unit  string
	value float64
}

// pctile returns the p-quantile of ds by nearest rank, and whether the
// sample holds at least ten values beyond it.
func pctile(ds []time.Duration, p float64) (time.Duration, bool) {
	if len(ds) == 0 {
		return 0, false
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(p*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], len(s)-1-rank >= 10
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// classes splits settled, correct samples into executed jobs and hits,
// giving each sample's value by of.
func (rep *report) classes(of func(sample) time.Duration) (jobs, hits []time.Duration) {
	for _, s := range rep.load.samples {
		switch {
		case !s.ok:
		case s.hit:
			hits = append(hits, of(s))
		default:
			jobs = append(jobs, of(s))
		}
	}
	return jobs, hits
}

func wallOf(s sample) time.Duration { return s.lat }
func cpuOf(s sample) time.Duration  { return s.cpu }

// forwarded counts the settled requests whose kind crosses to the owner.
func (rep *report) forwarded() uint64 {
	var n uint64
	for _, s := range rep.load.samples {
		if s.ok && (s.kind == kindOwnerHit || s.kind == kindFwdCold) {
			n++
		}
	}
	return n
}

func (rep *report) failed() int {
	n := 0
	for _, s := range rep.load.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// percentiles gives the p50 and tail metric of each class, named
// <class><infix>_p50_ms and _p90_ms. The error names any percentile the
// run holds too few samples beyond to support.
func (rep *report) percentiles(infix string, of func(sample) time.Duration) ([]metric, error) {
	jobs, hits := rep.classes(of)
	var out []metric
	var unsupported error
	for _, c := range []struct {
		name string
		ds   []time.Duration
	}{{"job", jobs}, {"hit", hits}} {
		p50, ok50 := pctile(c.ds, 0.5)
		pt, okt := pctile(c.ds, tailPct)
		if (!ok50 || !okt) && unsupported == nil {
			unsupported = fmt.Errorf("%s class: %d samples cannot support a p%.0f", c.name, len(c.ds), tailPct*100)
		}
		out = append(out,
			metric{c.name + infix + "_p50_ms", "ms", ms(p50)},
			metric{fmt.Sprintf("%s%s_p%.0f_ms", c.name, infix, tailPct*100), "ms", ms(pt)})
	}
	return out, unsupported
}

// settled counts the correct, settled requests.
func (rep *report) settled() int {
	jobs, hits := rep.classes(wallOf)
	return len(jobs) + len(hits)
}

// endToEnd computes the end-to-end metrics: the median farosd CPU time
// of a job and of a hit while the request was in flight, settled requests
// per farosd CPU second over the whole load, set-up time and peak memory.
// The timings are on farosd's CPU clock, not the wall clock; see
// README.md for why.
func (rep *report) endToEnd() ([]metric, error) {
	cpu, err := rep.percentiles("_cpu", cpuOf)
	var out []metric
	for _, m := range cpu {
		if strings.HasSuffix(m.name, "_p50_ms") {
			out = append(out, m)
		}
	}
	out = append(out,
		metric{"ops_per_cpu_s", "1/s", float64(rep.settled()) / rep.load.cpu.Seconds()},
		metric{"setup_s", "s", rep.setupS},
		metric{"max_rss_mb", "MB", rep.rssMB},
	)
	return out, err
}

// alsoReported computes the figures the report prints beside the
// end-to-end metrics but does not bound: the CPU-time tails, what a
// client waited on the wall clock, and the closed loop's throughput and
// guest instruction rate. Wall-clock figures move with the host's steal.
func (rep *report) alsoReported() []metric {
	var out []metric
	cpu, _ := rep.percentiles("_cpu", cpuOf)
	for _, m := range cpu {
		if !strings.HasSuffix(m.name, "_p50_ms") {
			out = append(out, m)
		}
	}
	wallPct, _ := rep.percentiles("", wallOf)
	out = append(out, wallPct...)
	wall := rep.load.wall.Seconds()
	var instr uint64
	for _, s := range rep.load.samples {
		if s.ok && !s.hit {
			instr += s.instr
		}
	}
	return append(out,
		metric{"ops_per_s", "1/s", float64(rep.settled()) / wall},
		metric{"guest_minstr_per_s", "Minstr/s", float64(instr) / 1e6 / wall},
	)
}

// resultLine is the JSON object printed last on standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (rep *report) result(ms []metric) resultLine {
	out := resultLine{
		Correct:   rep.failed() == 0,
		Attempted: len(rep.load.samples),
		Failed:    rep.failed(),
		Metrics:   map[string]metricValue{},
	}
	for _, m := range ms {
		out.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	return out
}

// kindRow is the per-kind accounting of one run.
type kindRow struct {
	attempted, ok, failed, asJob, asHit int
	lat                                 []time.Duration
}

func (rep *report) kinds() map[kind]*kindRow {
	rows := map[kind]*kindRow{}
	for _, s := range rep.load.samples {
		r := rows[s.kind]
		if r == nil {
			r = &kindRow{}
			rows[s.kind] = r
		}
		r.attempted++
		if !s.ok {
			r.failed++
			continue
		}
		r.ok++
		r.lat = append(r.lat, s.lat)
		if s.hit {
			r.asHit++
		} else {
			r.asJob++
		}
	}
	return rows
}

// print writes the human-readable report.
func (rep *report) print(w io.Writer, e2e, layers []metric) {
	jobs, hits := rep.classes(wallOf)
	fmt.Fprintf(w, "workload %s  seed %d  clients %d  traced %v  wall %.2fs  attempted %d  failed %d\n",
		rep.workload, rep.seed, rep.clients, rep.traced, rep.load.wall.Seconds(), len(rep.load.samples), rep.failed())
	for _, e := range rep.load.errs {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	fmt.Fprintf(w, "end-to-end (job samples %d, hit samples %d):\n", len(jobs), len(hits))
	for _, m := range e2e {
		fmt.Fprintf(w, "  %-22s %12.4f %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "also reported (steal share %.3f during the load):\n", rep.load.steal)
	for _, m := range rep.alsoReported() {
		fmt.Fprintf(w, "  %-22s %12.4f %s\n", m.name, m.value, m.unit)
	}
	for _, c := range []struct {
		name string
		ds   []time.Duration
	}{{"job", jobs}, {"hit", hits}} {
		if p99, ok := pctile(c.ds, 0.99); ok {
			fmt.Fprintf(w, "  %-22s %12.4f ms (supported: %d samples)\n", c.name+"_p99", ms(p99), len(c.ds))
		} else {
			fmt.Fprintf(w, "  %-22s %12s    (%d samples: fewer than 10 beyond p99)\n", c.name+"_p99", "n/a", len(c.ds))
		}
	}
	fmt.Fprintf(w, "per kind:\n  %-13s %9s %9s %7s %7s %7s %10s\n", "kind", "attempted", "ok", "failed", "as-job", "as-hit", "p50_ms")
	rows := rep.kinds()
	for k := kind(0); k < numKinds; k++ {
		r := rows[k]
		if r == nil {
			continue
		}
		p50, _ := pctile(r.lat, 0.5)
		fmt.Fprintf(w, "  %-13s %9d %9d %7d %7d %7d %10.3f\n", k, r.attempted, r.ok, r.failed, r.asJob, r.asHit, ms(p50))
	}
	if !rep.traced {
		return
	}
	fmt.Fprintln(w, "per layer:")
	for _, m := range layers {
		fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.name, m.value, m.unit)
	}
	lr := rep.layers
	fmt.Fprintf(w, "self time by tree (median over %d sampled requests, us):\n", lr.samples)
	keys := make([]string, 0, len(lr.self))
	for k := range lr.self {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-34s %12.1f  (n=%d)\n", k, us(medianDur(lr.self[k])), len(lr.self[k]))
	}
}
