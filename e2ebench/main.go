// Command e2ebench is the end-to-end benchmark of farosd. It launches the
// real farosd binary (default flags plus fresh -store-dir/-trace-dir) on
// loopback, drives it from one process with one closed-loop client,
// checks every answer, and prints the end-to-end metrics. With -trace 1
// it also keeps the server-side job timestamps, scrapes /stats around the
// load, and runs a layer pass that times each layer's public functions on
// a seeded sample of the workload's own inputs.
//
// Usage (from the repository root, after building farosd):
//
//	e2ebench -workload cold-detect -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// README.md in this directory documents the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// loadClients is the number of closed-loop clients. The benchmark gets the
// few cores of a shared host, and farosd's workers, the fleet's second node
// and this driver all run on them. With a client per core every latency
// depended on what the other client happened to be running, and the
// run-to-run spread of job and hit percentiles passed their bounds; one
// client times each request's own path.
const loadClients = 1

func main() {
	os.Exit(run())
}

func run() int {
	workloadName := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed of the request sequence")
	seconds := flag.Float64("seconds", 10, "length of the measured load phase")
	traced := flag.Int("trace", 0, "1 = traced run: job timestamps, /stats deltas, layer pass")
	farosd := flag.String("farosd", filepath.Join(".bench_build", "bin", "farosd"), "farosd binary")
	outDir := flag.String("out", ".bench_out", "directory for server state, logs and span files")
	flag.Parse()

	w, ok := workloads[*workloadName]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (want one of %s)\n",
			*workloadName, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be positive")
		return 2
	}
	if _, err := os.Stat(*farosd); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: farosd binary: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 2
	}
	runDir, err := os.MkdirTemp(*outDir, fmt.Sprintf("run-%s-%d-", w.name, *seed))
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 2
	}
	defer func() {
		// Deleting a run's store is thousands of unlinks; flush them here
		// rather than in the next run's measured window.
		os.RemoveAll(runDir)
		syscall.Sync()
	}()

	b := &bench{
		farosd:  *farosd,
		dir:     runDir,
		seed:    *seed,
		clients: loadClients,
		traced:  *traced == 1,
	}
	rep, err := b.execute(w, time.Duration(*seconds*float64(time.Second)))
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	e2e, err := rep.endToEnd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", w.name, err)
		return 1
	}
	metrics := e2e
	var layers []metric
	if b.traced {
		layers = rep.perLayer()
		metrics = layers
		spanFile := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
		if err := writeSpans(spanFile, rep.spans); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "spans written to %s\n", spanFile)
	}
	rep.print(os.Stderr, e2e, layers)

	line, err := json.Marshal(rep.result(metrics))
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if rep.failed() > 0 {
		return 1
	}
	return 0
}

// execute runs one workload end to end: inputs, repeated set-up, the
// measured load, and (traced) the layer pass.
func (b *bench) execute(w *workload, dur time.Duration) (*report, error) {
	if err := w.prepare(b); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	var setupTimes []float64
	var f *fleet
	for i := 0; i < w.setups; i++ {
		dir := filepath.Join(b.dir, fmt.Sprintf("setup%d", i))
		start := time.Now()
		next, err := w.setup(b, dir)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i < w.setups-1 {
			if err := next.stop(); err != nil {
				return nil, err
			}
			continue
		}
		f = next
	}
	rep, err := b.measure(w, f, dur)
	if stopErr := f.stop(); err == nil && stopErr != nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	sort.Float64s(setupTimes)
	rep.setupS = setupTimes[len(setupTimes)/2]
	return rep, nil
}

// measure drives the load against a set-up fleet and, on a traced run,
// follows it with the layer pass.
func (b *bench) measure(w *workload, f *fleet, dur time.Duration) (*report, error) {
	rep := &report{workload: w.name, seed: b.seed, clients: b.clients, traced: b.traced}
	before, err := f.stats()
	if err != nil {
		return nil, err
	}
	streams := make([]*stream, b.clients)
	for c := range streams {
		streams[c] = w.stream(b, c)
	}
	// Flush set-up's writes so their writeback does not land in the
	// measured window.
	syscall.Sync()
	rep.load = runLoad(b, f, streams, dur)
	rep.rssMB = f.peakRSSMB()
	after, err := f.stats()
	if err != nil {
		return nil, err
	}
	rep.statsDelta = diffStats(before, after)
	if n := rep.statsDelta.ownerDownLo; n > 0 {
		// A forward that fell back to a local run measured no cluster
		// hop; a healthy fleet never marks its peer down.
		return nil, fmt.Errorf("%d owner-down local runs during the load", n)
	}
	if n, d := rep.forwarded(), rep.statsDelta; rep.failed() == 0 && (d.forwardedOut != n || d.backfills != n) {
		// Each owner hit and forwarded cold job crosses to the owner
		// exactly once and is backfilled; a local answer would price the
		// wrong path under the kind's name.
		return nil, fmt.Errorf("%d requests meant to forward, but the entry node forwarded %d and backfilled %d",
			n, d.forwardedOut, d.backfills)
	}
	if !b.traced {
		return rep, nil
	}
	lp, err := layerPass(b, w, f, streams)
	if err != nil {
		return nil, fmt.Errorf("layer pass: %w", err)
	}
	rep.layers = lp
	rep.spans = lp.spans
	return rep, nil
}
