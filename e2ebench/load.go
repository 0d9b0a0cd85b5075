package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"faros/internal/pipeline"
)

// sample is one settled request as the client saw it.
type sample struct {
	kind kind
	// hit: answered without executing (cache_hit, result or prov read).
	hit bool
	ok  bool
	lat time.Duration
	// cpu is the CPU time farosd (every node) ran while the request was
	// in flight, from send to full body read.
	cpu time.Duration
	// instr is the guest instruction count of an executed job.
	instr uint64
	// traced requests keep the server's job timestamps; in a traced run
	// every other request is traced, so the untraced half prices the
	// tracing itself.
	traced bool
	// queue and run are started−submitted and finished−started of an
	// executed job; server is finished−submitted (traced requests only).
	queue, run, server time.Duration
	hasTimes           bool
}

// loadResult is the closed-loop phase's outcome.
type loadResult struct {
	wall    time.Duration
	samples []sample
	errs    []string // first few failures, for the report
	// cpu is the CPU time farosd (every node) ran over the whole load,
	// work left behind by a request included.
	cpu time.Duration
	// steal is the share of the machine's CPU time the hypervisor gave to
	// other guests during the load; wall-clock figures grow with it.
	steal float64
}

// maxRequestTime bounds one request; a slower answer counts as failed.
const maxRequestTime = 30 * time.Second

// runLoad drives the entry node with one closed-loop client per stream
// until dur has passed, then waits for every in-flight request.
func runLoad(b *bench, f *fleet, streams []*stream, dur time.Duration) *loadResult {
	res := &loadResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	st0, tot0, ok0 := readCPUStat()
	cpu0, _ := f.cpu()
	start := time.Now()
	deadline := start.Add(dur)
	for _, s := range streams {
		wg.Add(1)
		go func(s *stream) {
			defer wg.Done()
			var local []sample
			var errs []string
			for time.Now().Before(deadline) {
				smp, err := issue(b, f, s)
				if err != nil && len(errs) < 5 {
					errs = append(errs, err.Error())
				}
				local = append(local, smp)
			}
			mu.Lock()
			res.samples = append(res.samples, local...)
			res.errs = append(res.errs, errs...)
			mu.Unlock()
		}(s)
	}
	wg.Wait()
	res.wall = time.Since(start)
	if c, err := f.cpu(); err == nil {
		res.cpu = c - cpu0
	}
	if st1, tot1, ok := readCPUStat(); ok && ok0 && tot1 > tot0 {
		res.steal = float64(st1-st0) / float64(tot1-tot0)
	}
	return res
}

// readCPUStat returns the machine's cumulative steal and total CPU time
// from /proc/stat, in clock ticks.
func readCPUStat() (steal, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// issue sends the stream's next request, times it from send to full body
// read, and checks the answer.
func issue(b *bench, f *fleet, s *stream) (sample, error) {
	r := s.next()
	smp := sample{kind: r.kind, traced: b.traced && r.seq%2 == 0}
	if r.key != "" && b.book.touch(r.key) {
		smp.kind = kindFirstTouch
	}
	path := r.path
	if r.ref >= 0 {
		hash := s.answers[r.ref].hash
		if hash == "" {
			return smp, fmt.Errorf("%s: item %d has no answer to refer to", r.kind, r.ref)
		}
		if r.method == http.MethodGet {
			path = "/results/" + hash
		} else {
			rq := *r
			rq.key = hash
			r = &rq
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), maxRequestTime)
	defer cancel()
	c0, err := f.cpu()
	if err != nil {
		return smp, err
	}
	t0 := time.Now()
	body, status, err := f.do(ctx, r.method, f.entry().url+path, r.body, nil)
	smp.lat = time.Since(t0)
	c1, cerr := f.cpu()
	if err != nil {
		return smp, fmt.Errorf("%s %s: %w", r.method, path, err)
	}
	if cerr != nil {
		return smp, cerr
	}
	smp.cpu = c1 - c0
	switch {
	case r.method == http.MethodPost:
		v, err := checkView(b, r, body, status)
		if err != nil {
			return smp, fmt.Errorf("%s %s: %w", r.kind, r.name, err)
		}
		if want := r.kind.answeredFromCache(); v.CacheHit != want {
			// An answer off its kind's path would move between the job
			// and hit classes unnoticed.
			return smp, fmt.Errorf("%s %s: cache_hit=%v, want %v", r.kind, r.name, v.CacheHit, want)
		}
		s.answers[r.seq].hash = v.Hash
		smp.hit = v.CacheHit
		if !v.CacheHit {
			smp.instr = v.Result.Instructions
		}
		if smp.traced {
			noteTimes(&smp, v)
		}
	case strings.HasSuffix(path, "/prov"):
		smp.hit = true
		if err := checkProv(b, strings.TrimSuffix(strings.TrimPrefix(path, "/results/"), "/prov"), body, status); err != nil {
			return smp, fmt.Errorf("%s: %w", r.kind, err)
		}
	default:
		smp.hit = true
		hash := strings.TrimPrefix(path, "/results/")
		if status != http.StatusOK {
			return smp, fmt.Errorf("%s %s: status %d", r.kind, hash, status)
		}
		var res pipeline.Result
		if err := json.Unmarshal(body, &res); err != nil {
			return smp, fmt.Errorf("%s: decode result: %w", r.kind, err)
		}
		if err := checkResult(b, r, &res, hash); err != nil {
			return smp, fmt.Errorf("%s: %w", r.kind, err)
		}
		s.answers[r.seq].hash = hash
	}
	smp.ok = true
	s.answers[r.seq].lat, s.answers[r.seq].hit = smp.lat, smp.hit
	return smp, nil
}

// noteTimes keeps the server-side spans of a job view.
func noteTimes(smp *sample, v *pipeline.JobView) {
	if v.Submitted.IsZero() || v.Finished.IsZero() {
		return
	}
	smp.hasTimes = true
	smp.server = v.Finished.Sub(v.Submitted)
	if !v.CacheHit && !v.Started.IsZero() {
		smp.queue = v.Started.Sub(v.Submitted)
		smp.run = v.Finished.Sub(v.Started)
	}
}
