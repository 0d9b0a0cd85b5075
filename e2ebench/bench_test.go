package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// The self-test runs every workload at a tiny length against a farosd
// built from this checkout. It checks that the request sequence is a pure
// function of the seed, that every request kind the workload is built to
// produce occurs and settles correctly, and that the metric names match
// BENCHMARK.json. Run it from this directory with `go test .`.

// tinyLoad is the self-test's load length per run.
const tinyLoad = 1500 * time.Millisecond

// wantKinds is every kind each workload must produce.
var wantKinds = map[string][]kind{
	"cold-detect":   {kindFresh, kindResultRead},
	"hot-mixed":     {kindFresh, kindNamedHit, kindInlineHit, kindResultRead, kindProvRead, kindFirstTouch},
	"trace-farm":    {kindTraceReplay, kindTraceRepeat},
	"fleet-forward": {kindLocalCold, kindFwdCold, kindOwnerHit},
}

func buildFarosd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "farosd")
	out, err := exec.Command("go", "build", "-o", bin, "faros/cmd/farosd").CombinedOutput()
	if err != nil {
		t.Fatalf("build farosd: %v\n%s", err, out)
	}
	return bin
}

// describe renders the request's identity for the sequence digest.
func (r *request) describe() string {
	return fmt.Sprintf("%d|%s|%s|%s|%d|%s|%x", r.seq, r.kind, r.method, r.path, r.ref, r.key, sha256.Sum256(r.body))
}

// sequenceDigest hashes the first n requests of every client's stream.
func sequenceDigest(b *bench, w *workload, n int) string {
	h := sha256.New()
	for c := 0; c < b.clients; c++ {
		s := w.stream(b, c)
		for i := 0; i < n; i++ {
			h.Write([]byte(s.next().describe()))
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// benchmarkFile is the part of BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func checkNames(t *testing.T, what string, got []metric, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
			t.Errorf("%s %d: %s (%s), BENCHMARK.json lists %s (%s)", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
		}
	}
}

func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("launches farosd")
	}
	bin := buildFarosd(t)
	bf := readBenchmarkFile(t)
	for _, bw := range bf.Workloads {
		if _, ok := workloads[bw.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not registered", bw.Name)
		}
	}
	for _, name := range workloadNames() {
		w := workloads[name]
		t.Run(w.name, func(t *testing.T) {
			run := func(seed uint64, traced bool) (*report, string) {
				b := &bench{farosd: bin, dir: t.TempDir(), seed: seed, clients: loadClients, traced: traced}
				rep, err := b.execute(w, tinyLoad)
				if err != nil {
					t.Fatal(err)
				}
				return rep, sequenceDigest(b, w, 40)
			}
			rep, d1 := run(7, true)
			_, d2 := run(7, false)
			_, d3 := run(8, false)
			if d1 != d2 {
				t.Errorf("seed 7 gave two different sequences: %.12s, %.12s", d1, d2)
			}
			if d1 == d3 {
				t.Errorf("seeds 7 and 8 gave the same sequence %.12s", d1)
			}

			if n := rep.failed(); n != 0 || len(rep.load.samples) == 0 {
				t.Errorf("fail_ratio %d/%d, want 0; errors: %v", n, len(rep.load.samples), rep.load.errs)
			}
			rows := rep.kinds()
			for _, k := range wantKinds[w.name] {
				if r := rows[k]; r == nil || r.ok == 0 {
					t.Errorf("kind %s never settled", k)
				}
			}
			e2e, _ := rep.endToEnd() // a tiny run need not support its percentiles
			checkNames(t, "end_to_end", e2e, bf.EndToEnd)
			if rep.load.cpu <= 0 {
				t.Errorf("farosd CPU over the load %v, want positive", rep.load.cpu)
			}
			layers := rep.perLayer()
			checkNames(t, "per_layer", layers, bf.PerLayer)
			byName := map[string]float64{}
			for _, m := range layers {
				byName[m.name] = m.value
			}
			switch w.name {
			case "hot-mixed":
				if byName["store.hits"] == 0 {
					t.Error("no store read-through after the restart")
				}
			case "trace-farm":
				if byName["scenario.record_passes"] != 0 {
					t.Errorf("trace-farm ran %v record passes, want 0", byName["scenario.record_passes"])
				}
			case "fleet-forward":
				if byName["cluster.backfill"] == 0 || byName["cluster.forwarded_out"] == 0 {
					t.Errorf("forwards %v, backfills %v: want both nonzero", byName["cluster.forwarded_out"], byName["cluster.backfill"])
				}
				if byName["cluster.owner_down_local_runs"] != 0 {
					t.Errorf("owner-down local runs %v in a healthy fleet", byName["cluster.owner_down_local_runs"])
				}
			}
			if w.name != "trace-farm" && byName["scenario.record_passes"] == 0 {
				t.Error("no record pass on a detect workload")
			}
		})
	}
}

func TestDeckDealsEveryValueOncePerRound(t *testing.T) {
	r := newRNG(make([]byte, 8))
	var d deck
	for round := 0; round < 3; round++ {
		seen := map[int]bool{}
		for i := 0; i < 10; i++ {
			seen[d.deal(&r, 10)] = true
		}
		if len(seen) != 10 {
			t.Fatalf("round %d dealt %d distinct values, want 10", round, len(seen))
		}
	}
}

func TestMixDealsExactShares(t *testing.T) {
	r := newRNG(make([]byte, 8))
	m := newMix(share{kindFresh, 2}, share{kindNamedHit, 5}, share{kindProvRead, 3})
	for round := 0; round < 3; round++ {
		got := map[kind]int{}
		for i := 0; i < 10; i++ {
			got[m.draw(&r)]++
		}
		if got[kindFresh] != 2 || got[kindNamedHit] != 5 || got[kindProvRead] != 3 {
			t.Fatalf("round %d dealt %v, want 2 fresh, 5 named-hit, 3 prov-read", round, got)
		}
	}
}

func TestRenamedWireMatchesMarshalSpec(t *testing.T) {
	b := &bench{}
	if err := b.loadCorpus(); err != nil {
		t.Fatal(err)
	}
	for _, base := range b.corpus[:10] {
		wire, _ := base.renamed(base.name + "~x")
		spec := base.spec
		spec.Name = base.name + "~x"
		want, err := newBaseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if string(wire) != string(want.wire) {
			t.Errorf("%s: spliced wire differs from MarshalSpec", base.name)
		}
	}
}
