// Package faros is a from-scratch reproduction of FAROS (DSN 2018):
// provenance-based whole-system dynamic information flow tracking for
// flagging in-memory injection attacks.
//
// The package is a facade over the engine's layers:
//
//   - internal/isa, internal/mem, internal/vm — the FAROS-32 CPU and the
//     whole-system virtual machine with PANDA-style plugin hooks;
//   - internal/guest (+gfs, gnet) — WinMini, the Windows-like guest OS:
//     processes, Nt syscalls, loader, kernel export table, files, sockets;
//   - internal/record — deterministic record & replay;
//   - internal/taint, internal/core — the FAROS DIFT engine: provenance
//     tags, shadow state, propagation, and the tag-confluence policy;
//   - internal/baseline — the CuckooBox and Volatility/malfind baselines;
//   - internal/samples, internal/scenario — the attack/benign corpus and
//     the experiment harness.
//
// The quickest path from zero to a detection:
//
//	res, err := faros.Analyze(faros.Scenarios()["reflective_dll_inject"])
//	if err != nil { ... }
//	fmt.Print(res.Faros.Report())
package faros

import (
	"maps"
	"slices"
	"sort"
	"sync"

	"faros/internal/core"
	"faros/internal/samples"
	"faros/internal/scenario"
)

// Config tunes the DIFT engine; the zero value is the paper's policy.
type Config = core.Config

// Finding is one flagged in-memory-injection event.
type Finding = core.Finding

// Spec is a runnable scenario: guest programs, remote endpoints, device
// scripts.
type Spec = samples.Spec

// Result is everything observable from an analyzed run.
type Result = scenario.Result

// Plugins selects which analysis tools attach to a replay.
type Plugins = scenario.Plugins

// Detection rule names.
const (
	RuleNetflowExport     = core.RuleNetflowExport
	RuleForeignCodeExport = core.RuleForeignCodeExport
)

// Analyze runs the paper's §V.C analyst workflow on a scenario: record it
// live, then replay with FAROS, the Cuckoo baseline, and the malfind
// snapshot scan attached.
func Analyze(spec Spec) (*Result, error) {
	return scenario.Detect(spec)
}

// AnalyzeWith runs a single live pass with a custom engine configuration
// (the guest is deterministic, so results match record+replay).
func AnalyzeWith(spec Spec, cfg Config) (*Result, error) {
	return scenario.RunLive(spec, scenario.Plugins{Faros: &cfg})
}

// builtin is the built-in scenario namespace, assembled on first use and
// never again: building the 133 specs costs milliseconds and megabytes of
// garbage, and every named farosd submission looks one up. The specs
// share their Programs, Endpoints and Events backing arrays with every
// caller, so they are read-only; the run path only reads them (program
// images are copied into the guest filesystem, endpoints are stateless
// values, packet payloads are never written in place).
var builtin = sync.OnceValues(func() (map[string]Spec, []string) {
	byName := make(map[string]Spec)
	add := func(specs []Spec) {
		for _, s := range specs {
			byName[s.Name] = s
		}
	}
	add(samples.Attacks())
	add([]Spec{samples.TransientReflective()})
	add(samples.EvasionScenarios())
	add(samples.JITWorkloads())
	add(samples.BenignPrograms())
	add(samples.MalwareCorpus())
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return byName, names
})

// Scenarios returns every built-in scenario by name: the six attacks, the
// transient variant, 20 JIT workloads, 14 benign programs, and the
// 90-sample malware corpus. The map is the caller's own, but its specs
// share their slices with the built-in namespace and must not be written
// through.
func Scenarios() map[string]Spec {
	byName, _ := builtin()
	return maps.Clone(byName)
}

// ScenarioNames returns the built-in scenario names, sorted.
func ScenarioNames() []string {
	_, names := builtin()
	return slices.Clone(names)
}

// Attacks returns the six §VI in-memory-injection scenarios.
func Attacks() []Spec { return samples.Attacks() }
