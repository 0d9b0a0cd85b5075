package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"faros/internal/pipeline"
	"faros/internal/provgraph"
	"faros/internal/scenario"
	"faros/internal/triage"
)

// answerBook remembers the first answer per cache key, so every repeat of
// a key must return byte-identical findings (and prov graphs), and tracks
// which stored keys have been touched since the last restart.
type answerBook struct {
	mu       sync.Mutex
	findings map[string][]byte
	prov     map[string][]byte
	touched  map[string]bool
}

// same records data as key's answer on first sight and otherwise
// requires it to be byte-identical.
func (ab *answerBook) same(prov bool, key string, data []byte) error {
	ab.mu.Lock()
	defer ab.mu.Unlock()
	m := &ab.findings
	what := "findings"
	if prov {
		m, what = &ab.prov, "prov graph"
	}
	if *m == nil {
		*m = make(map[string][]byte)
	}
	first, ok := (*m)[key]
	if !ok {
		(*m)[key] = append([]byte(nil), data...)
		return nil
	}
	if !bytes.Equal(first, data) {
		return fmt.Errorf("%s of %.12s differ from its first answer", what, key)
	}
	return nil
}

// touch reports whether this is the first request for key since the last
// restart.
func (ab *answerBook) touch(key string) bool {
	ab.mu.Lock()
	defer ab.mu.Unlock()
	if ab.touched == nil {
		ab.touched = make(map[string]bool)
	}
	if ab.touched[key] {
		return false
	}
	ab.touched[key] = true
	return true
}

func (ab *answerBook) resetTouched() {
	ab.mu.Lock()
	ab.touched = nil
	ab.mu.Unlock()
}

// checkView validates a POST /analyze answer against the request.
func checkView(b *bench, r *request, body []byte, status int) (*pipeline.JobView, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var v pipeline.JobView
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("decode job view: %w", err)
	}
	if v.State != pipeline.StateDone || v.Error != "" || v.Result == nil {
		return nil, fmt.Errorf("job %s state %s: %s", v.ID, v.State, v.Error)
	}
	if r.key != "" && v.Hash != r.key {
		return nil, fmt.Errorf("answer hash %.12s, want %.12s", v.Hash, r.key)
	}
	return &v, checkResult(b, r, v.Result, v.Hash)
}

// checkResult validates a served result: declared verdict, expected rule
// and risk, the trace-farm reference, and byte-identity with the key's
// first answer.
func checkResult(b *bench, r *request, res *pipeline.Result, hash string) error {
	if res.Degraded != "" {
		return fmt.Errorf("%s: degraded: %s", res.Scenario, res.Degraded)
	}
	if r.name != "" && res.Scenario != r.name {
		return fmt.Errorf("answer for scenario %q, want %q", res.Scenario, r.name)
	}
	if res.Flagged != r.exp.flag {
		return fmt.Errorf("%s: flagged=%v, want %v", res.Scenario, res.Flagged, r.exp.flag)
	}
	if r.exp.rule != "" && !hasRule(res.Findings, r.exp.rule) {
		return fmt.Errorf("%s: no %s finding", res.Scenario, r.exp.rule)
	}
	if r.exp.high && res.Risk != "high" {
		return fmt.Errorf("%s: risk %q, want high", res.Scenario, res.Risk)
	}
	findings, err := json.Marshal(res.Findings)
	if err != nil {
		return err
	}
	if w := r.want; w != nil {
		switch {
		case res.Flagged != w.flagged, res.Instructions != w.instructions, res.Risk != w.risk:
			return fmt.Errorf("%s: flagged=%v instr=%d risk=%q, reference flagged=%v instr=%d risk=%q",
				res.Scenario, res.Flagged, res.Instructions, res.Risk, w.flagged, w.instructions, w.risk)
		case !bytes.Equal(findings, w.findings):
			return fmt.Errorf("%s: findings differ from the in-process reference replay", res.Scenario)
		}
	}
	return b.book.same(false, hash, findings)
}

// checkProv validates a GET /results/{hash}/prov answer: a well-formed
// graph, byte-identical to the first one served for the hash.
func checkProv(b *bench, hash string, body []byte, status int) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	if _, err := provgraph.FromJSON(body); err != nil {
		return fmt.Errorf("prov graph: %w", err)
	}
	return b.book.same(true, hash, body)
}

func hasRule(fs []pipeline.Finding, rule string) bool {
	for _, f := range fs {
		if f.Rule == rule {
			return true
		}
	}
	return false
}

// servedFindings builds the findings farosd serves for an in-process run
// under policy pol.
func servedFindings(pol *triage.Policy, res *scenario.Result) []pipeline.Finding {
	var out []pipeline.Finding
	for _, f := range res.Findings() {
		a := pol.ScoreFinding(f.Rule, f.Prov)
		out = append(out, pipeline.Finding{
			Rule: f.Rule, Process: f.ProcName, PID: f.PID, API: f.ResolvedAPI, Prov: f.Prov,
			Risk: a.Score.String(), RiskRule: a.Rule,
		})
	}
	return out
}

// aggregateRisk is the run-level score farosd derives from its findings.
func aggregateRisk(fs []pipeline.Finding) string {
	var scores []triage.Score
	for _, f := range fs {
		s, err := triage.ParseScore(f.Risk)
		if err == nil {
			scores = append(scores, s)
		}
	}
	return triage.Aggregate(scores...).String()
}
