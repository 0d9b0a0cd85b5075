package pipeline_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"faros"
	"faros/internal/pipeline"
	"faros/internal/samples"
	"faros/internal/scenario"
	"faros/internal/trace"
)

// TestAnalyzeTimeoutBounds pins how a request's timeout_ms meets the
// server's -timeout: negative is a 400 (it used to run with no deadline
// at all), a larger value is capped at the server's deadline, and a
// smaller one, or any value when the server has no deadline, is honored.
// Every accepted case runs a guest that spins for the largest budget the
// server accepts, seconds of guest time, so only a deadline ends it in
// time; the HTTP client's own timeout turns a missing cap into a failure
// instead of a hang.
func TestAnalyzeTimeoutBounds(t *testing.T) {
	spinner, err := samples.MarshalSpec(samples.Spinner(pipeline.MaxSpecInstr))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		server     time.Duration // pipeline.Config.JobTimeout
		timeoutMS  int64
		wantStatus int
	}{
		{"negative rejected", 0, -1, http.StatusBadRequest},
		{"negative rejected without server deadline", -1, -500, http.StatusBadRequest},
		{"zero takes server deadline", 300 * time.Millisecond, 0, http.StatusGatewayTimeout},
		{"larger capped at server deadline", 300 * time.Millisecond, 3_600_000, http.StatusGatewayTimeout},
		{"overflowing value capped", 300 * time.Millisecond, math.MaxInt64, http.StatusGatewayTimeout},
		{"smaller honored", time.Hour, 200, http.StatusGatewayTimeout},
		{"honored without server deadline", -1, 200, http.StatusGatewayTimeout},
	}
	httpc := &http.Client{Timeout: 30 * time.Second}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv, p := newTestServer(t, pipeline.Config{Workers: 1, JobTimeout: tc.server})
			body := fmt.Sprintf(`{"spec": %s, "mode": "live", "timeout_ms": %d, "wait": true}`, spinner, tc.timeoutMS)
			resp, err := httpc.Post(srv.URL+"/analyze", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("no answer (deadline not capped?): %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			st := p.Stats()
			if tc.wantStatus == http.StatusBadRequest && st.JobsSubmitted != 0 {
				t.Errorf("rejected request submitted %d jobs", st.JobsSubmitted)
			}
			if tc.wantStatus == http.StatusGatewayTimeout && st.JobsDeadline != 1 {
				t.Errorf("deadline failures = %d, want 1", st.JobsDeadline)
			}
		})
	}
}

// TestAnalyzeBodyBound pins the POST /analyze body limit: the largest
// built-in spec still runs when submitted inline, and a body past the
// bound is refused with 413 before it is decoded.
func TestAnalyzeBodyBound(t *testing.T) {
	srv, _ := newTestServer(t, pipeline.Config{Workers: 1})

	var largest []byte
	for _, spec := range faros.Scenarios() {
		wire, err := samples.MarshalSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if len(wire) > len(largest) {
			largest = wire
		}
	}
	if len(largest)*16 > pipeline.MaxAnalyzeBody {
		t.Fatalf("largest built-in spec is %d bytes: the %d-byte body bound leaves too little room",
			len(largest), pipeline.MaxAnalyzeBody)
	}
	resp, view := postAnalyze(t, srv, fmt.Sprintf(`{"spec": %s, "wait": true}`, largest))
	if resp.StatusCode != http.StatusOK || view.State != pipeline.StateDone {
		t.Fatalf("largest spec inline: status %d, state %q, error %q", resp.StatusCode, view.State, view.Error)
	}

	huge := `{"spec": {"name": "` + strings.Repeat("x", pipeline.MaxAnalyzeBody) + `"}}`
	resp, _ = postAnalyze(t, srv, huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit body: status %d, want 413", resp.StatusCode)
	}
}

// TestTraceUploadBound pins the POST /traces body limit: a request that
// declares a Content-Length past the bound is refused with 413 before any
// of the body is read. The request carries only a few bytes, so a handler
// that waited for the declared body would hit the connection deadline
// instead of answering.
func TestTraceUploadBound(t *testing.T) {
	srv, _, _ := newTraceServer(t)
	conn, err := net.Dial("tcp", srv.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "POST /traces HTTP/1.1\r\nHost: farosd\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\nFTRC",
		pipeline.MaxTraceUpload+1)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-limit Content-Length: status %d, want 413", resp.StatusCode)
	}
}

// TestTraceUploadOversizeHeader: a trace body whose header declares far
// more than it carries — a 64 MiB spec wire in 10 bytes, 2^40 events
// behind an 87-byte header — is a 400, not a large allocation.
func TestTraceUploadOversizeHeader(t *testing.T) {
	srv, p, _ := newTraceServer(t)
	var events bytes.Buffer
	events.WriteString("FTRC\x01\x00\x00") // version 1, empty name and spec wire
	empty := sha256.Sum256(nil)
	events.Write(empty[:])
	events.Write(make([]byte, sha256.Size+8)) // memory image, final instr
	var count [8]byte
	binary.BigEndian.PutUint64(count[:], 1<<40)
	events.Write(count[:])
	for name, body := range map[string][]byte{
		"spec wire": []byte("FTRC\x01\x00\x80\x80\x80\x20"),
		"events":    events.Bytes(),
	} {
		if resp, out := postTrace(t, srv, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s (%d bytes): status %d body %v, want 400", name, len(body), resp.StatusCode, out)
		}
	}
	if st := p.Stats(); st.Trace.Ingested != 0 || st.TraceStore.Entries != 0 {
		t.Errorf("rejected uploads stored: %+v, %d entries", st.Trace, st.TraceStore.Entries)
	}
}

// TestAnalyzeMaxInstrCeiling pins the server-side ceiling on a spec's
// max_instr across every selector: a named scenario, an inline
// scenario_file, an inline spec, and a stored trace's embedded spec. A
// budget at the ceiling runs; one instruction past it is a 400 and
// submits nothing.
func TestAnalyzeMaxInstrCeiling(t *testing.T) {
	const payloadHex = "01 08 00 00 00 00 00 00 03 02 01 00 00 00 00 00 03 02 05 00 00 00 e0 7f 19 01 05 00 00 00 00 00"
	specWithBudget := func(budget uint64) samples.Spec {
		spec := samples.ReflectiveDLLInject()
		spec.MaxInstr = budget
		return spec
	}
	selectors := map[string]func(t *testing.T, srv *httptest.Server, budget uint64) string{
		"named": func(t *testing.T, _ *httptest.Server, _ uint64) string {
			return `{"scenario": "budgeted", "mode": "live", "wait": true}`
		},
		"scenario_file": func(t *testing.T, _ *httptest.Server, budget uint64) string {
			return fmt.Sprintf(`{"scenario_file": {"name": "hex_attack", "self_inject": true, "payload_hex": %q, "max_instr": %d},
				"mode": "live", "wait": true}`, payloadHex, budget)
		},
		"spec": func(t *testing.T, _ *httptest.Server, budget uint64) string {
			wire, err := samples.MarshalSpec(specWithBudget(budget))
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprintf(`{"spec": %s, "mode": "live", "wait": true}`, wire)
		},
		"trace": func(t *testing.T, srv *httptest.Server, budget uint64) string {
			data, digest, _, err := scenario.RecordTrace(context.Background(), specWithBudget(budget), nil)
			if err != nil {
				t.Fatal(err)
			}
			if resp, body := postTrace(t, srv, data); resp.StatusCode != http.StatusCreated {
				t.Fatalf("upload: status %d body %v", resp.StatusCode, body)
			}
			return fmt.Sprintf(`{"trace": %q, "wait": true}`, digest)
		},
	}
	cases := []struct {
		name       string
		budget     uint64
		wantStatus int
	}{
		{"at ceiling", pipeline.MaxSpecInstr, http.StatusOK},
		{"past ceiling", pipeline.MaxSpecInstr + 1, http.StatusBadRequest},
	}
	for selector, body := range selectors {
		for _, tc := range cases {
			t.Run(selector+" "+tc.name, func(t *testing.T) {
				ts, err := trace.OpenStore(trace.StoreConfig{Dir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { ts.Close() })
				p, err := pipeline.New(pipeline.Config{Workers: 1, Traces: ts})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(p.Close)
				srv := httptest.NewServer(pipeline.NewHandler(p, pipeline.ServerConfig{
					Resolve: func(name string) (samples.Spec, bool) {
						return specWithBudget(tc.budget), name == "budgeted"
					},
				}))
				t.Cleanup(srv.Close)
				resp, err := http.Post(srv.URL+"/analyze", "application/json", strings.NewReader(body(t, srv, tc.budget)))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var out map[string]any
				_ = json.NewDecoder(resp.Body).Decode(&out)
				if resp.StatusCode != tc.wantStatus {
					t.Fatalf("status %d, want %d: %v", resp.StatusCode, tc.wantStatus, out)
				}
				if st := p.Stats(); tc.wantStatus == http.StatusBadRequest && st.JobsSubmitted != 0 {
					t.Errorf("rejected request submitted %d jobs", st.JobsSubmitted)
				}
			})
		}
	}
}
