package pipeline_test

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"faros"
	"faros/internal/pipeline"
	"faros/internal/samples"
)

// TestAnalyzeTimeoutBounds pins how a request's timeout_ms meets the
// server's -timeout: negative is a 400 (it used to run with no deadline
// at all), a larger value is capped at the server's deadline, and a
// smaller one, or any value when the server has no deadline, is honored.
// Every accepted case runs a guest that never exits, so only a deadline
// ends it; the HTTP client's own timeout turns a missing cap into a
// failure instead of a hang.
func TestAnalyzeTimeoutBounds(t *testing.T) {
	spinner, err := samples.MarshalSpec(samples.Spinner(1 << 40))
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
