package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"faros/internal/pipeline"
)

// server is one farosd child process.
type server struct {
	id   string
	url  string
	args []string
	log  string
	cmd  *exec.Cmd
	exit chan error
}

// freePorts asks the kernel for n distinct unused loopback ports. The
// listeners stay open until all n are chosen, so no port repeats.
func freePorts(n int) ([]int, error) {
	var ports []int
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer l.Close()
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// startServer launches farosd listening on port with the given extra
// flags; its output goes to <dir>/<id>.log.
func startServer(b *bench, dir, id string, port int, extra ...string) (*server, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logPath := filepath.Join(dir, id+".log")
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	args := append([]string{"-addr", fmt.Sprintf("127.0.0.1:%d", port)}, extra...)
	cmd := exec.Command(b.farosd, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start farosd: %w", err)
	}
	s := &server{
		id:   id,
		url:  fmt.Sprintf("http://127.0.0.1:%d", port),
		args: args,
		log:  logPath,
		cmd:  cmd,
		exit: make(chan error, 1),
	}
	go func() { s.exit <- cmd.Wait() }()
	return s, nil
}

// waitReady polls /readyz until it answers 200 and ok accepts the body.
func (s *server) waitReady(ok func(pipeline.Readiness) bool) error {
	deadline := time.Now().Add(30 * time.Second)
	hc := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case err := <-s.exit:
			s.exit <- err
			out, _ := os.ReadFile(s.log)
			if len(out) > 400 {
				out = out[len(out)-400:]
			}
			return fmt.Errorf("farosd %s exited before ready: %v: %s", s.id, err, bytes.TrimSpace(out))
		default:
		}
		resp, err := hc.Get(s.url + "/readyz")
		if err == nil {
			var rd pipeline.Readiness
			derr := json.NewDecoder(resp.Body).Decode(&rd)
			resp.Body.Close()
			if derr == nil && resp.StatusCode == http.StatusOK && (ok == nil || ok(rd)) {
				return nil
			}
		}
		time.Sleep(250 * time.Microsecond)
	}
	return fmt.Errorf("farosd %s not ready after 30s", s.id)
}

// stop sends SIGTERM (farosd drains and flushes its store) and waits for
// the process to exit, killing it if the drain hangs.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return fmt.Errorf("farosd %s: %w", s.id, err)
	}
	select {
	case err := <-s.exit:
		if err != nil && !killedByTerm(err) {
			return fmt.Errorf("farosd %s exit: %w", s.id, err)
		}
		return nil
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exit
		return fmt.Errorf("farosd %s did not stop on SIGTERM", s.id)
	}
}

// killedByTerm reports an exit by SIGTERM's default action. farosd
// answers /readyz before it installs its signal handler, so a stop right
// after readiness can land in that window; with nothing in flight yet the
// process has nothing to drain, and the stop is complete.
func killedByTerm(err error) bool {
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		return false
	}
	ws, ok := ee.Sys().(syscall.WaitStatus)
	return ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func (s *server) peakRSSMB() float64 {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// cpu is the CPU time the process has run so far, summed over its
// threads, read from its process CPU clock (clock_gettime on
// MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)). The scheduler's runtime
// leaves out time the hypervisor stole from the virtual CPU, which the
// wall clock counts.
func (s *server) cpu() (time.Duration, error) {
	clock := int64(^s.cmd.Process.Pid)<<3 | 2
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, uintptr(clock), uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0, fmt.Errorf("farosd %s CPU clock: %w", s.id, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// fleet is the set of farosd nodes one run drives; nodes[0] is the entry
// node every client request goes to.
type fleet struct {
	nodes []*server
	http  *http.Client
}

func newFleet(clients int, nodes ...*server) *fleet {
	tr := &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}
	return &fleet{nodes: nodes, http: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// entry is the node clients talk to.
func (f *fleet) entry() *server { return f.nodes[0] }

// stop terminates every node, last started first.
func (f *fleet) stop() error {
	var first error
	for i := len(f.nodes) - 1; i >= 0; i-- {
		if err := f.nodes[i].stop(); err != nil && first == nil {
			first = err
		}
	}
	f.http.CloseIdleConnections()
	return first
}

// cpu sums the nodes' CPU time.
func (f *fleet) cpu() (time.Duration, error) {
	var total time.Duration
	for _, s := range f.nodes {
		d, err := s.cpu()
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total, nil
}

// peakRSSMB sums the nodes' peak resident sets.
func (f *fleet) peakRSSMB() float64 {
	total := 0.0
	for _, s := range f.nodes {
		total += s.peakRSSMB()
	}
	return total
}

// stats scrapes /stats from every node.
func (f *fleet) stats() ([]pipeline.Stats, error) {
	out := make([]pipeline.Stats, len(f.nodes))
	for i, s := range f.nodes {
		body, status, err := f.do(context.Background(), http.MethodGet, s.url+"/stats", nil, nil)
		if err != nil {
			return nil, err
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("GET %s/stats: %d", s.url, status)
		}
		if err := json.Unmarshal(body, &out[i]); err != nil {
			return nil, fmt.Errorf("GET %s/stats: %w", s.url, err)
		}
	}
	return out, nil
}

// do sends one request and reads the whole body.
func (f *fleet) do(ctx context.Context, method, url string, body []byte, hdr http.Header) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := f.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}
