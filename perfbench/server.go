package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"mnnfast/internal/obs"
)

// server is one mnnfast-serve child process on a loopback port.
type server struct {
	cmd    *exec.Cmd
	addr   string
	log    *lockedBuffer
	http   *http.Client
	exited chan struct{} // closed once the process has been reaped
}

// lockedBuffer collects the child's output for error reports.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.b.Len() < 1<<20 {
		l.b.Write(p)
	}
	return len(p), nil
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("find a free port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer launches bin with args on a free loopback port. The
// child is killed if this process dies first.
func startServer(bin string, args []string) (*server, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	logs := new(lockedBuffer)
	cmd.Stdout, cmd.Stderr = logs, logs
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, addr: addr, log: logs, http: &http.Client{Timeout: 30 * time.Second}, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // how it exited is reported by waitReady or does not matter after stop
		close(s.exited)
	}()
	return s, nil
}

// waitReady polls /v1/healthz until the server answers or the deadline
// passes.
func (s *server) waitReady(deadline time.Duration) error {
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		resp, err := s.http.Get("http://" + s.addr + "/v1/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return fmt.Errorf("mnnfast-serve exited during start-up; its output:\n%s", s.log)
		default:
		}
		sleepUntil(time.Now().Add(time.Millisecond))
	}
	return fmt.Errorf("mnnfast-serve on %s not ready within %v; its output:\n%s", s.addr, deadline, s.log)
}

// stop sends SIGTERM, waits for the graceful drain, and kills the
// process if it has not exited after five seconds.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-s.exited:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	s.http.CloseIdleConnections()
}

func (s *server) get(path string) ([]byte, error) {
	resp, err := s.http.Get("http://" + s.addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b.Bytes(), nil
}

// scrape reads the server's /v1/metrics.
func (s *server) scrape() (obs.Scrape, error) {
	b, err := s.get("/v1/metrics")
	if err != nil {
		return nil, err
	}
	return obs.ParseText(bytes.NewReader(b))
}

// cpuTicks reads the guest's CPU time counters from /proc/stat: the
// time its CPUs ran or waited to run (all but idle and iowait), and the
// part of that the hypervisor stole.
func cpuTicks() (busy, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0 // not Linux or no /proc: report no steal
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64) // a malformed field counts as 0
		switch i {
		case 3, 4: // idle, iowait
		case 7:
			steal = v
			busy += v
		default:
			busy += v
		}
	}
	return busy, steal
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}
