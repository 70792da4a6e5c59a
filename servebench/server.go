package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// server is one running `cardpi serve` child process.
type server struct {
	cmd  *exec.Cmd
	addr string
	log  string
	done chan struct{} // closed once the process has exited
	err  error         // the process's exit error, valid after done
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startServer spawns `cardpi serve` with args, logging to logPath, and
// returns once /healthz answers 200, together with the time from spawn to
// that answer. /healthz is polled every millisecond without backoff, so the
// reading is not quantised by the poll interval.
func startServer(bin, logPath string, args []string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"serve", "-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, addr: addr, log: logPath, done: make(chan struct{})}
	client := &http.Client{Timeout: time.Second}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() { s.err = cmd.Wait(); close(s.done) }()
	deadline := start.Add(2 * time.Minute)
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				ready := time.Since(start)
				client.CloseIdleConnections()
				return s, ready, nil
			}
		}
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("server exited before it was ready (%v); log: %s", s.err, logPath)
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, 0, fmt.Errorf("server not ready after 2m; log: %s", logPath)
		}
	}
}

// stop asks the server to shut down gracefully and waits for it to exit,
// killing it if it has not exited within 15 s.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(os.Interrupt)
	select {
	case <-s.done:
		return s.err
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return fmt.Errorf("server did not stop within 15s; killed")
	}
}

// scrape fetches and parses /metrics.
func (s *server) scrape() (samples, error) {
	resp, err := http.Get("http://" + s.addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}
