package main

import (
	"bufio"
	"bytes"
	"net"
	"net/http"
	"os"
	"os/exec"
	"testing"
	"time"
)

// execMainEnv makes a re-executed test binary run the cardpi command line
// (os.Args[1:]) instead of the tests, so a test can drive a real `cardpi
// serve` process without building a separate binary.
const execMainEnv = "CARDPI_TEST_EXEC_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(execMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestServeGracefulShutdownWithIdleKeepAlive runs `cardpi serve` as a child
// process (small table, recalibration supervisor on), answers one estimate
// on a keep-alive connection that then sits idle, sends SIGINT, and
// requires exit status 0 within the drain timeout plus 2 s: an idle client
// or the supervisor goroutine must not hold shutdown open. The child is
// killed on any failure, and dies with the test binary (dieWithParent), so
// the test never leaves a server behind.
func TestServeGracefulShutdownWithIdleKeepAlive(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a server process")
	}
	const drain = 2 * time.Second
	addr := freeAddr(t)
	cmd := exec.Command(os.Args[0], "serve", "-addr", addr,
		"-dataset", "dmv", "-rows", "2000", "-queries", "300",
		"-model", "histogram", "-method", "s-cp", "-recal=true",
		"-drain", drain.String())
	cmd.Env = append(os.Environ(), execMainEnv+"=1")
	dieWithParent(cmd)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	exited := false
	// reap kills the child unless it has already exited and returns its
	// stderr, which is only safe to read once Wait has returned.
	reap := func() string {
		if !exited {
			_ = cmd.Process.Kill()
			<-done
			exited = true
		}
		return stderr.String()
	}
	t.Cleanup(func() { reap() })

	// Wait for the listener: the first 200 from /healthz.
	ready := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		select {
		case err := <-done:
			exited = true
			t.Fatalf("server exited before becoming ready: %v\n%s", err, stderr.String())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(ready) {
			t.Fatalf("server not ready after 60s\n%s", reap())
		}
	}

	// One estimate on a raw keep-alive connection, which then stays open
	// and idle through the shutdown.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET /estimate?q=state+%3D+3 HTTP/1.1\r\nHost: cardpi\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Close {
		t.Fatalf("estimate: status %d, close %v: %s", resp.StatusCode, resp.Close, body.String())
	}

	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		exited = true
		if err != nil {
			t.Fatalf("serve exited with %v after SIGINT\n%s", err, stderr.String())
		}
	case <-time.After(drain + 2*time.Second):
		t.Fatalf("serve still running %v after SIGINT\n%s", drain+2*time.Second, reap())
	}
}
