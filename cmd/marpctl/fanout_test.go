package main

import (
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/runtime/live"
	"repro/internal/transport"
)

// serveOne starts a one-replica live service on loopback.
func serveOne(t *testing.T) *transport.Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fabric := ln.Addr().String()
	ln.Close()
	srv, err := transport.ServeLive("127.0.0.1:0", live.NodeConfig{Self: 1, Addrs: map[runtime.NodeID]string{1: fabric}})
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// TestFanoutDeadEndpoint pins the partial-failure contract: the sweep
// still reaches the live processes, and the returned error names exactly
// the addresses that failed (marpctl exits non-zero on it).
func TestFanoutDeadEndpoint(t *testing.T) {
	srv := serveOne(t)

	// A port that was listening a moment ago and no longer is: the
	// canonical dead cluster process.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	visited := 0
	err = fanout([]string{srv.Addr(), deadAddr}, time.Second, func(cli *transport.Client) error {
		visited++
		return cli.Heal()
	})
	if err == nil {
		t.Fatal("fanout with a dead endpoint returned nil error")
	}
	if visited != 1 {
		t.Errorf("fn ran %d time(s), want 1 (live endpoint only)", visited)
	}
	if !strings.Contains(err.Error(), deadAddr) {
		t.Errorf("error does not name the dead endpoint %s: %v", deadAddr, err)
	}
	if strings.Contains(err.Error(), srv.Addr()) {
		t.Errorf("error blames the live endpoint %s: %v", srv.Addr(), err)
	}

	// All endpoints alive: no error, every process visited.
	visited = 0
	if err := fanout([]string{srv.Addr()}, time.Second, func(cli *transport.Client) error {
		visited++
		return cli.Heal()
	}); err != nil || visited != 1 {
		t.Errorf("healthy fanout: err = %v, visited = %d", err, visited)
	}
}

// TestCrashIsNotACommand: no server can fail-stop itself on request, so
// `marpctl crash` must fail — and must not spool a crash event for a fault
// that never happened. (A real crash is a kill -9, recorded with
// record-fault.)
func TestCrashIsNotACommand(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the marpctl binary")
	}
	bin := filepath.Join(t.TempDir(), "marpctl")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/marpctl").CombinedOutput(); err != nil {
		t.Fatalf("building marpctl: %v\n%s", err, out)
	}
	srv := serveOne(t)
	for _, cmd := range []string{"crash", "recover"} {
		spool := t.TempDir()
		out, err := exec.Command(bin, "-addr", srv.Addr(), "-record", spool, cmd, "1").CombinedOutput()
		if err == nil {
			t.Errorf("marpctl %s 1 exited 0:\n%s", cmd, out)
		}
		if !strings.Contains(string(out), "record-fault crash <node>") {
			t.Errorf("marpctl %s 1 does not point to record-fault:\n%s", cmd, out)
		}
		if files, _ := os.ReadDir(spool); len(files) != 0 {
			t.Errorf("marpctl %s 1 wrote %d file(s) to the -record spool", cmd, len(files))
		}
	}
}
