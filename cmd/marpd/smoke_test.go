package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/clusterspec"
	"repro/internal/transport"
)

// TestLiveMultiProcessSmoke is the deployment-shaped end of the runtime
// seam: it builds the real marpd and marpctl binaries, spawns three live
// replica processes, drives ~50 submits and reads through the client
// protocol, and asserts that the processes converge on identical commit
// digests, that the per-process referees stay clean, and that SIGTERM shuts
// every process down with exit status 0.
func TestLiveMultiProcessSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and uses wall-clock timeouts")
	}
	bin := t.TempDir()
	marpd := filepath.Join(bin, "marpd")
	marpctl := filepath.Join(bin, "marpctl")
	for path, pkg := range map[string]string{marpd: "repro/cmd/marpd", marpctl: "repro/cmd/marpctl"} {
		out, err := exec.Command("go", "build", "-o", path, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}

	const n = 3
	client := make([]string, n+1) // client protocol addresses, 1-based
	var spec clusterspec.Spec
	for i := 1; i <= n; i++ {
		client[i] = freePort(t)
		spec.Nodes = append(spec.Nodes, clusterspec.Node{ID: i, Fabric: freePort(t), Client: client[i]})
	}
	specPath := writeSpec(t, spec)

	procs := make([]*exec.Cmd, n+1)
	for i := 1; i <= n; i++ {
		cmd := exec.Command(marpd, "-spec", specPath, "-node", fmt.Sprint(i))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting replica %d: %v", i, err)
		}
		procs[i] = cmd
		t.Cleanup(func() {
			if cmd.Process != nil {
				cmd.Process.Kill()
				cmd.Wait()
			}
		})
	}

	// Connect one client per process, waiting out process startup.
	clients := make([]*transport.Client, n+1)
	for i := 1; i <= n; i++ {
		clients[i] = dialWait(t, client[i], 5*time.Second)
		defer clients[i].Close()
	}

	// ~50 writes, spread across all three processes; each process submits
	// for its own replica (a live process can only originate agents for the
	// node it hosts).
	const writes = 51
	for w := 0; w < writes; w++ {
		home := w%n + 1
		key := fmt.Sprintf("key-%d-%d", home, w)
		if err := clients[home].Submit(home, key, fmt.Sprintf("val-%d", w), false); err != nil {
			t.Fatalf("submit %d via process %d: %v", w, home, err)
		}
	}

	// Convergence: all three processes report the same digest over the same
	// number of commits (driven through the marpctl binary, as an operator
	// would).
	deadline := time.Now().Add(30 * time.Second)
	var digests [n + 1]string
	for {
		agree := true
		for i := 1; i <= n; i++ {
			out, err := exec.Command(marpctl, "-addr", client[i], "digest", fmt.Sprint(i)).Output()
			if err != nil {
				t.Fatalf("marpctl digest %d: %v", i, err)
			}
			digests[i] = strings.TrimSpace(string(out))
			if !strings.Contains(digests[i], fmt.Sprintf("(%d commits)", writes)) || digests[i] != digests[1] {
				agree = false
			}
		}
		if agree {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("processes did not converge: %q %q %q", digests[1], digests[2], digests[3])
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Reads: every process must serve every key from its local copy now.
	for w := 0; w < writes; w++ {
		home := w%n + 1
		node := (w+1)%n + 1 // deliberately read at a non-writing replica
		key := fmt.Sprintf("key-%d-%d", home, w)
		value, _, found, err := clients[node].Read(node, key)
		if err != nil || !found || value != fmt.Sprintf("val-%d", w) {
			t.Fatalf("read %s at process %d: %q found=%v err=%v", key, node, value, found, err)
		}
	}

	// The per-process referees observed no exclusivity violations.
	for i := 1; i <= n; i++ {
		out, err := exec.Command(marpctl, "-addr", client[i], "referee").Output()
		if err != nil {
			t.Fatalf("marpctl referee (process %d): %v", i, err)
		}
		if !strings.Contains(string(out), "violations 0") {
			t.Fatalf("process %d referee: %s", i, out)
		}
	}

	// Clean shutdown: SIGTERM, exit status 0.
	for i := 1; i <= n; i++ {
		if err := procs[i].Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("signalling replica %d: %v", i, err)
		}
	}
	for i := 1; i <= n; i++ {
		done := make(chan error, 1)
		go func() { done <- procs[i].Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("replica %d did not exit cleanly: %v", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("replica %d did not exit within 10s of SIGTERM", i)
		}
	}
}

// writeSpec writes the cluster spec a test's marpd processes boot from and
// returns its path: spec carries the cluster-level keys the test needs and
// one node per replica with its addresses. It is written as JSON, which
// clusterspec.Load reads like TOML.
func writeSpec(t *testing.T, spec clusterspec.Spec) string {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cluster.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// handedOut holds every address freePort has returned in this test binary.
var handedOut sync.Map

// freePort reserves a loopback address by briefly listening on an ephemeral
// port — same accepted test-only race as the in-process live tests. The
// kernel may hand a closed port out again; an address this binary already
// handed out is skipped, so one cluster never gets the same port twice.
func freePort(t *testing.T) string {
	t.Helper()
	for {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := ln.Addr().String()
		ln.Close()
		if _, taken := handedOut.LoadOrStore(addr, true); !taken {
			return addr
		}
	}
}

// dialWait connects to a transport service, retrying until the process has
// bound its socket.
func dialWait(t *testing.T, addr string, timeout time.Duration) *transport.Client {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		cli, err := transport.Dial(addr)
		if err == nil {
			return cli
		}
		if time.Now().After(deadline) {
			t.Fatalf("dialing %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
