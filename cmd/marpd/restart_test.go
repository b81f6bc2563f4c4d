package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/clusterspec"
	"repro/internal/transport"
)

// TestLiveRestartSmoke is the durability story at deployment granularity —
// the same scenario the CI restart-smoke gate runs from the shell: three
// durable marpd processes, a workload in flight, kill -9 one process
// mid-workload, restart it under the same data_dir, and require all three
// digests to agree on the full commit set. The restarted process replays
// its WAL for everything it acked and pulls the rest via anti-entropy.
func TestLiveRestartSmoke(t *testing.T) {
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
	client := make([]string, n+1)
	spec := clusterspec.Spec{Fsync: "commit"}
	for i := 1; i <= n; i++ {
		client[i] = freePort(t)
		spec.Nodes = append(spec.Nodes, clusterspec.Node{
			ID: i, Fabric: freePort(t), Client: client[i], DataDir: t.TempDir(),
		})
	}
	specPath := writeSpec(t, spec)

	start := func(i int) *exec.Cmd {
		cmd := exec.Command(marpd, "-spec", specPath, "-node", fmt.Sprint(i))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("starting replica %d: %v", i, err)
		}
		return cmd
	}
	procs := make([]*exec.Cmd, n+1)
	for i := 1; i <= n; i++ {
		procs[i] = start(i)
	}
	t.Cleanup(func() {
		for i := 1; i <= n; i++ {
			if procs[i] != nil && procs[i].Process != nil {
				procs[i].Process.Kill()
				procs[i].Wait()
			}
		}
	})

	clients := make([]*clientConn, n+1)
	for i := 1; i <= n; i++ {
		clients[i] = &clientConn{c: dialWait(t, client[i], 5*time.Second)}
		defer clients[i].close()
	}

	// digestJSON asks a process for its digest through the marpctl binary's
	// -json output, the way the CI gate does.
	type digestLine struct {
		Node    int    `json:"node"`
		Digest  string `json:"digest"`
		Commits int    `json:"commits"`
	}
	digestJSON := func(i int) digestLine {
		out, err := exec.Command(marpctl, "-json", "-addr", client[i], "digest", fmt.Sprint(i)).Output()
		if err != nil {
			t.Fatalf("marpctl -json digest %d: %v", i, err)
		}
		var d digestLine
		if err := json.Unmarshal(out, &d); err != nil {
			t.Fatalf("parsing digest JSON %q: %v", out, err)
		}
		return d
	}

	// First half of the workload lands on all three; wait for full
	// convergence so every one of these commits is on process 3's disk.
	const half = 12
	write := func(w int) {
		home := w%n + 1
		if err := clients[home].c.Submit(home, fmt.Sprintf("key-%d", w), fmt.Sprintf("val-%d", w), false); err != nil {
			t.Fatalf("submit %d via process %d: %v", w, home, err)
		}
	}
	converge := func(min int, deadline time.Duration) digestLine {
		t.Helper()
		end := time.Now().Add(deadline)
		for {
			d1, d2, d3 := digestJSON(1), digestJSON(2), digestJSON(3)
			if d1.Commits >= min && d1.Digest == d2.Digest && d2.Digest == d3.Digest {
				return d1
			}
			if time.Now().After(end) {
				t.Fatalf("no convergence: %+v %+v %+v (want >= %d commits)", d1, d2, d3, min)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	for w := 0; w < half; w++ {
		write(w)
	}
	converge(half, 30*time.Second)

	// Second half starts flowing, and mid-workload process 3 gets kill -9:
	// no signal handler, no journal close, no trace flush. Agents resident
	// on the dying process die with it — those writes are legitimately
	// lost (the paper's known mobile-agent failure mode; regeneration is a
	// separate knob) — but every commit process 3 ACKED is on its disk.
	write(half)
	write(half + 1)
	if err := procs[3].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	procs[3].Wait()
	clients[3].close()
	guaranteed := half // in-flight second-half writes carry no promise
	for w := half + 2; w < 2*half; w++ {
		if home := w%n + 1; home != 3 {
			write(w)
			guaranteed++ // submitted to a live majority after the kill
		}
	}

	// Restart from the same spec, so under the same data directory.
	procs[3] = start(3)
	clients[3] = &clientConn{c: dialWait(t, client[3], 10*time.Second)}

	// All three digests must converge on the identical commit set, which
	// includes everything acked before the kill plus the post-kill writes:
	// the restarted process replays its WAL and pulls the rest from peers.
	converge(guaranteed, 45*time.Second)

	// The restarted process serves recovered data from its local copy.
	value, _, found, err := clients[3].c.Read(3, "key-0")
	if err != nil || !found || value != "val-0" {
		t.Fatalf("read at restarted process: %q found=%v err=%v", value, found, err)
	}

	// Referees stayed clean through the kill, and -json renders them too.
	for i := 1; i <= n; i++ {
		out, err := exec.Command(marpctl, "-json", "-addr", client[i], "referee").Output()
		if err != nil {
			t.Fatalf("marpctl -json referee %d: %v", i, err)
		}
		var ref struct {
			Wins       int `json:"wins"`
			Violations int `json:"violations"`
		}
		if err := json.Unmarshal(out, &ref); err != nil {
			t.Fatalf("parsing referee JSON %q: %v", out, err)
		}
		if ref.Violations != 0 {
			t.Fatalf("process %d referee: %+v", i, ref)
		}
	}

	// All three shut down cleanly, including the restarted one.
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
		procs[i] = nil
	}
}

// clientConn wraps a transport client with an idempotent close, so the
// deferred cleanup and the mid-test close after kill -9 do not collide.
type clientConn struct {
	c      *transport.Client
	closed bool
}

func (cc *clientConn) close() {
	if !cc.closed {
		cc.closed = true
		cc.c.Close()
	}
}
