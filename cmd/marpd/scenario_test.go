package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/clusterspec"
	"repro/internal/scenario"
)

// TestScenarioRecordReplay is the incident record/replay pipeline end to
// end, at deployment granularity: three durable marpd processes spool every
// accepted submit (-record), the operator injects a partition through
// marpctl and a kill -9 outside it (record-fault), snapshot-scenario merges
// the spools into one bundle, and the bundle replays deterministically on
// the DES engine with byte-equal per-key commit digests — DESIGN.md's
// invariant 14. A deliberately corrupted copy of the bundle must be
// rejected cleanly (exit 2), never panic.
//
// All writes are homed at processes 1 and 2: commit/failed counters live in
// process memory, so a kill -9 of process 3 must not take any accepted
// submission's accounting with it (its *data* recovers from the WAL and
// anti-entropy; the counter would not).
func TestScenarioRecordReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and uses wall-clock timeouts")
	}
	bin := t.TempDir()
	marpd := filepath.Join(bin, "marpd")
	marpctl := filepath.Join(bin, "marpctl")
	marpbench := filepath.Join(bin, "marpbench")
	for path, pkg := range map[string]string{
		marpd: "repro/cmd/marpd", marpctl: "repro/cmd/marpctl", marpbench: "repro/cmd/marpbench",
	} {
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
	spool := t.TempDir()
	allAddrs := strings.Join(client[1:], ",")

	start := func(i int) *exec.Cmd {
		cmd := exec.Command(marpd, "-spec", specPath, "-node", fmt.Sprint(i), "-record", spool)
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

	// ctl runs the marpctl binary with the shared spool and address book.
	ctl := func(args ...string) string {
		t.Helper()
		full := append([]string{"-record", spool, "-addrs", allAddrs}, args...)
		out, err := exec.Command(marpctl, full...).CombinedOutput()
		if err != nil {
			t.Fatalf("marpctl %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}
	type digestLine struct {
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
	// converge waits until every listed process reports the same digest over
	// at least min commits.
	converge := func(min int, deadline time.Duration, ids ...int) {
		t.Helper()
		end := time.Now().Add(deadline)
		for {
			ds := make([]digestLine, len(ids))
			ok := true
			for j, id := range ids {
				ds[j] = digestJSON(id)
				if ds[j].Commits < min || ds[j].Digest != ds[0].Digest {
					ok = false
				}
			}
			if ok {
				return
			}
			if time.Now().After(end) {
				t.Fatalf("processes %v did not converge on >= %d commits: %+v", ids, min, ds)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	writes := 0
	write := func(home int, key string) {
		t.Helper()
		if err := clients[home].c.Submit(home, key, fmt.Sprintf("val-%d", writes), false); err != nil {
			t.Fatalf("submit %s via process %d: %v", key, home, err)
		}
		writes++
	}

	// Phase 1: calm traffic on both writer homes, full convergence.
	for w := 0; w < 4; w++ {
		write(w%2+1, fmt.Sprintf("calm-%d", w))
	}
	converge(writes, 30*time.Second, 1, 2, 3)

	// Phase 2: split {1,2} | {3}; the majority keeps committing.
	ctl("partition", "1,2/3")
	for w := 0; w < 4; w++ {
		write(w%2+1, fmt.Sprintf("split-%d", w))
	}
	converge(writes, 30*time.Second, 1, 2)

	// Phase 3: heal; anti-entropy repairs process 3.
	ctl("heal")
	converge(writes, 30*time.Second, 1, 2, 3)

	// Phase 4: kill -9 process 3 at a quiet, converged moment. The fault is
	// out of band, so it is recorded without being injected through the
	// protocol.
	ctl("record-fault", "crash", "3")
	if err := procs[3].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	procs[3].Wait()
	clients[3].close()
	for w := 0; w < 4; w++ {
		write(w%2+1, fmt.Sprintf("down-%d", w))
	}
	converge(writes, 30*time.Second, 1, 2)

	// Phase 5: restart under the same data directory, record the recovery.
	ctl("record-fault", "recover", "3")
	procs[3] = start(3)
	clients[3] = &clientConn{c: dialWait(t, client[3], 10*time.Second)}
	write(1, "rejoin-0")
	converge(writes, 45*time.Second, 1, 2, 3)

	// Snapshot: merge the spools into one bundle.
	bundlePath := filepath.Join(t.TempDir(), "incident.jsonl")
	out := ctl("-name", "e2e-incident", "-seed", "7", "-note", "record/replay E2E",
		"-out", bundlePath, "snapshot-scenario")
	if !strings.Contains(out, "wrote "+bundlePath) {
		t.Fatalf("snapshot-scenario output: %s", out)
	}

	// The bundle carries the whole incident: every write, the split, the
	// heal, and the out-of-band crash/recover pair.
	b, err := scenario.ReadFile(bundlePath)
	if err != nil {
		t.Fatalf("reading the captured bundle: %v", err)
	}
	if b.Header.Servers != n || b.Header.Fsync != "commit" || b.Digest.Commits != writes {
		t.Fatalf("bundle header/footer off: %+v / commits %d, want %d servers, fsync commit, %d commits",
			b.Header, b.Digest.Commits, n, writes)
	}
	kinds := map[scenario.EventKind]int{}
	for _, e := range b.Events {
		kinds[e.Kind]++
	}
	if kinds[scenario.KindSubmit] != writes || kinds[scenario.KindPartition] != 1 ||
		kinds[scenario.KindHeal] != 1 || kinds[scenario.KindCrash] != 1 || kinds[scenario.KindRecover] != 1 {
		t.Fatalf("event census %v, want %d submits and one of each fault", kinds, writes)
	}

	// Invariant 14: the recorded live run and its DES replay produce equal
	// per-key commit digests — through the real marpbench binary, exit 0.
	replay, err := exec.Command(marpbench, "-exp", "replay", "-scenario", bundlePath).CombinedOutput()
	if err != nil {
		t.Fatalf("marpbench replay: %v\n%s", err, replay)
	}
	if !strings.Contains(string(replay), "digests match the recording") {
		t.Fatalf("replay output: %s", replay)
	}

	// A corrupted copy — the digest footer torn off mid-line — is rejected
	// with exit 2 and a malformed-bundle message, no panic.
	raw, err := os.ReadFile(bundlePath)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(filepath.Dir(bundlePath), "corrupt.jsonl")
	if err := os.WriteFile(corrupt, raw[:len(raw)-30], 0o644); err != nil {
		t.Fatal(err)
	}
	bad, err := exec.Command(marpbench, "-exp", "replay", "-scenario", corrupt).CombinedOutput()
	if err == nil {
		t.Fatalf("corrupted bundle replayed successfully:\n%s", bad)
	}
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 2 {
		t.Fatalf("corrupted bundle: err %v (want exit 2)\n%s", err, bad)
	}
	if strings.Contains(string(bad), "panic") {
		t.Fatalf("corrupted bundle panicked the replayer:\n%s", bad)
	}

	// A tampered footer digest is a *mismatch*: exit 1, with a per-key diff.
	tampered := filepath.Join(filepath.Dir(bundlePath), "tampered.jsonl")
	text := strings.Replace(string(raw), `"calm-0":"`, `"calm-0":"dead`, 1)
	if text == string(raw) {
		t.Fatal("tamper target key not found in bundle")
	}
	if err := os.WriteFile(tampered, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	mis, err := exec.Command(marpbench, "-exp", "replay", "-scenario", tampered).CombinedOutput()
	exit, ok = err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 1 {
		t.Fatalf("tampered bundle: err %v (want exit 1)\n%s", err, mis)
	}
	if !strings.Contains(string(mis), "DIGEST MISMATCH") || !strings.Contains(string(mis), "calm-0") {
		t.Fatalf("tampered-bundle output missing the per-key diff:\n%s", mis)
	}
}
