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

// TestGenerateScenarioCorpus re-captures the named incident bundles under
// scenarios/ from real live clusters. It is a generator, not a gate: it
// only runs with UPDATE_SCENARIO_BUNDLES=1, spawns marpd/marpctl processes
// for each scenario, and verifies every captured bundle replays cleanly on
// the DES engine before leaving it on disk. The checked-in bundles are
// replayed by TestScenarioCorpus (and the CI scenario gate) on every run.
func TestGenerateScenarioCorpus(t *testing.T) {
	if os.Getenv("UPDATE_SCENARIO_BUNDLES") == "" {
		t.Skip("generator; run with UPDATE_SCENARIO_BUNDLES=1 to re-capture scenarios/")
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
	outDir, err := filepath.Abs(filepath.Join("..", "..", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}

	t.Run("wan-geo-split", func(t *testing.T) {
		h := newCorpusHarness(t, marpd, marpctl, 5, false, clusterspec.Spec{})
		for w := 0; w < 5; w++ {
			h.write(w+1, fmt.Sprintf("geo-%d", w))
		}
		h.converge(1, 2, 3, 4, 5)
		h.ctl("partition", "1,2,3/4,5")
		for w := 0; w < 6; w++ {
			h.write(w%3+1, fmt.Sprintf("split-%d", w))
		}
		h.converge(1, 2, 3)
		h.ctl("heal")
		h.converge(1, 2, 3, 4, 5)
		h.snapshot("wan-geo-split", 11,
			"two-site geo split: the three-replica site keeps committing, the minority site repairs on heal",
			filepath.Join(outDir, "wan-geo-split.jsonl"))
	})

	t.Run("thundering-herd", func(t *testing.T) {
		h := newCorpusHarness(t, marpd, marpctl, 3, false, clusterspec.Spec{})
		for w := 0; w < 3; w++ {
			h.write(w+1, fmt.Sprintf("warm-%d", w))
		}
		// The herd: every home hammers the same key back to back.
		for w := 0; w < 12; w++ {
			h.write(w%3+1, "hot")
		}
		h.converge(1, 2, 3)
		h.snapshot("thundering-herd", 13,
			"twelve agents from three homes contend on one hot key; no faults, pure lock contention",
			filepath.Join(outDir, "thundering-herd.jsonl"))
	})

	t.Run("rolling-restart", func(t *testing.T) {
		h := newCorpusHarness(t, marpd, marpctl, 3, true, clusterspec.Spec{})
		// Sustained load homes at process 1, which never restarts — a killed
		// process forgets its outcome counters, and the capture requires them.
		for w := 0; w < 3; w++ {
			h.write(1, fmt.Sprintf("roll-a%d", w))
		}
		h.converge(1, 2, 3)
		for _, victim := range []int{3, 2} {
			h.ctl("record-fault", "crash", fmt.Sprint(victim))
			h.kill(victim)
			for w := 0; w < 2; w++ {
				h.write(1, fmt.Sprintf("roll-down%d-%d", victim, w))
			}
			h.convergeExcept(victim)
			h.ctl("record-fault", "recover", fmt.Sprint(victim))
			h.restart(victim)
			h.converge(1, 2, 3)
		}
		h.write(1, "roll-final")
		h.converge(1, 2, 3)
		h.snapshot("rolling-restart", 17,
			"kill -9 and restart each follower in turn under sustained load; WAL replay plus anti-entropy repair",
			filepath.Join(outDir, "rolling-restart.jsonl"))
	})

	t.Run("fsync-stall", func(t *testing.T) {
		h := newCorpusHarness(t, marpd, marpctl, 3, true, clusterspec.Spec{CommitDelay: "200us"})
		for w := 0; w < 3; w++ {
			h.write(w%2+1, fmt.Sprintf("fs-a%d", w))
		}
		h.converge(1, 2, 3)
		// The stall is out of band (a real slow disk cannot be injected
		// through the protocol); the replay retargets the modelled fsync
		// latency of its in-memory disks.
		h.ctl("record-fault", "fsyncstall", "2ms")
		for w := 0; w < 4; w++ {
			h.write(w%2+1, fmt.Sprintf("fs-b%d", w))
		}
		h.converge(1, 2, 3)
		h.ctl("record-fault", "fsyncstall", "0s")
		h.write(1, "fs-c0")
		h.converge(1, 2, 3)
		h.snapshot("fsync-stall", 23,
			"fsync=commit with group commit on; a 2ms disk stall window mid-run, then the disk recovers",
			filepath.Join(outDir, "fsync-stall.jsonl"))
	})
}

// corpusHarness drives one live cluster for a scenario capture.
type corpusHarness struct {
	t              *testing.T
	marpd, marpctl string
	n              int
	client         []string
	spec           string // the cluster spec file every process boots from
	spool          string
	procs          []*exec.Cmd
	clients        []*clientConn
	writes         int
}

// newCorpusHarness boots an n-node cluster from a spec carrying keys, the
// scenario's cluster-level settings; durable gives every node a data_dir
// and fsync=commit.
func newCorpusHarness(t *testing.T, marpd, marpctl string, n int, durable bool, keys clusterspec.Spec) *corpusHarness {
	t.Helper()
	h := &corpusHarness{
		t: t, marpd: marpd, marpctl: marpctl, n: n,
		client:  make([]string, n+1),
		spool:   t.TempDir(),
		procs:   make([]*exec.Cmd, n+1),
		clients: make([]*clientConn, n+1),
	}
	if durable {
		keys.Fsync = "commit"
	}
	for i := 1; i <= n; i++ {
		h.client[i] = freePort(t)
		node := clusterspec.Node{ID: i, Fabric: freePort(t), Client: h.client[i]}
		if durable {
			node.DataDir = t.TempDir()
		}
		keys.Nodes = append(keys.Nodes, node)
	}
	h.spec = writeSpec(t, keys)
	for i := 1; i <= n; i++ {
		h.restart(i)
	}
	t.Cleanup(func() {
		for i := 1; i <= n; i++ {
			if h.procs[i] != nil && h.procs[i].Process != nil {
				h.procs[i].Process.Kill()
				h.procs[i].Wait()
			}
		}
	})
	return h
}

// restart (re)starts process i from the scenario's spec.
func (h *corpusHarness) restart(i int) {
	h.t.Helper()
	cmd := exec.Command(h.marpd, "-spec", h.spec, "-node", fmt.Sprint(i), "-record", h.spool)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		h.t.Fatalf("starting replica %d: %v", i, err)
	}
	h.procs[i] = cmd
	h.clients[i] = &clientConn{c: dialWait(h.t, h.client[i], 10*time.Second)}
}

// kill delivers the out-of-band kill -9.
func (h *corpusHarness) kill(i int) {
	h.t.Helper()
	if err := h.procs[i].Process.Kill(); err != nil {
		h.t.Fatal(err)
	}
	h.procs[i].Wait()
	h.clients[i].close()
}

func (h *corpusHarness) ctl(args ...string) {
	h.t.Helper()
	full := append([]string{"-record", h.spool, "-addrs", h.liveAddrs()}, args...)
	out, err := exec.Command(h.marpctl, full...).CombinedOutput()
	if err != nil {
		h.t.Fatalf("marpctl %s: %v\n%s", strings.Join(args, " "), err, out)
	}
}

// liveAddrs lists the client addresses of processes currently running.
func (h *corpusHarness) liveAddrs() string {
	var addrs []string
	for i := 1; i <= h.n; i++ {
		if h.procs[i] != nil && h.procs[i].ProcessState == nil {
			addrs = append(addrs, h.client[i])
		}
	}
	return strings.Join(addrs, ",")
}

func (h *corpusHarness) write(home int, key string) {
	h.t.Helper()
	if err := h.clients[home].c.Submit(home, key, fmt.Sprintf("val-%d", h.writes), false); err != nil {
		h.t.Fatalf("submit %s via process %d: %v", key, home, err)
	}
	h.writes++
}

func (h *corpusHarness) converge(ids ...int) {
	h.t.Helper()
	type digestLine struct {
		Digest  string `json:"digest"`
		Commits int    `json:"commits"`
	}
	end := time.Now().Add(45 * time.Second)
	for {
		ds := make([]digestLine, len(ids))
		ok := true
		for j, id := range ids {
			out, err := exec.Command(h.marpctl, "-json", "-addr", h.client[id], "digest", fmt.Sprint(id)).Output()
			if err != nil {
				h.t.Fatalf("marpctl -json digest %d: %v", id, err)
			}
			if err := json.Unmarshal(out, &ds[j]); err != nil {
				h.t.Fatalf("parsing digest JSON %q: %v", out, err)
			}
			if ds[j].Commits < h.writes || ds[j].Digest != ds[0].Digest {
				ok = false
			}
		}
		if ok {
			return
		}
		if time.Now().After(end) {
			h.t.Fatalf("processes %v did not converge on >= %d commits: %+v", ids, h.writes, ds)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func (h *corpusHarness) convergeExcept(victim int) {
	var ids []int
	for i := 1; i <= h.n; i++ {
		if i != victim {
			ids = append(ids, i)
		}
	}
	h.converge(ids...)
}

// snapshot finalizes the capture and proves the bundle replays before it is
// allowed into the corpus.
func (h *corpusHarness) snapshot(name string, seed int64, note, outPath string) {
	h.t.Helper()
	h.ctl("-name", name, "-seed", fmt.Sprint(seed), "-note", note, "-out", outPath, "snapshot-scenario")
	b, err := scenario.ReadFile(outPath)
	if err != nil {
		h.t.Fatalf("captured bundle does not read back: %v", err)
	}
	res, err := scenario.Replay(b)
	if err != nil {
		h.t.Fatalf("captured bundle does not replay: %v", err)
	}
	if !res.OK() {
		h.t.Fatalf("captured bundle diverges from its own replay: %v", res.Mismatches)
	}
	h.t.Logf("captured %s: %d events, %d commits, %d keys", name, len(b.Events), b.Digest.Commits, len(b.Digest.Keys))
}
