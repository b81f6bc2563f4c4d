package live_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
)

// TestLiveRestartRecoversFromDisk is the in-process version of the
// kill-and-restart walkthrough in the README: three durable replicas, one
// stops without closing its journal (as a crashed process would), misses a
// round of commits, and comes back under the same data directory. Restart
// must replay its own commits from the WAL before the socket even opens,
// then pull the missed round via anti-entropy, then keep winning locks.
func TestLiveRestartRecoversFromDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test uses wall-clock timeouts")
	}
	const n = 3
	ref := newSharedReferee(n)
	dirs := make([]string, n+1)
	for i := 1; i <= n; i++ {
		dirs[i] = t.TempDir()
	}
	// The restart below must reuse the address the bring-up settled on.
	var addrs map[runtime.NodeID]string
	start := func(id runtime.NodeID, a map[runtime.NodeID]string) (*live.Node, error) {
		addrs = a
		return live.StartNode(live.NodeConfig{
			Self:    id,
			Addrs:   a,
			Seed:    int64(100 + id),
			DataDir: dirs[id],
			Fsync:   "commit",
			Cluster: core.Config{OnGrant: ref.onGrant},
		})
	}
	nodes, err := live.StartCluster(n, start)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		for i, node := range nodes {
			if node != nil && !(closed && i == 2) {
				node.Close()
			}
		}
	}()

	// Round 1: everybody commits.
	const perNode = 2
	for i, node := range nodes {
		home := runtime.NodeID(i + 1)
		for s := 1; s <= perNode; s++ {
			submitAt(t, node, home, core.Set(fmt.Sprintf("r1-k%d-%d", home, s), "v"))
		}
	}
	for i, node := range nodes {
		if err := node.Cluster.RunUntilDone(30 * time.Second); err != nil {
			t.Fatalf("node %d: %v", i+1, err)
		}
	}
	waitConverged(t, nodes, n*perNode, 10*time.Second)

	// Node 3 dies abruptly: fabric and loop go down, the journal is never
	// closed — exactly what kill -9 leaves behind.
	nodes[2].Fab.Close()
	nodes[2].Eng.Close()
	closed = true

	// Round 2 commits on the surviving majority.
	for i := 0; i < 2; i++ {
		home := runtime.NodeID(i + 1)
		submitAt(t, nodes[i], home, core.Set(fmt.Sprintf("r2-k%d", home), "v"))
	}
	for i := 0; i < 2; i++ {
		if err := nodes[i].Cluster.RunUntilDone(30 * time.Second); err != nil {
			t.Fatalf("node %d: %v", i+1, err)
		}
	}

	// Restart under the same data directory. Recovery is synchronous inside
	// StartNode, so by the time it returns the replica already holds every
	// commit it acked before dying — before any peer has said a word.
	if nodes[2], err = start(3, addrs); err != nil {
		t.Fatal(err)
	}
	closed = false
	if got := len(localLog(t, nodes[2], 3)); got < n*perNode {
		t.Fatalf("right after restart the log has %d commits, want >= %d from the WAL", got, n*perNode)
	}

	// Anti-entropy supplies round 2, and the reborn node can still win
	// locks itself (its new agent IDs must not collide with its own
	// persisted gone set).
	submitAt(t, nodes[2], 3, core.Set("r2-k3", "v"))
	if err := nodes[2].Cluster.RunUntilDone(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, nodes, n*perNode+3, 15*time.Second)

	if _, violations := ref.report(); len(violations) > 0 {
		t.Fatalf("shared referee saw violations: %s", violations[0])
	}
}

// TestLiveRestartWithoutDataDir restarts a volatile replica: nothing on disk
// tells the new process what its predecessor minted, and its engine clock
// starts at zero again, while the peers hold a gone-set watermark for its
// home that reaches up to the old process's last agents. Were the new
// agents' birth times taken from the engine clock they would lie under that
// watermark and every server would refuse them as "gone"; a live node
// derives them from the wall clock, which a restart does not rewind.
func TestLiveRestartWithoutDataDir(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test uses wall-clock timeouts")
	}
	const n, perNode = 3, 3
	ref := newSharedReferee(n)
	var addrs map[runtime.NodeID]string
	start := func(id runtime.NodeID, a map[runtime.NodeID]string) (*live.Node, error) {
		addrs = a
		return live.StartNode(live.NodeConfig{
			Self:    id,
			Addrs:   a,
			Seed:    int64(100 + id),
			Cluster: core.Config{OnGrant: ref.onGrant},
		})
	}
	nodes, err := live.StartCluster(n, start)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, node := range nodes {
			node.Close()
		}
	}()
	round := func(tag string) {
		for i, node := range nodes {
			home := runtime.NodeID(i + 1)
			for s := 1; s <= perNode; s++ {
				submitAt(t, node, home, core.Set(fmt.Sprintf("%s-k%d-%d", tag, home, s), "v"))
			}
		}
		for i, node := range nodes {
			if err := node.Cluster.RunUntilDone(30 * time.Second); err != nil {
				t.Fatalf("%s: node %d: %v", tag, i+1, err)
			}
		}
	}
	round("r1")
	round("r2") // node 3's second round carries its first round's watermark around
	waitConverged(t, nodes, 2*n*perNode, 10*time.Second)

	// The hazard is real: a peer holds a watermark for home 3.
	var held agent.Mark
	nodes[0].Eng.Do(func() {
		for _, w := range nodes[0].Cluster.Server(1).Watermarks() {
			if w.Home == 3 {
				held = w.Upto
			}
		}
	})
	if held == (agent.Mark{}) {
		t.Fatal("node 1 holds no watermark for home 3; the test has no teeth")
	}

	// Node 3 goes away; the survivors keep committing, which also makes
	// their writers notice the dead connections (a frame written into one is
	// lost without an error — with the migration ack in it, the restarted
	// node's first agent would be re-activated as a duplicate at home).
	nodes[2].Close()
	for i := 0; i < 2; i++ {
		home := runtime.NodeID(i + 1)
		for s := 1; s <= 2; s++ {
			submitAt(t, nodes[i], home, core.Set(fmt.Sprintf("down-k%d-%d", home, s), "v"))
		}
	}
	for i := 0; i < 2; i++ {
		if err := nodes[i].Cluster.RunUntilDone(30 * time.Second); err != nil {
			t.Fatalf("majority node %d: %v", i+1, err)
		}
	}
	if nodes[2], err = start(3, addrs); err != nil {
		t.Fatal(err)
	}

	submitAt(t, nodes[2], 3, core.Set("r3-k3", "v"))
	if err := nodes[2].Cluster.RunUntilDone(30 * time.Second); err != nil {
		t.Fatalf("the restarted node's agent did not finish: %v", err)
	}
	var outs []core.Outcome
	nodes[2].Eng.Do(func() { outs = nodes[2].Cluster.Outcomes() })
	if len(outs) != 1 || outs[0].Failed {
		t.Fatalf("outcomes after restart = %+v, want one commit", outs)
	}
	if !held.Before(agent.After(outs[0].Agent)) {
		t.Fatalf("new agent %+v was born under the watermark %+v its home's old run left behind", outs[0].Agent, held)
	}
	// The empty replica catches up on everything it lost through the sync
	// its first commit's sequence gap starts.
	waitConverged(t, nodes, 2*n*perNode+4+1, 15*time.Second)
	if _, violations := ref.report(); len(violations) > 0 {
		t.Fatalf("shared referee saw violations: %s", violations[0])
	}
}

// TestStartNodeUnderTraffic restarts a durable node while its peers are
// sending: nodes 1 and 2 submit an update every 200 µs, so agents and
// protocol messages for node 3 arrive from the instant its fabric listens.
// The race detector is the oracle — a cluster built anywhere but on the
// actor loop is read by those arrivals while its constructor still writes
// it (the server table, the journal hook) — plus every StartNode returning.
func TestStartNodeUnderTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test uses wall-clock timeouts")
	}
	const n = 3
	dir := t.TempDir()
	var addrs map[runtime.NodeID]string
	start := func(id runtime.NodeID, a map[runtime.NodeID]string) (*live.Node, error) {
		addrs = a
		cfg := live.NodeConfig{Self: id, Addrs: a, Seed: int64(100 + id), Fsync: "none"}
		if id == 3 {
			cfg.DataDir = dir
		}
		return live.StartNode(cfg)
	}
	nodes, err := live.StartCluster(n, start)
	if err != nil {
		t.Fatal(err)
	}
	// Die as kill -9 would: no journal close.
	kill := func(node *live.Node) {
		node.Fab.Close()
		node.Eng.Close()
	}
	kill(nodes[2])
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i, node := range nodes[:2] {
		node, home := node, runtime.NodeID(i+1)
		defer node.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := 0; ; seq++ {
				select {
				case <-stop:
					return
				case <-time.After(200 * time.Microsecond):
				}
				var err error
				node.Eng.Do(func() { err = node.Cluster.Submit(home, core.Set(fmt.Sprintf("k%d-%d", home, seq%16), "v")) })
				if err != nil {
					t.Errorf("submit at node %d: %v", home, err)
					return
				}
			}
		}()
	}
	// Deferred calls run last-in first-out: the submitters stop before
	// their nodes close, on a failed StartNode as well.
	defer wg.Wait()
	defer close(stop)
	for round := 0; round < 6; round++ {
		node, err := start(3, addrs)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		time.Sleep(150 * time.Millisecond)
		kill(node)
	}
}
