package live_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
)

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
