package live_test

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
)

// TestLivePartitionAndHeal covers the operator-injected network split on
// real sockets: a minority replica is cut off at the endpoints (frames
// dropped on send and on receipt), the majority keeps committing under the
// reliable layer's retransmissions, and healing lets anti-entropy repair
// the minority to the identical commit set.
func TestLivePartitionAndHeal(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test uses wall-clock timeouts")
	}
	const n = 3
	cfg := core.Config{
		RetransmitBase:     25 * time.Millisecond,
		RetransmitAttempts: 8,
		ClaimTimeout:       600 * time.Millisecond,
		RetryInterval:      300 * time.Millisecond,
		RegenerateAgents:   true,
	}
	nodes, ref := startLiveCluster(t, n, cfg)

	// Round 1: everybody commits, everybody converges.
	for i, node := range nodes {
		home := runtime.NodeID(i + 1)
		submitAt(t, node, home, core.Set("r1-k"+string('0'+byte(home)), "v"))
	}
	for i, node := range nodes {
		if err := node.Cluster.RunUntilDone(30 * time.Second); err != nil {
			t.Fatalf("node %d: %v", i+1, err)
		}
	}
	waitConverged(t, nodes, n, 10*time.Second)

	// Split {1,2} | {3} — applied on every process, as the operator's
	// marpctl fan-out would.
	partition := func(groups ...[]runtime.NodeID) {
		for _, node := range nodes {
			node := node
			if !node.Eng.Do(func() { node.Cluster.PartitionNet(groups...) }) {
				t.Fatal("engine closed during partition")
			}
		}
	}
	partition([]runtime.NodeID{1, 2}, []runtime.NodeID{3})

	// The majority side still commits.
	submitAt(t, nodes[0], 1, core.Set("r2-k1", "v"))
	submitAt(t, nodes[1], 2, core.Set("r2-k2", "v"))
	for i := 0; i < 2; i++ {
		if err := nodes[i].Cluster.RunUntilDone(30 * time.Second); err != nil {
			t.Fatalf("majority node %d: %v", i+1, err)
		}
	}

	// The minority replica must not have seen either round-2 commit, and
	// the cut must be visible in the drop accounting.
	if got := len(localLog(t, nodes[2], 3)); got != n {
		t.Fatalf("partitioned replica holds %d commits, want %d (pre-split only)", got, n)
	}
	dropped := 0
	for _, node := range nodes {
		dropped += node.Fab.NetStats().MessagesDropped
	}
	if dropped == 0 {
		t.Fatal("no frames dropped — the partition never filtered anything")
	}

	// Heal everywhere; anti-entropy repairs the minority.
	for _, node := range nodes {
		node := node
		if !node.Eng.Do(func() { node.Cluster.HealNet() }) {
			t.Fatal("engine closed during heal")
		}
	}
	waitConverged(t, nodes, n+2, 20*time.Second)

	if _, violations := ref.report(); len(violations) > 0 {
		t.Fatalf("shared referee saw violations: %s", violations[0])
	}
}
