package live_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/optimistic"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
	"repro/internal/store"
)

// TestOptNodesShareAWallClockBase: two live optimistic replicas whose
// engines start more than a second apart. Each engine clock starts at zero
// with its process, and StartOptNode adds the wall clock's offset to it, so
// both replicas stamp in one time: every stamp lies inside its submit's
// wall-clock window, whichever engine made it. Stamps rise with each
// origin's sequence; an action submitted once another is stable at its
// home sorts after it, alternating between the engine that is ahead and the
// one that is behind; and everything promotes, to one stable log.
func TestOptNodesShareAWallClockBase(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test uses wall-clock timeouts")
	}
	const n = 2
	nodes, err := live.StartCluster(n, func(id runtime.NodeID, addrs map[runtime.NodeID]string) (*live.OptNode, error) {
		if id == 2 {
			time.Sleep(1100 * time.Millisecond)
		}
		return live.StartOptNode(live.OptNodeConfig{
			Self: id, Addrs: addrs, Seed: int64(id), GossipInterval: 10 * time.Millisecond,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, node := range nodes {
			node.Close()
		}
	}()
	var now [n]runtime.Time
	for i, node := range nodes {
		node.Eng.Do(func() { now[i] = node.Eng.Now() })
	}
	if apart := now[0].Sub(now[1]); apart < time.Second {
		t.Fatalf("the engines started %v apart, want at least a second", apart)
	}

	type window struct{ before, after int64 }
	submitted := map[string]window{}
	submit := func(home runtime.NodeID, key, value string) string {
		t.Helper()
		node := nodes[home-1]
		var txn string
		var err error
		before := time.Now().UnixNano()
		node.Eng.Do(func() { txn, err = node.Cluster.Submit(home, key, value) })
		submitted[txn] = window{before, time.Now().UnixNano()}
		if err != nil {
			t.Fatal(err)
		}
		return txn
	}
	stableLog := func(id runtime.NodeID) []store.Update {
		t.Helper()
		node := nodes[id-1]
		var log []store.Update
		var err error
		node.Eng.Do(func() { log, err = node.Cluster.StableLog(id, 0) })
		if err != nil {
			t.Fatal(err)
		}
		return log
	}
	waitStable := func(id runtime.NodeID, txn string) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
			for _, u := range stableLog(id) {
				if u.TxnID == txn {
					return
				}
			}
		}
		t.Fatalf("%s not stable at node %d after 10 s", txn, id)
	}

	for i := 0; i < 5; i++ {
		submit(1, fmt.Sprint("k", i), "from-1")
		submit(2, fmt.Sprint("k", i), "from-2")
	}
	// A causal chain, starting at the replica whose engine is behind.
	var chain []string
	for i := 0; i < 4; i++ {
		home := runtime.NodeID(2 - i%2)
		if i > 0 {
			waitStable(home, chain[i-1])
		}
		chain = append(chain, submit(home, "chain", fmt.Sprint(i)))
	}
	for i, node := range nodes {
		if err := node.Cluster.RunUntilStable(30*time.Second, uint64(len(submitted))); err != nil {
			t.Fatalf("node %d: %v", i+1, err)
		}
	}

	log := stableLog(1)
	if other := stableLog(2); fmt.Sprint(other) != fmt.Sprint(log) {
		t.Fatalf("stable logs differ:\nnode 1 %v\nnode 2 %v", log, other)
	}
	// With the base, stamps and the wall clock agree within microseconds;
	// a stamp read off a bare engine clock counts from the process's start,
	// decades behind the wall clock.
	const slack = int64(100 * time.Millisecond)
	// The log is in stamp order, so stamps rise with each origin's sequence
	// exactly when its sequence numbers come up in order.
	pos := map[string]int{}
	last := map[runtime.NodeID]store.Update{}
	for i, u := range log {
		pos[u.TxnID] = i
		w := submitted[u.TxnID]
		if u.Stamp < w.before-slack || u.Stamp > w.after+slack {
			t.Errorf("%s stamped %d, submitted between wall clock %d and %d", u.TxnID, u.Stamp, w.before, w.after)
		}
		origin, _, oseq, err := optimistic.ParseTxnID(u.TxnID)
		if err != nil {
			t.Fatal(err)
		}
		if prev, ok := last[origin]; ok {
			_, _, prevSeq, _ := optimistic.ParseTxnID(prev.TxnID)
			if oseq <= prevSeq || u.Stamp <= prev.Stamp {
				t.Errorf("node %d stamped %s at %d and %s at %d", origin, prev.TxnID, prev.Stamp, u.TxnID, u.Stamp)
			}
		}
		last[origin] = u
	}
	if len(log) != len(submitted) {
		t.Fatalf("%d of %d submits stable", len(log), len(submitted))
	}
	for i := 1; i < len(chain); i++ {
		if pos[chain[i]] <= pos[chain[i-1]] {
			t.Errorf("%s was submitted once %s was stable at its home, and sorts before it", chain[i], chain[i-1])
		}
	}
}
