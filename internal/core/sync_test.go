package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/replica"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/simnet"
	"repro/internal/wal"
)

// syncTap is the simulated network with a record of the anti-entropy
// messages sent over it.
type syncTap struct {
	*simnet.Network
	reqs    []runtime.Message
	replies []runtime.Message
}

func (t *syncTap) Send(m runtime.Message) {
	switch m.Payload.(type) {
	case *replica.SyncRequest:
		t.reqs = append(t.reqs, m)
	case *replica.SyncReply:
		t.replies = append(t.replies, m)
	}
	t.Network.Send(m)
}

func (t *syncTap) reset() { t.reqs, t.replies = nil, nil }

func newTappedCluster(t *testing.T, cfg Config) (*testCluster, *syncTap) {
	t.Helper()
	sim := des.New(42)
	net := simnet.New(sim, simnet.FullMesh(cfg.N), simnet.LAN())
	tap := &syncTap{Network: net}
	c, err := NewCluster(sim, tap, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &testCluster{Cluster: c, sim: sim, net: net}, tap
}

// submitFrom submits one write per key, round-robin over homes.
func submitFrom(t *testing.T, c *testCluster, homes []runtime.NodeID, keys []string) {
	t.Helper()
	for i, k := range keys {
		if err := c.Submit(homes[i%len(homes)], Set(k, "v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
}

// sharedShards returns, ascending, the shards whose replica groups hold
// both a and b.
func (c *testCluster) sharedShards(a, b runtime.NodeID) []int {
	var out []int
	for sh, g := range c.groups {
		var hasA, hasB bool
		for _, id := range g {
			hasA = hasA || id == a
			hasB = hasB || id == b
		}
		if hasA && hasB {
			out = append(out, sh)
		}
	}
	return out
}

// shardsBehind lists the shards id replicates on which it holds fewer
// commits than another member of the shard's group.
func (c *testCluster) shardsBehind(id runtime.NodeID) []int {
	var out []int
	for sh, g := range c.groups {
		if !c.Server(id).Member(sh) {
			continue
		}
		for _, p := range g {
			if c.Server(p).StoreOf(sh).LastSeq() > c.Server(id).StoreOf(sh).LastSeq() {
				out = append(out, sh)
				break
			}
		}
	}
	return out
}

// checkRequests requires that from sent each peer exactly one request,
// naming exactly the shards the two replicate, and none to a peer it
// shares no shard with.
func checkRequests(t *testing.T, c *testCluster, reqs []runtime.Message, from runtime.NodeID) {
	t.Helper()
	got := make(map[runtime.NodeID][]int)
	sent := make(map[runtime.NodeID]int)
	for _, m := range reqs {
		if m.From != from {
			continue
		}
		sent[m.To]++
		for _, e := range m.Payload.(*replica.SyncRequest).Shards {
			got[m.To] = append(got[m.To], e.Shard)
		}
	}
	for _, p := range c.Nodes() {
		if p == from {
			continue
		}
		want := c.sharedShards(from, p)
		if len(want) == 0 {
			if sent[p] != 0 {
				t.Errorf("%d asked %d, which replicates none of its shards, for %v", from, p, got[p])
			}
			continue
		}
		if sent[p] != 1 || !reflect.DeepEqual(got[p], want) {
			t.Errorf("%d sent %d %d request(s) for shards %v, want one for %v", from, p, sent[p], got[p], want)
		}
	}
}

// TestHealSyncIsOneExchangePerPeer: after a partition heals, each server
// pulls what it missed in one request per peer, whatever the shard count —
// N·(N−1) requests, where one per shard per peer cost 16 times that — and
// each peer answers it at most once, carrying its gone set once. The
// minority catches up on every shard and learns every winner is gone.
func TestHealSyncIsOneExchangePerPeer(t *testing.T) {
	const n = 5
	c, tap := newTappedCluster(t, Config{N: n, Shards: 16})
	c.PartitionNet([]runtime.NodeID{1, 2, 3}, []runtime.NodeID{4, 5})
	var keys []string
	touched := make(map[int]bool)
	for i := 0; i < 12; i++ {
		k := fmt.Sprintf("k%d", i)
		keys = append(keys, k)
		touched[shard.Of(k, 16)] = true
	}
	if len(touched) < 4 {
		t.Fatalf("commits land on %d shards, want several", len(touched))
	}
	submitFrom(t, c, []runtime.NodeID{1, 2, 3}, keys)
	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Settle(time.Second)
	for sh := range touched {
		if got := c.Server(4).StoreOf(sh).LastSeq(); got != 0 {
			t.Fatalf("minority server 4 holds shard %d at seq %d before the heal", sh, got)
		}
	}

	c.Network().ResetStats()
	tap.reset()
	c.HealNet()
	c.Settle(2 * time.Second)
	st := c.Network().Stats()
	if got := st.ByKind["sync-req"]; got != n*(n-1) {
		t.Fatalf("heal sent %d sync requests, want N·(N−1) = %d", got, n*(n-1))
	}
	if got := st.ByKind["sync-reply"]; got > n*(n-1) {
		t.Fatalf("heal sent %d sync replies, want <= %d", got, n*(n-1))
	}
	for _, id := range c.Nodes() {
		checkRequests(t, c, tap.reqs, id)
	}
	answered := make(map[[2]runtime.NodeID]int)
	for _, m := range tap.replies {
		answered[[2]runtime.NodeID{m.From, m.To}]++
	}
	for pair, k := range answered {
		if k > 1 {
			t.Errorf("%d answered %d %d times", pair[0], pair[1], k)
		}
	}
	if err := c.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	if err := c.Referee().Err(); err != nil {
		t.Fatal(err)
	}
	for _, o := range c.Outcomes() {
		for _, id := range []runtime.NodeID{4, 5} {
			if !c.Server(id).IsGone(o.Agent) {
				t.Errorf("healed server %d does not know winner %v is gone", id, o.Agent)
			}
		}
	}
}

// TestSyncAsksEachPeerForTheShardsItShares: under partial replication a
// request to peer p lists exactly the shards p replicates alongside the
// sender, a peer outside every one of the sender's groups is never asked,
// and a durable node restarted from its journal catches up on every shard
// it replicates.
func TestSyncAsksEachPeerForTheShardsItShares(t *testing.T) {
	dur, _ := memDurability(wal.PolicyCommit)
	c, tap := newTappedCluster(t, Config{N: 5, Shards: 8, GroupSize: 3, Durability: dur})
	var early, late []string
	for i := 0; i < 16; i++ {
		early = append(early, fmt.Sprintf("early-%d", i))
		late = append(late, fmt.Sprintf("late-%d", i))
	}
	submitFrom(t, c, c.Nodes(), early)
	finishRun(t, c)

	c.Crash(5)
	submitFrom(t, c, []runtime.NodeID{1, 2, 3, 4}, late)
	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Settle(time.Second)
	tap.reset()
	c.Recover(5) // durable: Restart from the journal, then one round of sync
	if behind := c.shardsBehind(5); len(behind) < 2 {
		t.Fatalf("restarted server 5 missed commits on shards %v, want several", behind)
	}
	c.Settle(2 * time.Second)
	checkRequests(t, c, tap.reqs, 5)
	if err := c.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	if behind := c.shardsBehind(5); len(behind) > 0 {
		t.Errorf("restarted server 5 is still behind its groups on shards %v", behind)
	}

	// A heal round obeys the same rule at every server.
	tap.reset()
	c.HealNet()
	c.Settle(time.Second)
	for _, id := range c.Nodes() {
		checkRequests(t, c, tap.reqs, id)
	}
}
