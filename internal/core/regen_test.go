package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/shard"
	"repro/internal/simnet"
)

// crashCurrentHost steps the simulation until the (single) in-flight agent
// is resident somewhere, then crashes that host. It returns the host.
func crashCurrentHost(t *testing.T, c *testCluster) simnet.NodeID {
	t.Helper()
	var host simnet.NodeID
	for i := 0; i < 10000 && host == simnet.None; i++ {
		if !c.Sim().Step() {
			break
		}
		for _, id := range c.Nodes() {
			if len(c.Platform().Place(id).Residents()) > 0 {
				host = id
				break
			}
		}
	}
	if host == simnet.None {
		t.Fatal("agent not found anywhere")
	}
	c.Crash(host)
	return host
}

func TestRegeneratedAgentCommitsAfterHostCrash(t *testing.T) {
	c := newTestCluster(t, Config{N: 5, RegenerateAgents: true}, simEnv{seed: 3})
	if err := c.Submit(1, Set("x", "survives")); err != nil {
		t.Fatal(err)
	}
	crashCurrentHost(t, c)
	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Settle(2 * time.Second)
	if err := c.Referee().Err(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	if c.Regenerated() < 1 {
		t.Fatal("no agent was regenerated")
	}
	outs := c.Outcomes()
	if len(outs) != 1 || outs[0].Failed {
		t.Fatalf("outcomes = %+v, want one committed", outs)
	}
	// Theorem 2's tie-breaking is identifier-based: the reborn agent must
	// have kept the original identity.
	if got := c.Platform().Stats().AgentsRegenerated; got < 1 {
		t.Fatalf("platform regenerated %d agents", got)
	}
	for _, id := range c.Nodes() {
		if c.Server(id).Down() {
			continue
		}
		if v, ok := c.Read(id, "x"); !ok || v.Data != "survives" {
			t.Fatalf("server %d: %+v %v", id, v, ok)
		}
	}
}

func TestAgentLostInTransitIsRegenerated(t *testing.T) {
	c := newTestCluster(t, Config{N: 5, RegenerateAgents: true}, simEnv{seed: 1})
	if err := c.Submit(1, Set("x", "v")); err != nil {
		t.Fatal(err)
	}
	// After Submit the agent has already left home (node 1) for the
	// cheapest unvisited server, node 2 on a uniform mesh. Crash both ends
	// before the envelope lands: the envelope is dropped at 2 and the
	// migration timeout at 1 finds the origin down — the agent is lost in
	// transit, the exact weakness regeneration addresses.
	c.Crash(2)
	c.Crash(1)
	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Settle(2 * time.Second)
	if c.Regenerated() != 1 {
		t.Fatalf("Regenerated = %d, want 1", c.Regenerated())
	}
	outs := c.Outcomes()
	if len(outs) != 1 || outs[0].Failed {
		t.Fatalf("outcomes = %+v, want one committed", outs)
	}
	if outs[0].Agent.Home != 1 {
		t.Fatalf("outcome carries agent %v, want the original node-1 identity", outs[0].Agent)
	}
	if err := c.Referee().Err(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
}

func TestRegenerationOffStillRecordsLostInTransit(t *testing.T) {
	// Without regeneration the same in-transit loss must surface as a
	// failed outcome instead of wedging RunUntilDone (the lost-agent hook
	// is installed unconditionally).
	c := newTestCluster(t, Config{N: 5}, simEnv{seed: 1})
	if err := c.Submit(1, Set("x", "v")); err != nil {
		t.Fatal(err)
	}
	c.Crash(2)
	c.Crash(1)
	c.Settle(5 * time.Second)
	if c.Outstanding() != 0 {
		t.Fatal("lost agent still outstanding")
	}
	outs := c.Outcomes()
	if len(outs) != 1 || !outs[0].Failed {
		t.Fatalf("outcomes = %+v, want one failed", outs)
	}
}

func TestReliableFabricCommitsUnderLoss(t *testing.T) {
	c := newTestCluster(t, Config{N: 5, Reliable: true}, simEnv{seed: 9, faults: simnet.NewFaultModel(99, 0.3, 0.05)})
	for i := 1; i <= 5; i++ {
		if err := c.Submit(simnet.NodeID(i), Set("k", fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.RunUntilDone(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Settle(5 * time.Second)
	if err := c.Referee().Err(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	for _, o := range c.Outcomes() {
		if o.Failed {
			t.Fatalf("outcome failed under loss: %+v", o)
		}
	}
	rs := c.ReliableStats()
	if rs.Retransmissions == 0 {
		t.Fatalf("no retransmissions under 30%% loss: %+v", rs)
	}
	if rs.DuplicatesSuppressed == 0 {
		t.Fatalf("no duplicates suppressed with dup=0.05: %+v", rs)
	}
	ns := c.Network().Stats()
	if ns.MessagesLost == 0 {
		t.Fatal("fault model ate no messages")
	}
}

func TestPartitionHealConvergesViaSync(t *testing.T) {
	c := newTestCluster(t, Config{N: 5}, simEnv{seed: 2})
	// Commit once so there is history, then cut {4,5} off and commit again:
	// the minority misses the COMMIT broadcast entirely.
	if err := c.Submit(1, Set("a", "1")); err != nil {
		t.Fatal(err)
	}
	finishRun(t, c)
	c.PartitionNet([]simnet.NodeID{1, 2, 3}, []simnet.NodeID{4, 5})
	if err := c.Submit(1, Set("b", "2")); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Settle(time.Second)
	if got := c.Server(4).Store().LastSeq(); got != 1 {
		t.Fatalf("partitioned server LastSeq = %d, want 1 (missed the commit)", got)
	}
	// Healing alone would leave 4 and 5 behind (no gap to notice); HealNet
	// also starts an anti-entropy round.
	c.HealNet()
	c.Settle(2 * time.Second)
	if err := c.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	if v, ok := c.Read(4, "b"); !ok || v.Data != "2" {
		t.Fatalf("healed minority read = %+v %v", v, ok)
	}
}

// TestRebornAgentIsNotUnderItsHomesWatermark: a regenerated agent keeps its
// ID, so while its respawn is pending — and while the reborn agent runs —
// its home's gone-set watermark must wait behind it, however many later
// agents of the same home finish meanwhile. A watermark that passed it
// would have every server refuse the reborn agent as "gone".
func TestRebornAgentIsNotUnderItsHomesWatermark(t *testing.T) {
	// A long death-notice delay keeps the respawn pending while the
	// successors work around the crashed host's migration timeouts.
	// The successors write another shard: on the lost agent's own shard they
	// would queue behind its stale Locking List entries until it is reborn.
	c := newTestCluster(t, Config{N: 5, Shards: 2, RegenerateAgents: true, DeathNoticeDelay: 10 * time.Second}, simEnv{seed: 3})
	other := "y"
	for i := 0; shard.Of(other, 2) == shard.Of("x", 2); i++ {
		other = fmt.Sprintf("y%d", i)
	}
	if err := c.Submit(1, Set("x", "first")); err != nil {
		t.Fatal(err)
	}
	var lost []agent.ID
	for id := range c.active {
		lost = append(lost, id)
	}
	if len(lost) != 1 {
		t.Fatalf("%d active agents after one submit", len(lost))
	}
	first := lost[0]
	// Let it leave home, then kill the host it lands on: it is regenerated
	// after the death-notice delay, after the next two have committed.
	var host simnet.NodeID
	for i := 0; i < 10000 && host == simnet.None; i++ {
		if !c.Sim().Step() {
			break
		}
		for _, id := range c.Nodes()[1:] {
			if len(c.Platform().Place(id).Residents()) > 0 {
				host = id
			}
		}
	}
	if host == simnet.None {
		t.Fatal("agent never left home")
	}
	c.Crash(host)
	for _, v := range []string{"second", "third"} {
		if err := c.Submit(1, Set(other, v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Engine().Wait(time.Minute, func() bool { return c.Outstanding() == 1 }); err != nil {
		t.Fatal(err)
	}
	c.Settle(100 * time.Millisecond) // the second COMMIT reaches home
	if c.Regenerated() != 0 {
		t.Fatal("the lost agent was reborn before its successors finished; the test has no teeth")
	}
	home := c.Server(1)
	if home.IsGone(first) {
		t.Fatal("home holds the agent as gone while its respawn is pending")
	}
	if got := len(home.Gone()); got != 2 {
		t.Fatalf("home's residue = %d, want the two successors waiting behind the lost agent", got)
	}

	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Settle(2 * time.Second)
	if c.Regenerated() != 1 {
		t.Fatalf("Regenerated = %d, want 1", c.Regenerated())
	}
	for _, o := range c.Outcomes() {
		if o.Failed {
			t.Fatalf("outcome failed: %+v", o)
		}
	}
	if err := c.Referee().Err(); err != nil {
		t.Fatal(err)
	}
	// With the reborn agent committed, home's next look at its ledger (its
	// next dispatch) moves the watermark over all three.
	if err := c.Submit(1, Set(other, "fourth")); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Settle(time.Second)
	if !home.IsGone(first) || len(home.Gone()) > 1 {
		t.Fatalf("after the reborn agent committed: gone=%v residue=%v", home.IsGone(first), home.Gone())
	}
}

// TestDepartedSparesTheReturnedAgent: when a redial reorders frames an
// agent can be back at a node, thawed into a new UpdateAgent, before the ack
// for its earlier departure arrives. That ack must retire the copy that
// left, not the resident one — or a crash here would lose the agent
// unaccounted.
func TestDepartedSparesTheReturnedAgent(t *testing.T) {
	c := newTestCluster(t, Config{N: 3, RegenerateAgents: true})
	id := agent.ID{Home: 1, Born: 1, Seq: 1}
	left := newUpdateAgent(c.Cluster, 1, []Request{Set("k", "v")})
	back := Thaw(c.Cluster, left.Freeze())
	c.active[id] = back
	c.checkpoints[id] = back.Freeze()

	c.departed(id, left)
	if c.active[id] != back || len(c.checkpoints) != 1 {
		t.Fatal("the ack for an earlier departure dropped the agent that came back")
	}
	c.departed(id, back)
	if got := c.Metrics().Value("marp.agent.tracked"); got != 0 {
		t.Fatalf("marp.agent.tracked = %v after the resident copy departed, want 0", got)
	}
}
