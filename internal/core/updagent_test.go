package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/trace"
)

func TestOpString(t *testing.T) {
	if OpSet.String() != "set" || OpAppend.String() != "append" {
		t.Fatal("op names wrong")
	}
	if !strings.Contains(Op(9).String(), "9") {
		t.Fatalf("unknown op string: %q", Op(9).String())
	}
}

func TestOutcomeLatencyHelpers(t *testing.T) {
	o := Outcome{Dispatched: 100, LockAt: 300, DoneAt: 700}
	if o.LockLatency() != 200 || o.TotalLatency() != 600 {
		t.Fatalf("latencies: %v %v", o.LockLatency(), o.TotalLatency())
	}
}

func TestAgentWireSizeGrowsWithState(t *testing.T) {
	c := newTestCluster(t, Config{N: 5})
	small := newUpdateAgent(c.Cluster, 1, []Request{Set("k", "v")})
	base := small.WireSize()
	big := newUpdateAgent(c.Cluster, 1, []Request{Set("a", "1"), Set("b", "2"), Set("c", "3")})
	if big.WireSize() <= base {
		t.Fatal("request list does not grow the agent")
	}
	// Accumulated locking information grows the agent too (the cost the
	// paper trades against message rounds).
	small.lt.MergeSnapshot(replica.QueueSnapshot{Server: 1, Version: 1,
		Queue: []agent.ID{agentID(1), agentID(2), agentID(3)}})
	small.lt.MarkGone(agentID(9))
	if small.WireSize() <= base {
		t.Fatal("locking table does not grow the agent")
	}
}

func TestAgentIgnoresForeignMessages(t *testing.T) {
	// An agent must ignore messages that are not acks for its own claim.
	c := newTestCluster(t, Config{N: 3})
	ua := newUpdateAgent(c.Cluster, 1, []Request{Set("k", "v")})
	c.outstanding++
	ctx := c.platform.Spawn(1, ua)
	if ua.phase != phaseDone {
		c.active[ctx.ID()] = ua
	}
	// Deliver a bogus payload and a foreign ack; neither may disturb it.
	ua.OnMessage(ctx, 2, "garbage")
	ua.OnMessage(ctx, 2, &replica.AckMsg{Txn: agentID(99), OK: true})
	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.Referee().Err(); err != nil {
		t.Fatal(err)
	}
}

func TestStrayGrantReleasedByLateAck(t *testing.T) {
	// An OK ack arriving for an abandoned claim attempt must trigger an
	// abort to the granting server so the grant cannot dangle.
	c := newTestCluster(t, Config{N: 5}, simEnv{seed: 41})
	ua := newUpdateAgent(c.Cluster, 1, []Request{Set("k", "v")})
	c.outstanding++
	ctx := c.platform.Spawn(1, ua)
	c.active[ctx.ID()] = ua
	// Simulate: the agent is parked mid-protocol and receives a stale OK
	// ack from attempt 0 while its current attempt is different.
	c.Server(2).VisitAndLock(ctx.ID(), nil, nil, nil)
	ack := c.Server(2).HandleUpdateLocal(&replica.UpdateMsg{
		Txn: ctx.ID(), Attempt: 99, Origin: 2, Keys: []string{"k"}, ByTie: true,
	})
	if !ack.OK {
		t.Fatalf("setup claim failed: %+v", ack)
	}
	if c.Server(2).Granted() != ctx.ID() {
		t.Fatal("grant not installed")
	}
	ua.OnMessage(ctx, 2, ack) // stale attempt -> agent must send AbortMsg
	c.Sim().RunFor(time.Second)
	if got := c.Server(2).Granted(); got == ctx.ID() {
		t.Fatal("stale grant never released")
	}
	// Let the agent finish normally so the run stays clean.
	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
}

func TestRandomItineraryStillCorrect(t *testing.T) {
	c := newTestCluster(t, Config{N: 5, RandomItinerary: true}, simEnv{seed: 43})
	for i := 1; i <= 5; i++ {
		if err := c.Submit(simnet.NodeID(i), Set("k", fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	finishRun(t, c)
	if len(c.Outcomes()) != 5 {
		t.Fatalf("outcomes = %d", len(c.Outcomes()))
	}
}

func TestInfoSharingDisabledStillCorrect(t *testing.T) {
	c := newTestCluster(t, Config{N: 5, DisableInfoSharing: true}, simEnv{seed: 45})
	for i := 1; i <= 5; i++ {
		if err := c.Submit(simnet.NodeID(i), Set("k", fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	finishRun(t, c)
}

func TestCostOrderedItineraryIsDeterministicNearestFirst(t *testing.T) {
	// On a ring topology the cheapest-first itinerary from node 1 visits
	// neighbours before the far side.
	c, err := newSimCluster(Config{N: 5}, simEnv{seed: 47, topology: simnet.Ring(5), latency: simnet.Constant(time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(1, Set("k", "v")); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	o := c.Outcomes()[0]
	// Uncontended majority win on N=5: home + the two ring neighbours
	// (cost 1), never the far nodes (cost 2).
	if o.Visits != 3 {
		t.Fatalf("visits = %d", o.Visits)
	}
	for _, far := range []simnet.NodeID{3, 4} {
		for _, e := range c.Server(far).Queue() {
			if e == o.Agent {
				t.Fatalf("agent visited far node %d despite nearer options", far)
			}
		}
	}
}

// sendLog is a latency model that also records, by message kind, the
// destination of every message the network schedules.
type sendLog struct {
	simnet.LatencyModel
	to map[string][]simnet.NodeID
}

func (l *sendLog) Sample(n *simnet.Network, m simnet.Message) time.Duration {
	if k, ok := m.Payload.(simnet.Kinder); ok {
		l.to[k.Kind()] = append(l.to[k.Kind()], m.To)
	}
	return l.LatencyModel.Sample(n, m)
}

// TestClaimGoesOnlyToVisitedServers: an uncontended claim sends its UPDATE
// to the servers its agent migrated to and to no other, since only a server
// that queued the agent can grant it; the COMMIT still reaches every replica.
func TestClaimGoesOnlyToVisitedServers(t *testing.T) {
	log := &sendLog{LatencyModel: simnet.Constant(time.Millisecond), to: map[string][]simnet.NodeID{}}
	c := newTestCluster(t, Config{N: 5}, simEnv{latency: log})
	if err := c.Submit(1, Set("k", "v")); err != nil {
		t.Fatal(err)
	}
	finishRun(t, c)
	sorted := func(ids []simnet.NodeID) []simnet.NodeID {
		out := slices.Clone(ids)
		slices.Sort(out)
		return out
	}
	hops := log.to["agent-migrate"]
	if len(hops) != 2 {
		t.Fatalf("agent migrated to %v, want the two servers that complete a majority of 5", hops)
	}
	// It claims where it stands, at its last hop; the others it visited are
	// its home and the first hop.
	if got, want := sorted(log.to["update"]), sorted([]simnet.NodeID{1, hops[0]}); !slices.Equal(got, want) {
		t.Fatalf("UPDATE went to %v, want only the other visited servers %v", got, want)
	}
	others := slices.DeleteFunc([]simnet.NodeID{1, 2, 3, 4, 5}, func(id simnet.NodeID) bool { return id == hops[1] })
	if got := sorted(log.to["commit"]); !slices.Equal(got, others) {
		t.Fatalf("COMMIT went to %v, want every other replica %v", got, others)
	}
}

// TestRefusedClaimAbortsAtOnce: servers 4 and 5 are down, so the agent homed
// at 1 can visit only 1, 2 and 3, and server 2 holds a grant for an agent
// that never finishes. The agent's desperation claim is refused by server 2;
// with the servers it never visited counted as refusals a write quorum is
// then out of reach, so it aborts on that NACK instead of waiting out
// ClaimTimeout for servers that could not have granted it. Its UPDATEs and
// ABORTs go to servers 2 and 3 only.
func TestRefusedClaimAbortsAtOnce(t *testing.T) {
	tr := trace.New(0)
	c := newTestCluster(t, Config{N: 5, Trace: tr}, simEnv{latency: simnet.Constant(time.Millisecond)})
	foreign := agentID(99)
	c.Server(2).VisitAndLock(foreign, nil, nil, nil)
	if ack := c.Server(2).HandleUpdateLocal(&replica.UpdateMsg{Txn: foreign, Attempt: 1, Origin: 2, Keys: []string{"k"}, ByTie: true}); !ack.OK {
		t.Fatalf("setup grant refused: %+v", ack)
	}
	c.Crash(4)
	c.Crash(5)
	if err := c.Submit(1, Set("k", "v")); err != nil {
		t.Fatal(err)
	}
	c.Sim().RunFor(10 * time.Second)
	var claims, aborts []trace.Event
	for _, ev := range tr.Filter(trace.ClaimStarted, trace.ClaimAborted) {
		switch {
		case ev.Detail == "grant released": // the server's side of an abort
		case ev.Type == trace.ClaimStarted:
			claims = append(claims, ev)
		default:
			aborts = append(aborts, ev)
		}
	}
	if len(claims) == 0 || len(aborts) == 0 || aborts[0].At < claims[0].At {
		t.Fatalf("claims %v, aborts %v: want a claim and then its abort", claims, aborts)
	}
	if wait := time.Duration(aborts[0].At - claims[0].At); wait >= c.cfg.ClaimTimeout/10 {
		t.Fatalf("first claim aborted after %v (%s): it waited for servers it never visited", wait, aborts[0].Detail)
	}
	// Every message of these kinds is counted, the ones a down server would
	// have dropped included.
	net := c.NetStats()
	if got, want := net.ByKind["update"], 2*len(claims); got != want {
		t.Fatalf("%d UPDATEs for %d claims, want two each (servers 2 and 3)", got, len(claims))
	}
	if got, want := net.ByKind["abort"], 2*len(aborts); got != want {
		t.Fatalf("%d ABORTs for %d aborted claims, want two each (servers 2 and 3)", got, len(aborts))
	}
	c.Recover(4)
	c.Recover(5)
	finishRun(t, c)
}

// TestLocalRefusalSendsNoUpdate: with server 3 down the agent homed at 1 can
// be queued only at 1 and 2, and it stands at 2, whose grant is held by an
// agent that never finishes. The co-located server refuses each desperation
// claim before any UPDATE leaves, and server 1 alone is no write quorum, so
// the claim is withdrawn without one: no UPDATE is in flight for the ABORT
// to overtake, which would leave server 1 granting a withdrawn claim.
func TestLocalRefusalSendsNoUpdate(t *testing.T) {
	tr := trace.New(0)
	c := newTestCluster(t, Config{N: 3, Trace: tr}, simEnv{latency: simnet.Constant(time.Millisecond)})
	foreign := agentID(99)
	c.Server(2).VisitAndLock(foreign, nil, nil, nil)
	if ack := c.Server(2).HandleUpdateLocal(&replica.UpdateMsg{Txn: foreign, Attempt: 1, Origin: 2, Keys: []string{"k"}, ByTie: true}); !ack.OK {
		t.Fatalf("setup grant refused: %+v", ack)
	}
	c.Crash(3)
	if err := c.Submit(1, Set("k", "v")); err != nil {
		t.Fatal(err)
	}
	c.Sim().RunFor(10 * time.Second)
	claims := 0
	for _, ev := range tr.Filter(trace.ClaimStarted) {
		if ev.Node != 2 {
			t.Fatalf("claim at S%d, want every claim at S2: %v", ev.Node, ev)
		}
		claims++
	}
	if claims == 0 {
		t.Fatal("no claim was made")
	}
	if got := c.NetStats().ByKind["update"]; got != 0 {
		t.Fatalf("%d UPDATEs for %d claims the co-located server refused, want none", got, claims)
	}
	if g := c.Server(1).Granted(); !g.IsZero() {
		t.Fatalf("server 1 grants %v", g)
	}
	c.Recover(3)
	finishRun(t, c)
}

// TestNoClaimWithoutAQueuedQuorum: with three of five servers down the agent
// is queued at two, which can never grant a write quorum, so it makes no
// claim at all, desperate or not, and keeps trying to reach the others; once
// they return it commits.
func TestNoClaimWithoutAQueuedQuorum(t *testing.T) {
	tr := trace.New(0)
	c := newTestCluster(t, Config{N: 5, Trace: tr}, simEnv{latency: simnet.Constant(time.Millisecond)})
	for _, id := range []simnet.NodeID{3, 4, 5} {
		c.Crash(id)
	}
	if err := c.Submit(1, Set("k", "v")); err != nil {
		t.Fatal(err)
	}
	c.Sim().RunFor(10 * time.Second)
	if claims := tr.Filter(trace.ClaimStarted); len(claims) != 0 {
		t.Fatalf("%d claims while queued at two of five servers, first %v", len(claims), claims[0])
	}
	for _, id := range []simnet.NodeID{3, 4, 5} {
		c.Recover(id)
	}
	finishRun(t, c)
}
