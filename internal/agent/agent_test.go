package agent

import (
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/reliable"
	"repro/internal/simnet"
)

// testAgent records every hook invocation and runs optional scripted hooks.
type testAgent struct {
	arrivals  []simnet.NodeID
	failures  []simnet.NodeID
	messages  []any
	events    []any
	onArrive  func(ctx *Context)
	onFail    func(ctx *Context, dest simnet.NodeID)
	onMessage func(ctx *Context, from simnet.NodeID, payload any)
	onEvent   func(ctx *Context, ev any)
	size      int
}

func (a *testAgent) OnArrive(ctx *Context) {
	a.arrivals = append(a.arrivals, ctx.Node())
	if a.onArrive != nil {
		a.onArrive(ctx)
	}
}

func (a *testAgent) OnMigrateFailed(ctx *Context, dest simnet.NodeID) {
	a.failures = append(a.failures, dest)
	if a.onFail != nil {
		a.onFail(ctx, dest)
	}
}

func (a *testAgent) OnMessage(ctx *Context, from simnet.NodeID, payload any) {
	a.messages = append(a.messages, payload)
	if a.onMessage != nil {
		a.onMessage(ctx, from, payload)
	}
}

func (a *testAgent) OnLocalEvent(ctx *Context, ev any) {
	a.events = append(a.events, ev)
	if a.onEvent != nil {
		a.onEvent(ctx, ev)
	}
}

func (a *testAgent) WireSize() int {
	if a.size > 0 {
		return a.size
	}
	return DefaultAgentSize
}

func rig(t *testing.T, n int, cfg Config) (*des.Simulator, *simnet.Network, *Platform) {
	t.Helper()
	sim := des.New(21)
	net := simnet.New(sim, simnet.FullMesh(n), simnet.Constant(5*time.Millisecond))
	p := NewPlatform(sim, net, cfg)
	for i := 1; i <= n; i++ {
		p.Host(simnet.NodeID(i), nil)
	}
	return sim, net, p
}

func TestSpawnActivatesAtHome(t *testing.T) {
	sim, _, p := rig(t, 3, Config{})
	a := &testAgent{}
	ctx := p.Spawn(2, a)
	sim.Run()
	if len(a.arrivals) != 1 || a.arrivals[0] != 2 {
		t.Fatalf("arrivals = %v", a.arrivals)
	}
	if ctx.ID().Home != 2 {
		t.Fatalf("ID home = %d", ctx.ID().Home)
	}
	if ctx.Node() != 2 || !ctx.Alive() {
		t.Fatalf("node=%d alive=%v", ctx.Node(), ctx.Alive())
	}
	if p.Stats().AgentsCreated != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

func TestMigrationSuccess(t *testing.T) {
	sim, _, p := rig(t, 3, Config{})
	a := &testAgent{}
	ctx := p.Spawn(1, a)
	ctx.MigrateTo(3)
	sim.Run()
	if len(a.arrivals) != 2 || a.arrivals[1] != 3 {
		t.Fatalf("arrivals = %v", a.arrivals)
	}
	if sim.Now().Duration() < 5*time.Millisecond {
		t.Fatal("migration paid no latency")
	}
	if ctx.Node() != 3 {
		t.Fatalf("node = %d", ctx.Node())
	}
	st := p.Stats()
	if st.MigrationsStarted != 1 || st.MigrationsCompleted != 1 || st.MigrationsFailed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(p.Place(1).Residents()) != 0 || len(p.Place(3).Residents()) != 1 {
		t.Fatal("residency not transferred")
	}
}

func TestMigrationToDownNodeFails(t *testing.T) {
	sim, net, p := rig(t, 3, Config{MigrationTimeout: 50 * time.Millisecond})
	a := &testAgent{}
	ctx := p.Spawn(1, a)
	net.SetDown(2, true)
	ctx.MigrateTo(2)
	sim.Run()
	if len(a.failures) != 1 || a.failures[0] != 2 {
		t.Fatalf("failures = %v", a.failures)
	}
	if ctx.Node() != 1 || !ctx.Alive() {
		t.Fatal("agent not re-activated at origin")
	}
	if sim.Now().Duration() != 50*time.Millisecond {
		t.Fatalf("failure detected at %v, want the 50ms timeout", sim.Now())
	}
	if p.Stats().MigrationsFailed != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

func TestLateEnvelopeRefused(t *testing.T) {
	// Timeout shorter than latency: the origin re-activates the agent,
	// then the envelope lands and must be refused — never two copies.
	sim, _, p := rig(t, 2, Config{MigrationTimeout: time.Millisecond})
	a := &testAgent{}
	ctx := p.Spawn(1, a)
	ctx.MigrateTo(2)
	sim.Run()
	if ctx.Node() != 1 {
		t.Fatalf("agent at %d, want origin 1", ctx.Node())
	}
	if got := len(a.arrivals); got != 1 {
		t.Fatalf("arrivals = %v (duplicate activation?)", a.arrivals)
	}
	st := p.Stats()
	if st.MigrationsRefused != 1 || st.MigrationsFailed != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(p.Place(2).Residents()) != 0 {
		t.Fatal("refused agent became resident at dest")
	}

	// A late envelope from an earlier hop must not complete a newer
	// migration: the origin times out on the slow link to 2, re-activates
	// the agent and sends it to 3, and the first envelope reaches 2 while
	// the second is still in flight. 2 refuses it, and the agent lands at
	// 3, where it was really sent.
	sim = des.New(21)
	net := simnet.New(sim, simnet.FullMesh(3), slowLink{to: 2, slow: 12 * time.Millisecond, fast: 5 * time.Millisecond})
	p = NewPlatform(sim, net, Config{MigrationTimeout: 10 * time.Millisecond})
	for i := 1; i <= 3; i++ {
		p.Host(simnet.NodeID(i), nil)
	}
	b := &testAgent{onFail: func(ctx *Context, dest simnet.NodeID) { ctx.MigrateTo(3) }}
	ctx = p.Spawn(1, b)
	ctx.MigrateTo(2)
	sim.Run()
	if ctx.Node() != 3 || len(b.arrivals) != 2 || b.arrivals[1] != 3 {
		t.Fatalf("agent at %d after arrivals %v, want 3 after [1 3]", ctx.Node(), b.arrivals)
	}
	st = p.Stats()
	if st.MigrationsRefused != 1 || st.MigrationsFailed != 1 || st.MigrationsCompleted != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(p.Place(2).Residents()) != 0 || len(p.Place(3).Residents()) != 1 {
		t.Fatal("the stale envelope became resident at its old destination")
	}
}

// slowLink delivers messages to one node after slow and all others after
// fast.
type slowLink struct {
	to         simnet.NodeID
	slow, fast time.Duration
}

func (l slowLink) Sample(_ *simnet.Network, msg simnet.Message) time.Duration {
	if msg.To == l.to {
		return l.slow
	}
	return l.fast
}

func TestChainedItinerary(t *testing.T) {
	sim, _, p := rig(t, 5, Config{})
	a := &testAgent{}
	a.onArrive = func(ctx *Context) {
		next := ctx.Node() + 1
		if next <= 5 {
			ctx.MigrateTo(next)
		} else {
			ctx.Dispose()
		}
	}
	p.Spawn(1, a)
	sim.Run()
	want := []simnet.NodeID{1, 2, 3, 4, 5}
	if len(a.arrivals) != len(want) {
		t.Fatalf("arrivals = %v", a.arrivals)
	}
	for i := range want {
		if a.arrivals[i] != want[i] {
			t.Fatalf("arrivals = %v", a.arrivals)
		}
	}
	if p.Stats().AgentsDisposed != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

func TestSendToAgent(t *testing.T) {
	sim, _, p := rig(t, 2, Config{})
	a, b := &testAgent{}, &testAgent{}
	ctxA := p.Spawn(1, a)
	ctxB := p.Spawn(2, b)
	ctxA.SendToAgent(2, ctxB.ID(), "ping")
	sim.Run()
	if len(b.messages) != 1 || b.messages[0] != "ping" {
		t.Fatalf("b.messages = %v", b.messages)
	}
	if p.Stats().AgentMsgsDelivered != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

func TestMessageToAbsentAgentDropped(t *testing.T) {
	sim, _, p := rig(t, 2, Config{})
	a := &testAgent{}
	ctxA := p.Spawn(1, a)
	ctxA.SendToAgent(2, ID{Home: 2, Seq: 99}, "ping")
	sim.Run()
	if p.Stats().AgentMsgsDropped != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

func TestNotifyResidents(t *testing.T) {
	sim, _, p := rig(t, 2, Config{})
	a, b := &testAgent{}, &testAgent{}
	p.Spawn(1, a)
	p.Spawn(1, b)
	c := &testAgent{}
	p.Spawn(2, c)
	p.Place(1).NotifyResidents("ll-changed")
	sim.Run()
	if len(a.events) != 1 || len(b.events) != 1 {
		t.Fatalf("events a=%v b=%v", a.events, b.events)
	}
	if len(c.events) != 0 {
		t.Fatal("notification leaked to other node")
	}
}

func TestNotifyResidentsSurvivesMutation(t *testing.T) {
	sim, _, p := rig(t, 2, Config{})
	a := &testAgent{}
	a.onEvent = func(ctx *Context, ev any) { ctx.MigrateTo(2) }
	b := &testAgent{}
	p.Spawn(1, a)
	p.Spawn(1, b)
	p.Place(1).NotifyResidents("go")
	sim.Run()
	if len(a.events) != 1 || len(b.events) != 1 {
		t.Fatalf("events a=%v b=%v", a.events, b.events)
	}
}

func TestDisposeStopsDelivery(t *testing.T) {
	sim, _, p := rig(t, 2, Config{})
	a, b := &testAgent{}, &testAgent{}
	ctxA := p.Spawn(1, a)
	ctxB := p.Spawn(2, b)
	ctxA.SendToAgent(2, ctxB.ID(), "ping")
	ctxB.Dispose()
	sim.Run()
	if len(b.messages) != 0 {
		t.Fatal("disposed agent received message")
	}
	ctxB.Dispose() // idempotent
	if p.Stats().AgentsDisposed != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

func TestAfterSkippedWhenDisposed(t *testing.T) {
	sim, _, p := rig(t, 1, Config{})
	a := &testAgent{}
	ctx := p.Spawn(1, a)
	fired := false
	ctx.After(10*time.Millisecond, func() { fired = true })
	ctx.Dispose()
	sim.Run()
	if fired {
		t.Fatal("timer fired after dispose")
	}
}

type deathRec struct{ ids []ID }

func (d *deathRec) OnAgentDeath(id ID) { d.ids = append(d.ids, id) }

func TestKillResidentsAnnouncesDeaths(t *testing.T) {
	sim, net, p := rig(t, 3, Config{DeathNoticeDelay: 20 * time.Millisecond})
	listeners := make([]*deathRec, 4)
	for i := 1; i <= 3; i++ {
		listeners[i] = &deathRec{}
		p.Place(simnet.NodeID(i)).SetDeathListener(listeners[i])
	}
	a := &testAgent{}
	ctx := p.Spawn(2, a)
	net.SetDown(2, true)
	killed := p.KillResidents(2)
	sim.Run()
	if len(killed) != 1 || killed[0] != ctx.ID() {
		t.Fatalf("killed = %v", killed)
	}
	if ctx.Alive() {
		t.Fatal("killed agent still alive")
	}
	for i := 1; i <= 3; i++ {
		if len(listeners[i].ids) != 1 || listeners[i].ids[0] != ctx.ID() {
			t.Fatalf("listener %d got %v", i, listeners[i].ids)
		}
	}
	if p.Stats().AgentsKilled != 1 {
		t.Fatalf("stats = %+v", p.Stats())
	}
}

func TestAgentDiesIfOriginCrashesDuringFailedMigration(t *testing.T) {
	sim, net, p := rig(t, 3, Config{MigrationTimeout: 50 * time.Millisecond, DeathNoticeDelay: time.Millisecond})
	d := &deathRec{}
	p.Place(3).SetDeathListener(d)
	a := &testAgent{}
	ctx := p.Spawn(1, a)
	net.SetDown(2, true)
	ctx.MigrateTo(2)
	sim.After(10*time.Millisecond, func() { net.SetDown(1, true) })
	sim.Run()
	if ctx.Alive() {
		t.Fatal("agent survived double crash")
	}
	if len(a.failures) != 0 {
		t.Fatal("OnMigrateFailed fired for a dead agent")
	}
	if len(d.ids) != 1 {
		t.Fatalf("death notices = %v", d.ids)
	}
}

func TestIDOrdering(t *testing.T) {
	a := ID{Home: 1, Born: 100, Seq: 1}
	b := ID{Home: 2, Born: 100, Seq: 2}
	c := ID{Home: 1, Born: 200, Seq: 3}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("home tiebreak wrong")
	}
	if !a.Less(c) || c.Less(a) {
		t.Fatal("born ordering wrong")
	}
	if (ID{}).IsZero() != true || a.IsZero() {
		t.Fatal("IsZero wrong")
	}
	if a.String() != "A1.1" {
		t.Fatalf("String = %q", a.String())
	}
}

func TestWireSizeAccounting(t *testing.T) {
	// No codec carries the in-process envelope: a migration on the
	// simulated fabric costs the size the agent declares.
	sim, net, p := rig(t, 2, Config{})
	a := &testAgent{size: 2048}
	ctx := p.Spawn(1, a)
	ctx.MigrateTo(2)
	sim.Run()
	if got := net.Stats().BytesSent; got != 2048 {
		t.Fatalf("bytes sent = %d, want 2048", got)
	}
	kinds := net.Stats().ByKind
	if kinds["agent-migrate"] != 1 {
		t.Fatalf("by kind = %v", kinds)
	}
}

func TestMigrateToSelfPanics(t *testing.T) {
	_, _, p := rig(t, 2, Config{})
	ctx := p.Spawn(1, &testAgent{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ctx.MigrateTo(1)
}

func TestCostDelegation(t *testing.T) {
	sim := des.New(1)
	net := simnet.New(sim, simnet.Ring(4), nil)
	p := NewPlatform(sim, net, Config{})
	for i := 1; i <= 4; i++ {
		p.Host(simnet.NodeID(i), nil)
	}
	ctx := p.Spawn(1, &testAgent{})
	if ctx.Cost(3) != 2 {
		t.Fatalf("Cost(3) = %v", ctx.Cost(3))
	}
}

func TestHostTwicePanics(t *testing.T) {
	_, _, p := rig(t, 2, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Host(1, nil)
}

func TestContextAccessorsAndServerHelpers(t *testing.T) {
	sim, net, p := rig(t, 3, Config{})
	a := &testAgent{}
	ctx := p.Spawn(2, a)
	if ctx.Node() != 2 {
		t.Fatalf("Node = %d", ctx.Node())
	}
	if ctx.Now() != sim.Now() {
		t.Fatal("Now mismatch")
	}
	if ctx.Rand() != sim.Rand() {
		t.Fatal("Rand mismatch")
	}
	// Send to a server-less node: delivered to demux, dropped silently.
	ctx.Send(3, "to-server")
	// Platform-level helpers pay network latency too.
	b := &testAgent{}
	ctxB := p.Spawn(3, b)
	p.SendToAgent(1, 3, ctxB.ID(), "hello")
	p.SendToServer(1, 3, "server-bound")
	sim.Run()
	if len(b.messages) != 1 || b.messages[0] != "hello" {
		t.Fatalf("messages = %v", b.messages)
	}
	if net.Stats().MessagesSent != 3 {
		t.Fatalf("sent = %d", net.Stats().MessagesSent)
	}
}

func TestSendAfterDisposeIsNoop(t *testing.T) {
	sim, net, p := rig(t, 2, Config{})
	ctx := p.Spawn(1, &testAgent{})
	ctx.Dispose()
	ctx.Send(2, "x")
	ctx.SendToAgent(2, ID{Home: 2, Seq: 1}, "x")
	sim.Run()
	if net.Stats().MessagesSent != 0 {
		t.Fatal("disposed agent sent messages")
	}
}

func TestDefaultWireSizeWithoutSizer(t *testing.T) {
	sim, net, p := rig(t, 2, Config{})
	// minimalAgent lacks WireSize: its migrations declare the default.
	ctx := p.Spawn(1, &minimalAgent{})
	ctx.MigrateTo(2)
	sim.Run()
	if got := net.Stats().BytesSent; got != DefaultAgentSize {
		t.Fatalf("bytes = %d, want %d", got, DefaultAgentSize)
	}
}

type minimalAgent struct{}

func (minimalAgent) OnArrive(*Context)                       {}
func (minimalAgent) OnMigrateFailed(*Context, simnet.NodeID) {}
func (minimalAgent) OnMessage(*Context, simnet.NodeID, any)  {}
func (minimalAgent) OnLocalEvent(*Context, any)              {}

// --- wire migration: settled by the fabric's window --------------------

// wireNet claims wire delivery over the simulated network, so these tests
// exercise the serialized migration path (WireEnvelope, settlement by the
// reliable layer on top) deterministically under the DES clock.
type wireNet struct{ *simnet.Network }

func (wireNet) WireDelivery() bool { return true }

// wireTestAgent is a testAgent that can cross a serializing fabric.
type wireTestAgent struct{ testAgent }

func (*wireTestAgent) MarshalWire() ([]byte, error) { return []byte("state"), nil }

func wireRig(t *testing.T, n int) (*des.Simulator, *simnet.Network, *Platform, *[]ID) {
	t.Helper()
	departed := &[]ID{}
	cfg := Config{
		ThawWire: func(id ID, state []byte) (Behavior, error) {
			if string(state) != "state" {
				t.Fatalf("thaw state = %q", state)
			}
			return &wireTestAgent{}, nil
		},
		OnDeparted: func(id ID, _ Behavior) { *departed = append(*departed, id) },
	}
	sim := des.New(21)
	net := simnet.New(sim, simnet.FullMesh(n), simnet.Constant(5*time.Millisecond))
	p := NewPlatform(sim, reliable.NewLayer(sim, wireNet{net}, reliable.Config{}), cfg)
	for i := 1; i <= n; i++ {
		p.Host(simnet.NodeID(i), nil)
	}
	return sim, net, p, departed
}

// TestWireMigrationSettlesOnTheWindow: over a wire fabric a migration
// completes when the reliable layer acknowledges the envelope's frame —
// the origin's copy departs, and nothing else crosses the network for it —
// and fails only when the layer gives that frame up, which re-activates the
// agent at its origin.
func TestWireMigrationSettlesOnTheWindow(t *testing.T) {
	sim, net, p, departed := wireRig(t, 3)
	a := &wireTestAgent{}
	ctx := p.Spawn(1, a)
	ctx.MigrateTo(2)
	sim.Run()
	if len(*departed) != 1 || (*departed)[0] != ctx.ID() || ctx.Alive() {
		t.Fatalf("departed = %v, origin copy alive = %v", *departed, ctx.Alive())
	}
	if st := p.Stats(); st.MigrationsCompleted != 1 || st.MigrationsFailed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if kinds := net.Stats().ByKind; kinds["agent-migrate-ack"] != 0 || kinds["agent-migrate"] != 1 {
		t.Fatalf("sent by kind = %v, want one envelope and no migration ack", kinds)
	}

	moved := p.Place(2).agents[ctx.ID()]
	net.SetDown(3, true)
	moved.MigrateTo(3)
	sim.Run()
	mover := moved.behavior.(*wireTestAgent)
	if len(mover.failures) != 1 || mover.failures[0] != 3 || moved.Node() != 2 || !moved.Alive() {
		t.Fatalf("failures = %v at node %d: the given-up envelope did not re-activate the agent at its origin", mover.failures, moved.Node())
	}
	if st := p.Stats(); st.MigrationsFailed != 1 || len(*departed) != 1 {
		t.Fatalf("stats = %+v, departed = %v", st, *departed)
	}
}

// settleNet is a wire fabric whose settlements the test reports by hand,
// in any order and at any delay.
type settleNet struct {
	wireNet
	settle func(simnet.Message, bool)
	sent   []*WireEnvelope
}

func (n *settleNet) OnSettled(fn func(simnet.Message, bool)) { n.settle = fn }

func (n *settleNet) Send(m simnet.Message) {
	if env, ok := m.Payload.(*WireEnvelope); ok {
		n.sent = append(n.sent, env)
	}
	n.wireNet.Send(m)
}

// TestLateSettlementDecidesOnlyItsOwnHop (invariant 13): node 1's
// platform sends the agent to node 2's, and it comes back before its first
// departure is settled. A late give-up of that first envelope cannot
// re-activate the copy that left — the agent came back through it — and
// once the agent has left node 1 again, a late report on the first
// envelope decides nothing about the newer migration.
func TestLateSettlementDecidesOnlyItsOwnHop(t *testing.T) {
	sim := des.New(23)
	sn := simnet.New(sim, simnet.FullMesh(3), simnet.Constant(5*time.Millisecond))
	var departed []Behavior
	platform := func(nodes ...simnet.NodeID) (*Platform, *settleNet) {
		net := &settleNet{wireNet: wireNet{sn}}
		p := NewPlatform(sim, net, Config{
			ThawWire:   func(ID, []byte) (Behavior, error) { return &wireTestAgent{}, nil },
			OnDeparted: func(_ ID, b Behavior) { departed = append(departed, b) },
		})
		for _, id := range nodes {
			p.Host(id, nil)
		}
		return p, net
	}
	p, net := platform(1, 3) // one process hosting nodes 1 and 3
	q, _ := platform(2)      // another hosting node 2
	left := &wireTestAgent{}
	ctx := p.Spawn(1, left)
	ctx.MigrateTo(2)
	sim.Run()
	q.Place(2).agents[ctx.ID()].MigrateTo(1)
	sim.Run()
	back := p.Place(1).agents[ctx.ID()]
	if back == nil || back == ctx {
		t.Fatal("the agent did not come back to node 1 as a new copy")
	}
	first := simnet.Message{From: 1, To: 2, Payload: net.sent[0]}

	net.settle(first, false)
	if got := p.Place(1).agents[ctx.ID()]; got != back || len(p.Place(1).sorted) != 1 || len(left.failures) != 0 {
		t.Fatalf("a late give-up of the first envelope re-activated the copy that left (failures %v)", left.failures)
	}
	if len(departed) != 1 || departed[0] != Behavior(left) {
		t.Fatalf("departed = %v, want the copy that left", departed)
	}

	back.MigrateTo(3)
	net.settle(first, true)
	net.settle(first, false)
	if _, pending := p.pending[ctx.ID()]; !pending || len(departed) != 1 || p.Stats().MigrationsFailed != 0 {
		t.Fatalf("a report on the first envelope settled the newer migration (departed %v, stats %+v)", departed, p.Stats())
	}
	sim.Run()
	if p.Place(3).agents[ctx.ID()] == nil {
		t.Fatal("the newer migration did not land")
	}
}
