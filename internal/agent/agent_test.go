package agent

import (
	"testing"
	"time"

	"repro/internal/des"
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

// --- wire migration: hop-numbered acks ----------------------------------

// wireNet claims wire delivery over the simulated network, so these tests
// exercise the serialized migration path (WireEnvelope, acks)
// deterministically under the DES clock.
type wireNet struct{ *simnet.Network }

func (wireNet) WireDelivery() bool { return true }

// wireTestAgent is a testAgent that can cross a serializing fabric.
type wireTestAgent struct{ testAgent }

func (*wireTestAgent) MarshalWire() ([]byte, error) { return []byte("state"), nil }

func wireRig(t *testing.T, n int, cfg Config) (*des.Simulator, *Platform, *[]ID) {
	t.Helper()
	departed := &[]ID{}
	cfg.ThawWire = func(id ID, state []byte) (Behavior, error) {
		if string(state) != "state" {
			t.Fatalf("thaw state = %q", state)
		}
		return &wireTestAgent{}, nil
	}
	cfg.OnDeparted = func(id ID, _ Behavior) { *departed = append(*departed, id) }
	sim := des.New(21)
	net := wireNet{simnet.New(sim, simnet.FullMesh(n), simnet.Constant(5*time.Millisecond))}
	p := NewPlatform(sim, net, cfg)
	for i := 1; i <= n; i++ {
		p.Host(simnet.NodeID(i), nil)
	}
	return sim, p, departed
}

// TestStaleMigrationAckIgnored: acks are cumulative per agent (invariant
// 13) — a re-ack of an earlier hop, arriving while a newer migration is in
// flight, must not retire the newer one.
func TestStaleMigrationAckIgnored(t *testing.T) {
	sim, p, departed := wireRig(t, 2, Config{})
	ctx := p.Spawn(1, &wireTestAgent{})
	ctx.MigrateTo(2)
	sim.Run()
	id := ctx.ID()
	ctx2 := p.Place(2).agents[id]
	if ctx2 == nil {
		t.Fatal("agent not resident at dest after first hop")
	}
	ctx2.MigrateTo(1)
	// The destination of hop 1 re-acknowledges a duplicate envelope while
	// hop 2 is pending.
	p.migrateAcked(id, 1)
	if got := p.Stats().StaleAcksIgnored; got != 1 {
		t.Fatalf("StaleAcksIgnored = %d, want 1", got)
	}
	if _, ok := p.pending[id]; !ok {
		t.Fatal("stale ack retired the in-flight migration")
	}
	sim.Run()
	st := p.Stats()
	if st.MigrationsCompleted != 2 || st.MigrationsFailed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(*departed) != 2 {
		t.Fatalf("departed = %v, want both hops acked", *departed)
	}
}
