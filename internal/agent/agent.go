// Package agent emulates a mobile-agent platform (the role IBM Aglets plays
// in the paper's prototype) on top of the simulated network.
//
// Go has no code mobility, so "migration" here is state mobility: an agent
// is a Go value implementing Behavior. Over the in-memory simulated fabric
// the value moves between places directly and declares a modelled wire
// size for traffic accounting; over a serializing fabric
// (runtime.WireFabric — the live TCP deployment, where each place is its
// own OS process) the behavior is encoded via its WireBehavior hook,
// shipped as bytes, and reconstructed by the destination's ThawWire hook. Either way the protocol layer
// observes the same thing: an agent executes at one place at a time,
// interacts with the co-located server at memory speed, pays network
// latency to move, and can fail to migrate when the destination is down.
//
// Across processes a migration completes when the fabric (a
// runtime.SettleNotifier: internal/reliable's window) acknowledges its
// envelope, and fails only when the fabric gives the envelope up.
//
// The platform also provides the failure-notification service the paper
// assumes ("when a process fails, all other processes are informed of the
// failure in a finite time"): when a host crashes, agents resident there die
// with it, and every surviving node receives an agent-death notice after a
// configurable detection delay.
package agent

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"repro/internal/runtime"
	"repro/internal/trace"
)

// ID identifies a mobile agent. The paper forms agent identifiers from the
// creating host's name plus the local creation time; ID mirrors that with
// the home server's node ID and the virtual creation time, plus a sequence
// number to disambiguate agents born in the same instant.
type ID struct {
	Home runtime.NodeID
	Born int64 // virtual creation time, nanoseconds
	Seq  uint64
}

// IsZero reports whether the ID is unset.
func (id ID) IsZero() bool { return id == ID{} }

// Less defines the total order used for tie-breaking (paper §3.3: ties are
// resolved "by using the mobile agents' identifiers"). Earlier-born agents
// order first; the home node and sequence number break exact ties.
func (id ID) Less(o ID) bool {
	if id.Born != o.Born {
		return id.Born < o.Born
	}
	if id.Home != o.Home {
		return id.Home < o.Home
	}
	return id.Seq < o.Seq
}

// String renders the ID compactly, e.g. "A3.17".
func (id ID) String() string {
	return "A" + strconv.Itoa(int(id.Home)) + "." + strconv.FormatUint(id.Seq, 10)
}

// Behavior is the agent's program. All hooks run on the simulator's event
// loop; they may freely call Context methods, including MigrateTo and
// Dispose, from inside any hook.
type Behavior interface {
	// OnArrive runs when the agent is activated at a place: once at
	// creation on its home node, then after every successful migration.
	OnArrive(ctx *Context)
	// OnMigrateFailed runs at the origin place when a migration to dest
	// could not complete: the platform's migration timeout passed, or the
	// fabric gave the envelope up. The agent is active again at its origin.
	OnMigrateFailed(ctx *Context, dest runtime.NodeID)
	// OnMessage delivers a network message addressed to this agent.
	OnMessage(ctx *Context, from runtime.NodeID, payload any)
	// OnLocalEvent delivers a zero-latency notification from the
	// co-located server (e.g. "locking list changed").
	OnLocalEvent(ctx *Context, ev any)
}

// WireSizer lets a behavior report its modelled serialized size in bytes,
// which its migrations over a shared-memory fabric declare; migrations of
// agents without it declare DefaultAgentSize.
type WireSizer interface{ WireSize() int }

// WireBehavior is a behavior that can serialize itself for migration over a
// fabric whose ends do not share memory. MarshalWire is called only when the
// agent is quiescent (about to leave a place), so implementations may encode
// their full travelling state. A behavior without this hook cannot migrate
// over a runtime.WireFabric.
type WireBehavior interface {
	MarshalWire() ([]byte, error)
}

// DefaultAgentSize is the modelled wire size of an agent whose behavior does
// not implement WireSizer.
const DefaultAgentSize = 512

// DeathListener is notified when an agent is known to have died (its host
// crashed, or it was lost in transit to a crashing host). Servers register
// one to evict dead agents' lock entries.
type DeathListener interface {
	OnAgentDeath(id ID)
}

// Stats aggregates platform counters.
type Stats struct {
	AgentsCreated       int
	AgentsDisposed      int
	AgentsKilled        int // died with a crashed host or in transit to one
	AgentsRegenerated   int // respawned after being lost
	MigrationsStarted   int
	MigrationsCompleted int
	MigrationsFailed    int // timed out or given up, agent re-activated at origin
	MigrationsRefused   int // envelope came too late, or for an agent already resident
	AgentMsgsDelivered  int
	AgentMsgsDropped    int
}

// Config carries platform tuning knobs.
type Config struct {
	// MigrationTimeout is how long the origin waits for a migration to
	// land before re-activating the agent locally (paper §2: "if a mobile
	// agent cannot migrate to a replicated server host after certain
	// amount of time, the protocol assumes that the replica process at
	// the host has temporarily failed"). Unused over a wire fabric, whose
	// give-up is that amount of time.
	MigrationTimeout time.Duration
	// DeathNoticeDelay is how long after an agent's death the other nodes
	// learn about it.
	DeathNoticeDelay time.Duration
	// LostHandler, if non-nil, is consulted when an agent is lost in
	// transit (its origin crashed while it was migrating, so no place can
	// re-activate it). Returning true claims the loss — the caller will
	// regenerate the agent under its original ID, so the platform must NOT
	// announce the death (a tombstone for the reused ID would make every
	// server reject the reborn agent). Returning false lets the normal
	// death notices flow.
	LostHandler func(id ID, b Behavior) bool
	// ThawWire, if non-nil, reconstructs a behavior from its encoded state
	// when an agent arrives over a serializing fabric. Required for wire
	// migration; ignored over the in-memory fabric.
	ThawWire func(id ID, state []byte) (Behavior, error)
	// OnDeparted, if non-nil, runs at the origin when the fabric reports a
	// wire migration's envelope delivered — the moment the origin knows its
	// copy of the agent is dead weight and any local bookkeeping for the
	// in-flight agent can be dropped. b is the copy that left: the agent
	// can be back, thawed into a new behavior, before that report arrives.
	OnDeparted func(id ID, b Behavior)
	// Trace, if non-nil, receives platform events.
	Trace *trace.Log
}

func (c *Config) fill() {
	if c.MigrationTimeout <= 0 {
		c.MigrationTimeout = 250 * time.Millisecond
	}
	if c.DeathNoticeDelay <= 0 {
		c.DeathNoticeDelay = 100 * time.Millisecond
	}
}

// Platform hosts mobile agents across the nodes of a fabric. The fabric may
// be the simulated network, the ack/retransmit layer in internal/reliable,
// or that layer over the live TCP fabric; the platform is agnostic.
type Platform struct {
	net    runtime.Fabric
	eng    runtime.Engine
	cfg    Config
	wire   bool // fabric serializes: migrate as WireEnvelope, not pointers
	places map[runtime.NodeID]*Place
	// pending tracks in-flight migrations by agent ID; the destination
	// place (over a wire fabric, the envelope's settlement) removes the
	// entry, the timeout fires only if it is still present.
	pending  map[ID]*pendingMigration
	seq      uint64
	bornBase int64 // added to the engine clock to form Born (see AdvanceBirth)
	stats    Stats
}

// AdvanceBirth makes every subsequently spawned agent's Born at least min by
// shifting the platform's birth clock forward; Born keeps advancing with the
// engine clock from there, so IDs stay ordered by age. A process that
// rebuilds a home calls it with a value past everything the previous
// incarnation can have minted (the durable state's timestamps; the wall
// clock on a live node): engines restart their clocks at zero, and an ID
// minted below a watermark the peers already hold would be refused forever.
func (p *Platform) AdvanceBirth(min int64) {
	if base := min - int64(p.eng.Now()); base > p.bornBase {
		p.bornBase = base
	}
}

type pendingMigration struct {
	ctx   *Context
	dest  runtime.NodeID
	hop   uint64 // the migration count this entry covers
	timer runtime.Timer
}

// envelope carries a live agent between places that share one address
// space (the simulated fabric). hop is the migration it belongs to: the
// destination lands it only while that migration is the agent's pending
// one, so a late envelope from an earlier hop cannot complete a newer
// migration somewhere else (invariant 13).
type envelope struct {
	ctx *Context
	hop uint64
}

func (envelope) Kind() string { return "agent-migrate" }

// WireEnvelope carries a serialized agent between places in different
// processes. Same accounting kind as envelope: it is the same migration,
// just physically encoded. Hop is the agent's migration count, so the
// envelope's settlement decides only its own migration (DESIGN.md
// invariant 13).
type WireEnvelope struct {
	ID    ID
	Hop   uint64
	State []byte
}

// Kind implements runtime.Kinder.
func (*WireEnvelope) Kind() string { return "agent-migrate" }

// MigrateAck names one hop of an agent. The platform does not send it; it
// stays a registered wire message (tag 2) for the benchmark's fabric
// round-trip probe.
type MigrateAck struct {
	ID  ID
	Hop uint64
}

// Kind implements runtime.Kinder.
func (*MigrateAck) Kind() string { return "agent-migrate-ack" }

// AgentMsg addresses a payload to a specific agent at the destination node.
type AgentMsg struct {
	Target  ID
	Payload any
}

// Kind implements runtime.Kinder.
func (*AgentMsg) Kind() string { return "agent-msg" }

// NewPlatform creates a platform over net, scheduling its timers on eng.
func NewPlatform(eng runtime.Engine, net runtime.Fabric, cfg Config) *Platform {
	cfg.fill()
	p := &Platform{
		net:     net,
		eng:     eng,
		cfg:     cfg,
		places:  make(map[runtime.NodeID]*Place),
		pending: make(map[ID]*pendingMigration),
	}
	if wf, ok := net.(runtime.WireFabric); ok && wf.WireDelivery() {
		p.wire = true
		net.(runtime.SettleNotifier).OnSettled(p.settled)
	}
	return p
}

// Stats returns a copy of the platform counters.
func (p *Platform) Stats() Stats { return p.stats }

// Host creates the agent place at node and attaches a demultiplexing handler
// to the network: agent-platform payloads are consumed by the place, all
// other messages flow to server (which may be nil for agent-only nodes).
func (p *Platform) Host(node runtime.NodeID, server runtime.Handler) *Place {
	if _, dup := p.places[node]; dup {
		panic(fmt.Sprintf("agent: node %d already hosted", node))
	}
	pl := &Place{platform: p, node: node, agents: make(map[ID]*Context)}
	p.places[node] = pl
	p.net.Attach(node, runtime.HandlerFunc(func(msg runtime.Message) {
		switch payload := msg.Payload.(type) {
		case *envelope:
			pl.receive(payload)
		case *WireEnvelope:
			pl.receiveWire(payload)
		case *AgentMsg:
			pl.deliverToAgent(msg.From, payload)
		default:
			if server != nil {
				server.Deliver(msg)
			}
		}
	}))
	return pl
}

// Place returns the place at node, or nil if the node is not hosted.
func (p *Platform) Place(node runtime.NodeID) *Place { return p.places[node] }

// record traces an agent event whose detail needs no formatting; the ID is
// rendered only when tracing is on.
func (p *Platform) record(node runtime.NodeID, id ID, typ trace.Type, detail string) {
	if p.cfg.Trace.Enabled() {
		p.cfg.Trace.Add(trace.Event{At: int64(p.eng.Now()), Node: int(node), Actor: id.String(), Type: typ, Detail: detail})
	}
}

// Mint returns a new ID for an agent born at home now. Seqs are dense: the
// n-th ID a platform mints has Seq n.
func (p *Platform) Mint(home runtime.NodeID) ID {
	p.seq++
	return ID{Home: home, Born: int64(p.eng.Now()) + p.bornBase, Seq: p.seq}
}

// Spawn creates and activates an agent at its home node under a new ID,
// invoking OnArrive.
func (p *Platform) Spawn(home runtime.NodeID, b Behavior) *Context {
	return p.Launch(p.Mint(home), b)
}

// Launch activates a new agent at id.Home under id, which Mint returned,
// invoking OnArrive: Spawn for a caller that enters the ID somewhere before
// the agent can act.
func (p *Platform) Launch(id ID, b Behavior) *Context {
	pl := p.places[id.Home]
	if pl == nil {
		panic(fmt.Sprintf("agent: spawning on unhosted node %d", id.Home))
	}
	ctx := &Context{
		platform: p,
		behavior: b,
		id:       id,
		node:     id.Home,
	}
	pl.addAgent(ctx)
	p.stats.AgentsCreated++
	p.record(id.Home, id, trace.AgentCreated, "")
	b.OnArrive(ctx)
	return ctx
}

// Respawn activates a regenerated agent at home under its original ID.
// Theorem 2's tie-breaking is identifier-based, so the reborn agent must
// keep its old identity (and with it its queue priority). The caller
// guarantees the previous incarnation is dead and that no death notice was
// sent for the reused ID.
func (p *Platform) Respawn(home runtime.NodeID, b Behavior, id ID) *Context {
	pl := p.places[home]
	if pl == nil {
		panic(fmt.Sprintf("agent: respawning on unhosted node %d", home))
	}
	if _, live := pl.agents[id]; live {
		panic(fmt.Sprintf("agent: respawn of live agent %v", id))
	}
	ctx := &Context{
		platform: p,
		behavior: b,
		id:       id,
		node:     home,
	}
	pl.addAgent(ctx)
	p.stats.AgentsRegenerated++
	p.record(home, id, trace.AgentRegen, "")
	b.OnArrive(ctx)
	return ctx
}

// Casualty is an agent killed by a host crash: its identity plus the
// behavior value that died with it, from whose state callers may regenerate
// the agent.
type Casualty struct {
	ID       ID
	Behavior Behavior
}

// KillResidents disposes every agent currently at node (because the node
// crashed) and schedules death notices to all hosted nodes. It returns the
// IDs of the killed agents.
func (p *Platform) KillResidents(node runtime.NodeID) []ID {
	cs := p.TakeResidents(node)
	ids := make([]ID, len(cs))
	for i, c := range cs {
		ids[i] = c.ID
	}
	p.AnnounceDeaths(ids)
	return ids
}

// TakeResidents kills every agent currently at node WITHOUT announcing the
// deaths, returning the casualties in deterministic (ID) order. The caller
// decides each agent's fate: regenerate it from its frozen state (no death
// notice — the reused ID must not be tombstoned) or pass its ID to
// AnnounceDeaths.
func (p *Platform) TakeResidents(node runtime.NodeID) []Casualty {
	pl := p.places[node]
	if pl == nil {
		return nil
	}
	var killed []Casualty
	for id, ctx := range pl.agents {
		ctx.state = stateDead
		delete(pl.agents, id)
		killed = append(killed, Casualty{ID: id, Behavior: ctx.behavior})
		p.stats.AgentsKilled++
		p.record(node, id, trace.AgentDied, "host crashed")
	}
	for i := 1; i < len(killed); i++ {
		for j := i; j > 0 && killed[j].ID.Less(killed[j-1].ID); j-- {
			killed[j], killed[j-1] = killed[j-1], killed[j]
		}
	}
	pl.sorted = pl.sorted[:0]
	// Agents in flight toward the crashing node will be handled by their
	// origin's migration timeout; agents in flight *from* it already left.
	return killed
}

// AnnounceDeaths schedules OnAgentDeath at every hosted node's registered
// listener after the detection delay.
func (p *Platform) AnnounceDeaths(ids []ID) {
	if len(ids) == 0 {
		return
	}
	for _, pl := range p.places {
		pl := pl
		p.eng.AfterFunc(p.cfg.DeathNoticeDelay, func() {
			if pl.deaths == nil {
				return
			}
			for _, id := range ids {
				pl.deaths.OnAgentDeath(id)
			}
		})
	}
}

// Place is the agent habitat on one node.
type Place struct {
	platform *Platform
	node     runtime.NodeID
	agents   map[ID]*Context
	sorted   []*Context // residents in ascending ID order (mirrors agents)
	deaths   DeathListener
	scratch  []*Context // reusable NotifyResidents snapshot buffer
}

// addAgent registers a resident in both the lookup map and the ID-ordered
// index. The caller guarantees the ID is not currently resident.
func (pl *Place) addAgent(ctx *Context) {
	pl.agents[ctx.id] = ctx
	i := sort.Search(len(pl.sorted), func(i int) bool { return !pl.sorted[i].id.Less(ctx.id) })
	pl.sorted = append(pl.sorted, nil)
	copy(pl.sorted[i+1:], pl.sorted[i:])
	pl.sorted[i] = ctx
}

// removeAgent unregisters a resident from both structures.
func (pl *Place) removeAgent(id ID) {
	delete(pl.agents, id)
	i := sort.Search(len(pl.sorted), func(i int) bool { return !pl.sorted[i].id.Less(id) })
	if i < len(pl.sorted) && pl.sorted[i].id == id {
		pl.sorted = append(pl.sorted[:i], pl.sorted[i+1:]...)
	}
}

// Node returns the place's node ID.
func (pl *Place) Node() runtime.NodeID { return pl.node }

// SetDeathListener registers the co-located server's agent-death handler.
func (pl *Place) SetDeathListener(l DeathListener) { pl.deaths = l }

// Residents returns the IDs of the agents currently at the place.
func (pl *Place) Residents() []ID {
	out := make([]ID, 0, len(pl.agents))
	for id := range pl.agents {
		out = append(out, id)
	}
	return out
}

// NotifyResidents invokes OnLocalEvent(ev) on every agent currently at the
// place. The resident set is snapshotted first, so handlers may migrate or
// dispose agents freely.
func (pl *Place) NotifyResidents(ev any) {
	// Snapshot the ID-ordered resident index (handlers may migrate or
	// dispose agents, mutating it mid-walk). Reuse the snapshot buffer
	// across notifications (they are frequent and single-threaded);
	// steal it for the duration so a re-entrant notify from inside a
	// handler allocates its own rather than clobbering ours.
	snapshot := append(pl.scratch[:0], pl.sorted...)
	pl.scratch = nil
	for _, ctx := range snapshot {
		if ctx.state == stateActive && pl.agents[ctx.id] == ctx {
			ctx.behavior.OnLocalEvent(ctx, ev)
		}
	}
	clear(snapshot)
	pl.scratch = snapshot[:0]
}

// receiveWire lands a serialized agent from another process: reconstruct
// the behavior and activate it. An envelope for an agent already resident
// is refused — the resident incarnation wins. The fabric's acknowledgement
// of the envelope settles the migration at the origin.
func (pl *Place) receiveWire(env *WireEnvelope) {
	p := pl.platform
	if _, live := pl.agents[env.ID]; live || p.cfg.ThawWire == nil {
		p.stats.MigrationsRefused++
		return
	}
	b, err := p.cfg.ThawWire(env.ID, env.State)
	if err != nil {
		p.stats.MigrationsRefused++
		return
	}
	ctx := &Context{platform: p, behavior: b, id: env.ID, node: pl.node, hop: env.Hop, state: stateActive}
	pl.addAgent(ctx)
	p.stats.MigrationsCompleted++
	p.record(pl.node, env.ID, trace.AgentArrived, "")
	b.OnArrive(ctx)
}

// settled closes out a wire migration at the origin when the fabric
// reports its envelope delivered (the origin's copy is retired) or given up
// (the agent is active at its origin again). Only the envelope's own hop is
// settled, never a newer migration the agent started here after it came
// back (invariant 13).
func (p *Platform) settled(msg runtime.Message, delivered bool) {
	env, ok := msg.Payload.(*WireEnvelope)
	if !ok {
		return
	}
	pm := p.pending[env.ID]
	if pm == nil || pm.hop != env.Hop {
		return
	}
	// Given up while the agent is back here, the envelope was delivered
	// after all: the agent came back through it.
	if !delivered && p.places[pm.ctx.node].agents[env.ID] == nil {
		p.failMigration(pm)
		return
	}
	delete(p.pending, env.ID)
	pm.ctx.state = stateDeparted
	if p.cfg.OnDeparted != nil {
		p.cfg.OnDeparted(env.ID, pm.ctx.behavior)
	}
}

// failMigration re-activates a migrating agent at its origin. If the origin
// itself crashed while the agent was in transit, the agent is lost: the
// lost handler may claim it for regeneration; otherwise death notices flow.
func (p *Platform) failMigration(pm *pendingMigration) {
	c, origin := pm.ctx, pm.ctx.node
	delete(p.pending, c.id)
	if p.net.Down(origin) {
		c.state = stateDead
		p.stats.AgentsKilled++
		p.record(origin, c.id, trace.AgentDied, "origin crashed during failed migration")
		if p.cfg.LostHandler != nil && p.cfg.LostHandler(c.id, c.behavior) {
			return
		}
		p.AnnounceDeaths([]ID{c.id})
		return
	}
	c.state = stateActive
	p.places[origin].addAgent(c)
	p.stats.MigrationsFailed++
	if p.cfg.Trace.Enabled() {
		p.cfg.Trace.Addf(int64(p.eng.Now()), int(origin), c.id.String(), trace.AgentBlocked, "dest S%d unreachable", pm.dest)
	}
	c.behavior.OnMigrateFailed(c, pm.dest)
}

// receive lands a migrating agent.
func (pl *Place) receive(env *envelope) {
	p := pl.platform
	pm, ok := p.pending[env.ctx.id]
	if !ok || pm.ctx != env.ctx || pm.hop != env.hop {
		// The origin already timed out and re-activated the agent (or
		// declared it dead, or sent it on since); refuse the late arrival.
		p.stats.MigrationsRefused++
		return
	}
	delete(p.pending, env.ctx.id)
	pm.timer.Cancel()
	ctx := pm.ctx
	ctx.node = pl.node
	ctx.state = stateActive
	pl.addAgent(ctx)
	p.stats.MigrationsCompleted++
	p.record(pl.node, ctx.id, trace.AgentArrived, "")
	ctx.behavior.OnArrive(ctx)
}

// deliverToAgent routes a network message to a resident agent.
func (pl *Place) deliverToAgent(from runtime.NodeID, m *AgentMsg) {
	ctx, ok := pl.agents[m.Target]
	if !ok || ctx.state != stateActive {
		pl.platform.stats.AgentMsgsDropped++
		return
	}
	pl.platform.stats.AgentMsgsDelivered++
	ctx.behavior.OnMessage(ctx, from, m.Payload)
}

type agentState int

const (
	stateActive agentState = iota
	stateInTransit
	stateDisposed
	stateDead
	stateDeparted // wire migration delivered: the live copy is elsewhere
)

// Context is an agent's handle onto the platform. One Context accompanies
// the agent for its whole life; Node reports its current location.
type Context struct {
	platform *Platform
	behavior Behavior
	id       ID
	node     runtime.NodeID
	hop      uint64 // migrations completed so far; stamps wire envelopes
	state    agentState
}

// ID returns the agent's identifier.
func (c *Context) ID() ID { return c.id }

// Node returns the agent's current location.
func (c *Context) Node() runtime.NodeID { return c.node }

// Now returns the current virtual time.
func (c *Context) Now() runtime.Time { return c.platform.eng.Now() }

// Rand returns the simulation's seeded random source.
func (c *Context) Rand() *rand.Rand { return c.platform.eng.Rand() }

// After schedules fn on the engine clock; the agent's own timer facility.
// fn is not invoked if the agent has been disposed, departed over the wire,
// or died in the meantime.
func (c *Context) After(d time.Duration, fn func()) runtime.Timer {
	return c.platform.eng.AfterFunc(d, func() {
		if c.state == stateDisposed || c.state == stateDead || c.state == stateDeparted {
			return
		}
		fn()
	})
}

// Cost returns the topology cost of travelling from the agent's current
// node to another node — the routing-table information the local server
// provides to visiting agents (paper §3.2).
func (c *Context) Cost(to runtime.NodeID) float64 {
	return c.platform.net.Cost(c.node, to)
}

// Alive reports whether the agent is active or migrating (not disposed).
func (c *Context) Alive() bool { return c.state == stateActive || c.state == stateInTransit }

func (c *Context) wireSize() int {
	if s, ok := c.behavior.(WireSizer); ok {
		return s.WireSize()
	}
	return DefaultAgentSize
}

// MigrateTo detaches the agent from its current place and ships it to dest.
// On success OnArrive fires at dest after the network latency; if the
// envelope is lost (destination down or partitioned), OnMigrateFailed fires
// at the origin after the platform's migration timeout (over a wire fabric,
// the fabric's give-up) and the agent is active at the origin again.
func (c *Context) MigrateTo(dest runtime.NodeID) {
	if c.state != stateActive {
		panic(fmt.Sprintf("agent %v: MigrateTo while not active (state %d)", c.id, c.state))
	}
	if dest == c.node {
		panic(fmt.Sprintf("agent %v: MigrateTo current node %d", c.id, dest))
	}
	p := c.platform
	origin := c.node
	pl := p.places[origin]
	pl.removeAgent(c.id)
	c.state = stateInTransit
	p.stats.MigrationsStarted++
	if p.cfg.Trace.Enabled() {
		p.cfg.Trace.Addf(int64(p.eng.Now()), int(origin), c.id.String(), trace.AgentMigrate, "-> S%d", dest)
	}

	c.hop++
	pm := &pendingMigration{ctx: c, dest: dest, hop: c.hop}
	if !p.wire {
		pm.timer = p.eng.AfterFunc(p.cfg.MigrationTimeout, func() {
			if p.pending[c.id] == pm {
				p.failMigration(pm)
			}
		})
	}
	p.pending[c.id] = pm
	p.net.Send(c.migration(origin, dest))
}

// migration builds the message that carries the agent for the platform's
// fabric: a live pointer within one address space, serialized state across
// processes. Failure to serialize is a programming error (a behavior
// lacking WireBehavior has no business on a wire platform), not a runtime
// condition to recover from.
func (c *Context) migration(origin, dest runtime.NodeID) runtime.Message {
	msg := runtime.Message{From: origin, To: dest}
	if !c.platform.wire {
		// Declared size: no codec carries the in-process envelope, so it
		// costs the agent's own WireSize (DefaultAgentSize without one).
		msg.Payload, msg.Size = &envelope{ctx: c, hop: c.hop}, c.wireSize()
		return msg
	}
	wb, ok := c.behavior.(WireBehavior)
	if !ok {
		panic(fmt.Sprintf("agent %v: behavior %T cannot migrate over a serializing fabric", c.id, c.behavior))
	}
	state, err := wb.MarshalWire()
	if err != nil {
		panic(fmt.Sprintf("agent %v: marshal for migration: %v", c.id, err))
	}
	msg.Payload = &WireEnvelope{ID: c.id, Hop: c.hop, State: state}
	return msg
}

// Send transmits a payload to the server process at node to (paying network
// latency).
func (c *Context) Send(to runtime.NodeID, payload any) {
	if c.state != stateActive {
		return
	}
	c.platform.net.Send(runtime.Message{From: c.node, To: to, Payload: payload})
}

// SendToAgent transmits a payload to another agent believed to be at node to.
func (c *Context) SendToAgent(to runtime.NodeID, target ID, payload any) {
	if c.state != stateActive {
		return
	}
	c.platform.SendToAgent(c.node, to, target, payload)
}

// Dispose terminates the agent (paper Algorithm 1's final "dispose").
func (c *Context) Dispose() {
	if c.state != stateActive {
		return
	}
	p := c.platform
	p.places[c.node].removeAgent(c.id)
	c.state = stateDisposed
	p.stats.AgentsDisposed++
	p.record(c.node, c.id, trace.AgentDisposed, "")
}

// SendToServer lets non-agent code (a server) message another node's server
// through the same accounting path. It exists so servers do not need their
// own network facade.
func (p *Platform) SendToServer(from, to runtime.NodeID, payload any) {
	p.net.Send(runtime.Message{From: from, To: to, Payload: payload})
}

// SendToAgent lets a server reply to an agent at a (node, ID) address.
func (p *Platform) SendToAgent(from, to runtime.NodeID, target ID, payload any) {
	p.net.Send(runtime.Message{From: from, To: to, Payload: &AgentMsg{Target: target, Payload: payload}})
}
