// Package agent emulates a mobile-agent platform (the role IBM Aglets plays
// in the paper's prototype) on top of the simulated network.
//
// Go has no code mobility, so "migration" here is state mobility: an agent
// is a Go value implementing Behavior. Over the in-memory simulated fabric
// the value moves between places directly, with a modelled wire size for
// traffic accounting; over a serializing fabric (runtime.WireFabric — the
// live TCP deployment, where each place is its own OS process) the behavior
// is encoded via its WireBehavior hook, shipped as bytes, and reconstructed
// by the destination's ThawWire hook. Either way the protocol layer
// observes the same thing: an agent executes at one place at a time,
// interacts with the co-located server at memory speed, pays network
// latency to move, and can fail to migrate when the destination is down.
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
func (id ID) String() string { return fmt.Sprintf("A%d.%d", id.Home, id.Seq) }

// Behavior is the agent's program. All hooks run on the simulator's event
// loop; they may freely call Context methods, including MigrateTo and
// Dispose, from inside any hook.
type Behavior interface {
	// OnArrive runs when the agent is activated at a place: once at
	// creation on its home node, then after every successful migration.
	OnArrive(ctx *Context)
	// OnMigrateFailed runs at the origin place when a migration to dest
	// could not complete within the platform's migration timeout. The
	// agent is active again at its origin.
	OnMigrateFailed(ctx *Context, dest runtime.NodeID)
	// OnMessage delivers a network message addressed to this agent.
	OnMessage(ctx *Context, from runtime.NodeID, payload any)
	// OnLocalEvent delivers a zero-latency notification from the
	// co-located server (e.g. "locking list changed").
	OnLocalEvent(ctx *Context, ev any)
}

// WireSizer lets a behavior report its modelled serialized size in bytes;
// migrations of agents without it are accounted at DefaultAgentSize.
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
	AgentsRegenerated   int // respawned from a checkpoint after being lost
	MigrationsStarted   int
	MigrationsCompleted int
	MigrationsFailed    int // timed out, agent re-activated at origin
	MigrationsRefused   int // envelope arrived after the origin timed out
	AgentMsgsDelivered  int
	AgentMsgsDropped    int
	StaleAcksIgnored    int // acks for an older hop than the pending migration
}

// Config carries platform tuning knobs.
type Config struct {
	// MigrationTimeout is how long the origin waits for a migration to
	// land before re-activating the agent locally (paper §2: "if a mobile
	// agent cannot migrate to a replicated server host after certain
	// amount of time, the protocol assumes that the replica process at
	// the host has temporarily failed").
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
	// OnDeparted, if non-nil, runs at the origin when a wire migration is
	// acknowledged by the destination — the moment the origin knows its
	// copy of the agent is dead weight and any local bookkeeping for the
	// in-flight agent can be dropped. b is the copy that left: when a
	// redial reorders frames the agent can be back, thawed into a new
	// behavior, before the ack for its departure arrives.
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
// or the live TCP fabric; the platform is agnostic.
type Platform struct {
	net    runtime.Fabric
	eng    runtime.Engine
	cfg    Config
	wire   bool // fabric serializes: migrate as WireEnvelope, not pointers
	places map[runtime.NodeID]*Place
	// pending tracks in-flight migrations by agent ID; the destination
	// place removes the entry when the envelope lands, the timeout fires
	// only if it is still present.
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

// envelope carries a live behavior pointer between places that share one
// address space (the simulated fabric).
type envelope struct {
	id       ID
	behavior Behavior
}

func (envelope) Kind() string { return "agent-migrate" }

// WireEnvelope carries a serialized agent between places in different
// processes. Same accounting kind as envelope: it is the same migration,
// just physically encoded. Hop is the agent's migration count, carried so
// acknowledgements are sequenced per agent (DESIGN.md invariant 13): a
// re-ack for a stale duplicate envelope can then never clear a newer
// pending migration at a revisited origin.
type WireEnvelope struct {
	ID    ID
	Hop   uint64
	State []byte
}

// Kind implements runtime.Kinder.
func (*WireEnvelope) Kind() string { return "agent-migrate" }

// MigrateAck tells a wire migration's origin that the agent landed. Over
// the shared-memory fabric the destination clears the origin's pending
// entry directly; across processes this message does that job. The ack is
// cumulative: it covers the named hop and every earlier one, so a
// reordered or repeated ack still clears exactly the right pending entry.
type MigrateAck struct {
	ID  ID
	Hop uint64
}

// Kind implements runtime.Kinder.
func (*MigrateAck) Kind() string { return "agent-migrate-ack" }

// migrateAckSize is the modelled wire size of a MigrateAck.
const migrateAckSize = 24

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
	if wf, ok := net.(runtime.WireFabric); ok {
		p.wire = wf.WireDelivery()
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
			pl.receiveWire(msg.From, payload)
		case *MigrateAck:
			p.migrateAcked(payload.ID, payload.Hop)
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

// Spawn creates and activates an agent at its home node, invoking OnArrive.
func (p *Platform) Spawn(home runtime.NodeID, b Behavior) *Context {
	pl := p.places[home]
	if pl == nil {
		panic(fmt.Sprintf("agent: spawning on unhosted node %d", home))
	}
	p.seq++
	ctx := &Context{
		platform: p,
		behavior: b,
		id:       ID{Home: home, Born: int64(p.eng.Now()) + p.bornBase, Seq: p.seq},
		node:     home,
	}
	pl.addAgent(ctx)
	p.stats.AgentsCreated++
	p.cfg.Trace.Addf(int64(p.eng.Now()), int(home), ctx.id.String(), trace.AgentCreated, "")
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
	p.cfg.Trace.Addf(int64(p.eng.Now()), int(home), id.String(), trace.AgentRegen, "")
	b.OnArrive(ctx)
	return ctx
}

// Casualty is an agent killed by a host crash: its identity plus the
// behavior value that died with it (callers regenerate from checkpoints, not
// from the dead behavior, but the value is useful for bookkeeping).
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
// decides each agent's fate: regenerate it from a checkpoint (no death
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
		p.cfg.Trace.Addf(int64(p.eng.Now()), int(node), id.String(), trace.AgentDied, "host crashed")
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
// the behavior, activate it, and acknowledge the origin. Duplicate
// deliveries (a retransmitted envelope racing its own ack) are refused —
// the resident incarnation wins — but re-acked, since the origin clearly
// missed the first ack. An ack leaves at once in its own frame: it never
// waits, so on a healthy connection it cannot trail the agent's own return.
func (pl *Place) receiveWire(from runtime.NodeID, env *WireEnvelope) {
	p := pl.platform
	ack := func() {
		p.net.Send(runtime.Message{From: pl.node, To: from, Payload: &MigrateAck{ID: env.ID, Hop: env.Hop}, Size: migrateAckSize})
	}
	if _, live := pl.agents[env.ID]; live {
		p.stats.MigrationsRefused++
		ack()
		return
	}
	if p.cfg.ThawWire == nil {
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
	p.cfg.Trace.Addf(int64(p.eng.Now()), int(pl.node), env.ID.String(), trace.AgentArrived, "")
	ack()
	b.OnArrive(ctx)
}

// migrateAcked closes out a wire migration at the origin: the destination
// has the agent, so the origin's copy is retired. If the migration timeout
// already fired (the ack was slow), the locally re-activated copy stands —
// the documented duplicate-agent hazard of at-least-once migration, kept
// rare by setting MigrationTimeout well above the fabric's retry horizon.
//
// Acks are cumulative per agent (invariant 13): hop covers every migration
// up to and including it, so an ack at least as new as the pending entry
// clears it, while a stale re-ack — the destination re-acknowledging a
// duplicate envelope from an earlier visit — is inert instead of falsely
// retiring a newer in-flight migration.
func (p *Platform) migrateAcked(id ID, hop uint64) {
	pm, ok := p.pending[id]
	if !ok {
		return
	}
	if hop < pm.hop {
		p.stats.StaleAcksIgnored++
		return
	}
	delete(p.pending, id)
	pm.timer.Cancel()
	pm.ctx.state = stateDeparted
	if p.cfg.OnDeparted != nil {
		p.cfg.OnDeparted(id, pm.ctx.behavior)
	}
}

// receive lands a migrating agent.
func (pl *Place) receive(env *envelope) {
	p := pl.platform
	pm, ok := p.pending[env.id]
	if !ok {
		// The origin already timed out and re-activated the agent (or
		// declared it dead); refuse the late arrival.
		p.stats.MigrationsRefused++
		return
	}
	delete(p.pending, env.id)
	pm.timer.Cancel()
	ctx := pm.ctx
	ctx.node = pl.node
	ctx.state = stateActive
	pl.addAgent(ctx)
	p.stats.MigrationsCompleted++
	p.cfg.Trace.Addf(int64(p.eng.Now()), int(pl.node), ctx.id.String(), trace.AgentArrived, "")
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
	stateDeparted // wire migration acked: the live copy is elsewhere
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
// at the origin after the platform's migration timeout and the agent is
// active at the origin again.
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
	p.cfg.Trace.Addf(int64(p.eng.Now()), int(origin), c.id.String(), trace.AgentMigrate, "-> S%d", dest)

	c.hop++
	timer := p.eng.AfterFunc(p.cfg.MigrationTimeout, func() {
		pm, ok := p.pending[c.id]
		if !ok {
			return // landed in time
		}
		delete(p.pending, c.id)
		// Re-activate at the origin. If the origin itself crashed while
		// the agent was in transit, the agent is lost: no place can take
		// it back. The lost handler may claim it for regeneration;
		// otherwise death notices flow as for any other death.
		if p.net.Down(origin) {
			c.state = stateDead
			p.stats.AgentsKilled++
			p.cfg.Trace.Addf(int64(p.eng.Now()), int(origin), c.id.String(), trace.AgentDied, "origin crashed during failed migration")
			if p.cfg.LostHandler != nil && p.cfg.LostHandler(c.id, c.behavior) {
				return
			}
			p.AnnounceDeaths([]ID{c.id})
			return
		}
		c.node = origin
		c.state = stateActive
		p.places[origin].addAgent(c)
		p.stats.MigrationsFailed++
		p.cfg.Trace.Addf(int64(p.eng.Now()), int(origin), c.id.String(), trace.AgentBlocked, "dest S%d unreachable", pm.dest)
		c.behavior.OnMigrateFailed(c, pm.dest)
	})
	p.pending[c.id] = &pendingMigration{ctx: c, dest: dest, hop: c.hop, timer: timer}
	payload, size := c.migrationPayload()
	p.net.Send(runtime.Message{
		From:    origin,
		To:      dest,
		Payload: payload,
		Size:    size,
	})
}

// migrationPayload picks the migration encoding for the platform's fabric:
// a live pointer within one address space, serialized state across
// processes. Failure to serialize is a programming error (a behavior
// lacking WireBehavior has no business on a wire platform), not a runtime
// condition to recover from.
func (c *Context) migrationPayload() (any, int) {
	if !c.platform.wire {
		return &envelope{id: c.id, behavior: c.behavior}, c.wireSize()
	}
	wb, ok := c.behavior.(WireBehavior)
	if !ok {
		panic(fmt.Sprintf("agent %v: behavior %T cannot migrate over a serializing fabric", c.id, c.behavior))
	}
	state, err := wb.MarshalWire()
	if err != nil {
		panic(fmt.Sprintf("agent %v: marshal for migration: %v", c.id, err))
	}
	return &WireEnvelope{ID: c.id, Hop: c.hop, State: state}, len(state)
}

// Send transmits a payload to the server process at node to (paying network
// latency). size is the modelled wire size.
func (c *Context) Send(to runtime.NodeID, payload any, size int) {
	if c.state != stateActive {
		return
	}
	c.platform.net.Send(runtime.Message{From: c.node, To: to, Payload: payload, Size: size})
}

// SendToAgent transmits a payload to another agent believed to be at node to.
func (c *Context) SendToAgent(to runtime.NodeID, target ID, payload any, size int) {
	if c.state != stateActive {
		return
	}
	c.platform.net.Send(runtime.Message{
		From: c.node, To: to,
		Payload: &AgentMsg{Target: target, Payload: payload},
		Size:    size,
	})
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
	p.cfg.Trace.Addf(int64(p.eng.Now()), int(c.node), c.id.String(), trace.AgentDisposed, "")
}

// SendToServer lets non-agent code (a server) message another node's server
// through the same accounting path. It exists so servers do not need their
// own network facade.
func (p *Platform) SendToServer(from, to runtime.NodeID, payload any, size int) {
	p.net.Send(runtime.Message{From: from, To: to, Payload: payload, Size: size})
}

// SendToAgent lets a server reply to an agent at a (node, ID) address.
func (p *Platform) SendToAgent(from, to runtime.NodeID, target ID, payload any, size int) {
	p.net.Send(runtime.Message{
		From: from, To: to,
		Payload: &AgentMsg{Target: target, Payload: payload},
		Size:    size,
	})
}
