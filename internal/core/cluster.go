package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/agent"
	"repro/internal/disk"
	"repro/internal/durable"
	"repro/internal/metrics"
	"repro/internal/quorum"
	"repro/internal/reliable"
	"repro/internal/replica"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wal"
)

// Config assembles a MARP deployment over a runtime engine and fabric. It
// carries only protocol knobs: the engine (simulated or live), the network
// (topology, latency, fault model — or real sockets), and the seed all
// belong to whoever builds the engine (internal/desengine,
// internal/runtime/live).
type Config struct {
	// N is the number of replicated servers (IDs 1..N).
	N int
	// Local limits which of the N servers this cluster instance hosts. In
	// a multi-process deployment each process hosts one replica and lists
	// it here; nil hosts all N in-process (the simulated deployment).
	Local []runtime.NodeID
	// Votes assigns per-server vote weights (Gifford's weighted voting).
	// Nil gives every server one vote — the paper's majority scheme. The
	// update permission then requires heading servers holding more than
	// half the total votes, and UPDATE acknowledgements are weighted the
	// same way.
	Votes map[runtime.NodeID]int
	// Shards partitions the key space into this many independent locking
	// domains (default 1 — the paper's single-object system). Keys map to
	// shards by hash (internal/shard); each shard has its own Locking
	// Lists, sequence space, and quorums, and agents visit only the
	// replica group owning their keys.
	Shards int
	// GroupSize is the replica-group size per shard, chosen by rendezvous
	// hashing over the N servers. Zero (or >= N) replicates every shard on
	// every server — full replication.
	GroupSize int
	// Geometry selects the quorum construction for every shard:
	// quorum.GeomMajority (default), GeomGrid, or GeomTree. Grid and tree
	// geometries require Votes to be nil (they are structural, not
	// weighted).
	Geometry quorum.Geometry

	// BatchMaxRequests dispatches an agent once this many requests are
	// pending at a server (paper §3.2: "after a pre-defined number of
	// requests have been received or periodically"). Default 1.
	BatchMaxRequests int
	// BatchMaxDelay dispatches a partial batch after this delay. Zero
	// dispatches every Submit call immediately.
	BatchMaxDelay time.Duration

	// MigrationTimeout bounds how long an agent migration may take before
	// the origin declares it failed. Must exceed the worst-case one-way
	// latency. Default 300ms. Unused on a wire fabric (see Reliable).
	MigrationTimeout time.Duration
	// DeathNoticeDelay is the failure-detection latency for dead agents.
	// Default 100ms.
	DeathNoticeDelay time.Duration
	// ClaimTimeout bounds how long a claim waits for acknowledgements.
	// Default 1s.
	ClaimTimeout time.Duration
	// RetryInterval is a parked agent's re-probe period (the paper's
	// "next round"). Default 250ms.
	RetryInterval time.Duration
	// RetryBackoff is the randomized delay before re-evaluating after an
	// aborted claim. Default 50ms.
	RetryBackoff time.Duration

	// DisableInfoSharing turns off server-mediated locking-information
	// exchange (ablation A1).
	DisableInfoSharing bool
	// RandomItinerary makes agents visit servers in random order instead
	// of cheapest-first (ablation A2).
	RandomItinerary bool

	// Reliable runs a simulated fabric under the ack/retransmit layer of
	// internal/reliable: off models the paper's lossless channels (F2–A10),
	// on is required whenever a fault model injects loss. A wire fabric
	// (runtime.WireFabric) always runs on the layer, whatever this says.
	Reliable bool
	// RetransmitBase is the reliable layer's first-retry delay on a link
	// that has not measured its round trip yet, and four times the longest
	// a receiver holds an acknowledgement (default
	// reliable.DefaultConfig.Base, 20 ms; reliable.WireConfig's 160 ms on
	// a wire fabric). Once a link has a sample, its measured timeout
	// replaces it.
	RetransmitBase time.Duration
	// RetransmitAttempts caps transmissions per message, and with them how
	// long a send to a dead peer takes to be given up (default
	// reliable.DefaultConfig.Attempts, 5; reliable.WireConfig's 3 on a
	// wire fabric).
	RetransmitAttempts int
	// RegenerateAgents makes the cluster freeze an agent lost to a host
	// crash (its protocol state, WireState, as it died) and regenerate it
	// from that state under its original ID — the classic answer to the
	// mobile-agent single-point-of-failure. Without it, lost agents'
	// requests fail as in the seed behaviour.
	RegenerateAgents bool

	// Durability, if non-nil, makes every locally hosted replica durable:
	// its store, locking state, and reliable-delivery endpoint are
	// journaled to a per-node write-ahead log, and Recover restarts a
	// crashed node from its log instead of from nothing. Off by default so
	// baseline runs touch no storage path and stay byte-identical.
	Durability *DurabilityConfig

	// OnGrant, if non-nil, observes every grant change in addition to the
	// built-in referee. Cross-engine tests use it to assemble a global
	// single-claimant oracle spanning several cluster processes.
	OnGrant func(server runtime.NodeID, shrd int, txn agent.ID)

	// Trace, if non-nil, records the full protocol timeline.
	Trace *trace.Log
}

// DurabilityConfig selects stable storage for the cluster's replicas.
type DurabilityConfig struct {
	// Backend returns node id's stable-storage backend: disk.NewFS for a
	// live data dir, disk.NewMem for deterministic simulation. Called once
	// per local node at construction; the cluster keeps the backend for
	// crash/recover cycles.
	Backend func(id runtime.NodeID) disk.Backend
	// Policy is the fsync policy (default wal.PolicyCommit).
	Policy wal.Policy
	// SegmentBytes and CompactEvery tune the journal (see durable.Options).
	SegmentBytes int
	CompactEvery int
	// GroupCommitDelay enables WAL group commit: commit barriers park for
	// up to this long so one fsync covers every barrier that accumulated,
	// while the send gate dams the node's outbound messages until the
	// covering fsync lands (invariant 11 is preserved wholesale). Zero —
	// the default, and the only value the DES engine uses — keeps the
	// synchronous fsync-per-barrier path.
	GroupCommitDelay time.Duration
}

func (c *Config) fill() error {
	if c.N < 1 {
		return fmt.Errorf("core: config needs N >= 1, got %d", c.N)
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.BatchMaxRequests <= 0 {
		c.BatchMaxRequests = 1
	}
	if c.MigrationTimeout <= 0 {
		c.MigrationTimeout = 300 * time.Millisecond
	}
	if c.DeathNoticeDelay <= 0 {
		c.DeathNoticeDelay = 100 * time.Millisecond
	}
	if c.ClaimTimeout <= 0 {
		c.ClaimTimeout = time.Second
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 250 * time.Millisecond
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	return nil
}

// Cluster is a fully assembled MARP system: mobile-agent-enabled
// replicated servers over a runtime fabric, with client entry points and
// correctness oracles. It is the package's public face; examples, tests and
// the benchmark harness all drive one of these.
//
// A Cluster never sees the concrete engine: under simulation it hosts all N
// replicas in one process on the deterministic event loop; in a live
// deployment each process hosts one replica (Config.Local) and the same
// code runs on wall-clock timers with agents migrating over TCP.
type Cluster struct {
	cfg      Config
	eng      runtime.Engine
	base     runtime.Fabric  // the engine's raw fabric (capability surface)
	fabric   runtime.Fabric  // what the protocol layers send on
	gate     *sendGate       // non-nil iff group commit is enabled
	rel      *reliable.Layer // non-nil iff cfg.Reliable or a wire fabric
	platform *agent.Platform
	servers  map[runtime.NodeID]*replica.Server // locally hosted replicas
	nodes    []runtime.NodeID                   // all replicas, local or not
	local    map[runtime.NodeID]bool
	referee  *Referee
	backends map[runtime.NodeID]disk.Backend // durability only
	journals map[runtime.NodeID]*durable.Journal

	votes       quorum.Assignment
	shards      int
	groups      [][]runtime.NodeID  // replica group per shard, ascending
	assigns     []quorum.Assignment // quorum geometry per shard
	batches     map[runtime.NodeID]*batch
	outcomes    []Outcome
	done        map[agent.ID]int // agent -> index into outcomes, for dedup
	ledgers     map[runtime.NodeID]*ledger
	paced       bool // live fabric: launches are spaced by dispatchGap
	outstanding int
	regenerated int

	// active is what loseAgent needs to account for an agent that dies
	// HERE (fail it, or freeze and regenerate it), so it holds an agent
	// only while this process hosts it or waits for its migration to land.
	// Who enters: launch at the home, thawWire at every node the agent
	// arrives at over the wire, scheduleRegeneration for the reborn copy.
	// Who deletes, when: finish where the agent finishes; departed when the
	// fabric reports the migration's envelope delivered (wire fabrics — a
	// migration given up re-activates the agent here and keeps its entry);
	// intercept at the home when the outcome arrives; loseAgent when it
	// dies here. marp.agent.tracked reads its size.
	active map[agent.ID]*UpdateAgent

	// Ops plane (ops.go): the metric registry every subsystem reports
	// into, plus the typed instruments hot paths observe directly.
	metrics   *metrics.Registry
	mWalFsync *metrics.Histogram
}

type batch struct {
	reqs  []Request
	timer runtime.Timer
	// Dispatch pacing (see dispatchGap): agents built but not yet launched,
	// oldest first, the launches the home may make at once, the time that
	// count was true, and the timer that launches the next held agent.
	held   []*UpdateAgent
	tokens int
	stamp  runtime.Time
	pacer  runtime.Timer
}

// dispatchGap spaces the agents one home launches on a live (wire-delivery)
// fabric: at most one per gap, the rest wait their turn in submission order.
// It exists because of the benchmark, not the protocol, and it costs: a home
// cannot sustain more than 1250 launches a second. bench/live.go polls for
// commits every millisecond and sizes its closed-loop schedule for at most
// 4050 commits/s (bench/bench_smoke_test.go, a test that must keep passing:
// 5000); with the gone set bounded, three replicas on loopback commit in
// 0.35 ms, every request of the closed loop finishes inside one poll
// period, the run completes 5800 commits/s and exits "schedule exhausted" —
// and a change that claims a gain may not edit bench/. A home earns one
// launch per 800 µs and may save up dispatchBurst of them, so a burst of
// that size leaves at once (the batch-injected live experiments A8–A10 stay
// unpaced) while ten seconds of sustained load from three homes cannot pass
// 37 500 + 3·64 launches: the commits/s the benchmark prints for
// live-closed is this ceiling. The open loop (33 writes/s and home) never
// waits. Delete both, and pace below, in the change after the benchmark's
// closed-loop generator is resized (ROADMAP.md, CHANGES.md PR 14).
const (
	dispatchGap   = 800 * time.Microsecond
	dispatchBurst = 64
)

// ledger is what lets a locally hosted home raise its gone-set watermark:
// the agents this cluster dispatched for it that the watermark does not
// cover yet, in dispatch order, and the Born of the first one (the start of
// this cluster's era — agents an earlier incarnation of the home dispatched
// lie below it and are never covered from here). It is volatile on purpose:
// a home that restarts cannot account for what it dispatched before, so it
// starts a new era above it instead (DESIGN.md invariant 16).
type ledger struct {
	since   int64
	pending []agent.ID
	covered uint64 // how many agents of the era the watermark covers so far
}

// OutcomeMsg carries a finished agent's Outcome back to its home node in a
// multi-process deployment. Within one process finish() records outcomes
// directly and this message never hits the fabric.
//
// When the home replicates a shard the agent committed to, the report is
// also the home's COMMIT: Commit is the message every other target got, and
// the home applies it before it records the outcome, so a commit costs the
// paper's n−1 COMMITs and nothing more. Its Txn is the outcome's agent and
// its origin the report's sender; the wire carries only its updates.
type OutcomeMsg struct {
	Outcome Outcome
	Commit  *replica.CommitMsg // nil: the home is not a COMMIT target
}

// Kind implements runtime.Kinder: a report that carries the home's COMMIT
// is that COMMIT.
func (m *OutcomeMsg) Kind() string {
	if m.Commit != nil {
		return "commit"
	}
	return "outcome"
}

// NewCluster wires a cluster per cfg onto the given engine and fabric.
func NewCluster(eng runtime.Engine, fab runtime.Fabric, cfg Config) (*Cluster, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	fabric := fab
	// Group commit defers commit-barrier fsyncs; the send gate sits under
	// every other layer (including the reliable layer's retransmissions) so
	// no message a parked barrier justifies escapes before its fsync.
	var gate *sendGate
	if cfg.Durability != nil && cfg.Durability.GroupCommitDelay > 0 {
		gate = newSendGate(fabric)
		fabric = gate
	}
	wire := false
	if wf, ok := fab.(runtime.WireFabric); ok {
		wire = wf.WireDelivery()
	}
	var rel *reliable.Layer
	if cfg.Reliable || wire {
		policy := reliable.Config{}
		if wire {
			policy = reliable.WireConfig
		}
		if cfg.RetransmitBase > 0 {
			policy.Base = cfg.RetransmitBase
		}
		if cfg.RetransmitAttempts > 0 {
			policy.Attempts = cfg.RetransmitAttempts
		}
		rel = reliable.NewLayer(eng, fabric, policy)
		fabric = rel
	}
	c := &Cluster{
		cfg:      cfg,
		eng:      eng,
		base:     fab,
		fabric:   fabric,
		gate:     gate,
		rel:      rel,
		servers:  make(map[runtime.NodeID]*replica.Server),
		local:    make(map[runtime.NodeID]bool),
		batches:  make(map[runtime.NodeID]*batch),
		active:   make(map[agent.ID]*UpdateAgent),
		done:     make(map[agent.ID]int),
		ledgers:  make(map[runtime.NodeID]*ledger),
		backends: make(map[runtime.NodeID]disk.Backend),
		journals: make(map[runtime.NodeID]*durable.Journal),
		paced:    wire,
	}
	c.initMetrics()
	c.platform = agent.NewPlatform(eng, fabric, agent.Config{
		MigrationTimeout: cfg.MigrationTimeout,
		DeathNoticeDelay: cfg.DeathNoticeDelay,
		// Always installed: even without regeneration the cluster must
		// learn about agents lost in transit, or their outcomes would
		// never be recorded and RunUntilDone would wait forever.
		LostHandler: func(id agent.ID, _ agent.Behavior) bool { return c.loseAgent(id) },
		// Wire migration (multi-process fabrics): rebuild arriving agents
		// from their frozen protocol state. Unused over in-memory fabrics.
		ThawWire:   c.thawWire,
		OnDeparted: c.departed,
		Trace:      cfg.Trace,
	})
	for i := 1; i <= cfg.N; i++ {
		c.nodes = append(c.nodes, runtime.NodeID(i))
	}
	if len(cfg.Local) == 0 {
		for _, id := range c.nodes {
			c.local[id] = true
		}
	} else {
		for _, id := range cfg.Local {
			if int(id) < 1 || int(id) > cfg.N {
				return nil, fmt.Errorf("core: local server %d outside 1..%d", id, cfg.N)
			}
			c.local[id] = true
		}
	}
	if cfg.Votes == nil {
		c.votes = quorum.Equal(c.nodes)
	} else {
		for id := range cfg.Votes {
			if int(id) < 1 || int(id) > cfg.N {
				return nil, fmt.Errorf("core: vote assignment names unknown server %d", id)
			}
		}
		for _, id := range c.nodes {
			if cfg.Votes[id] <= 0 {
				return nil, fmt.Errorf("core: server %d needs a positive vote count", id)
			}
		}
		c.votes = quorum.Weighted(cfg.Votes)
	}
	c.shards = cfg.Shards
	if err := c.buildShardMap(); err != nil {
		return nil, err
	}
	c.referee = NewShardedReferee(c.assigns, eng.Now)
	observer := c.referee.OnGrant
	if cfg.OnGrant != nil {
		inner, extra := observer, cfg.OnGrant
		observer = func(server runtime.NodeID, shrd int, txn agent.ID) {
			inner(server, shrd, txn)
			extra(server, shrd, txn)
		}
	}
	for _, id := range c.nodes {
		if !c.local[id] {
			continue
		}
		rcfg := replica.Config{
			Shards:             cfg.Shards,
			Groups:             c.groups,
			Quorums:            c.assigns,
			DisableInfoSharing: cfg.DisableInfoSharing,
			GrantObserver:      observer,
			Intercept:          c.intercept,
			Trace:              cfg.Trace,
		}
		if cfg.Durability != nil {
			b := cfg.Durability.Backend(id)
			j, st, err := durable.Open(b, c.durableOptions())
			if err != nil {
				return nil, fmt.Errorf("core: opening journal for server %d: %w", id, err)
			}
			if gate != nil {
				// Hold fires synchronously on the execution context; the
				// covering fsync lands on the flush goroutine, so Release is
				// injected back onto the engine before the dam opens.
				j.OnBarrier(gate.Hold, func() { eng.Inject(gate.Release) })
			}
			c.backends[id] = b
			c.journals[id] = j
			c.wireRelJournal(id, j, st)
			rcfg.Journal = j
			rcfg.Restore = st
			if st != nil {
				// The engine's clock restarted at zero; keep new agent IDs
				// clear of everything the recovered state remembers.
				c.platform.AdvanceBirth(st.BirthFloor() + 1)
			}
		}
		c.servers[id] = replica.New(eng, id, c.nodes, fabric, c.platform, rcfg)
		if rcfg.Restore != nil {
			// The node has history: pull what it missed while down. Deferred
			// so the sends land after every node has attached to the fabric.
			srv := c.servers[id]
			eng.AfterFunc(0, srv.RequestSync)
		}
	}
	c.registerMetrics()
	return c, nil
}

func (c *Cluster) durableOptions() durable.Options {
	d := c.cfg.Durability
	return durable.Options{
		Policy:           d.Policy,
		SegmentBytes:     d.SegmentBytes,
		CompactEvery:     d.CompactEvery,
		Shards:           c.cfg.Shards,
		GroupCommitDelay: d.GroupCommitDelay,
		OnSync:           func(d time.Duration) { c.mWalFsync.Observe(d.Seconds()) },
	}
}

// buildShardMap derives every shard's replica group (rendezvous hashing
// over the N servers) and quorum assignment (per Geometry) from the config.
// With one shard, full replication and majority geometry this reduces
// exactly to the pre-sharding system.
func (c *Cluster) buildShardMap() error {
	c.groups = make([][]runtime.NodeID, c.shards)
	c.assigns = make([]quorum.Assignment, c.shards)
	for sh := 0; sh < c.shards; sh++ {
		group := shard.Group(sh, c.nodes, c.cfg.GroupSize)
		geom := c.cfg.Geometry
		var a quorum.Assignment
		var err error
		switch {
		case geom == "" || geom == quorum.GeomMajority:
			if c.cfg.Votes == nil || len(group) == len(c.nodes) {
				a, err = quorum.Build(quorum.GeomMajority, group, c.subVotes(group))
			} else {
				return fmt.Errorf("core: weighted votes require full replication (GroupSize 0), got group size %d", len(group))
			}
		default:
			if c.cfg.Votes != nil {
				return fmt.Errorf("core: geometry %q cannot be combined with weighted votes", geom)
			}
			a, err = quorum.Build(geom, group, nil)
		}
		if err != nil {
			return fmt.Errorf("core: shard %d: %w", sh, err)
		}
		c.groups[sh] = group
		c.assigns[sh] = a
	}
	return nil
}

// subVotes restricts the configured vote map to the group (nil in, nil out).
func (c *Cluster) subVotes(group []runtime.NodeID) map[runtime.NodeID]int {
	if c.cfg.Votes == nil {
		return nil
	}
	sub := make(map[runtime.NodeID]int, len(group))
	for _, id := range group {
		sub[id] = c.cfg.Votes[id]
	}
	return sub
}

// shardsOf returns the distinct shards of the batch's keys, ascending.
func (c *Cluster) shardsOf(reqs []Request) []int {
	out := make([]int, 0, len(reqs))
	for _, r := range reqs {
		out = append(out, shard.Of(r.Key, c.shards))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// groupUnion returns the union of the shards' replica groups, ascending.
func (c *Cluster) groupUnion(shards []int) []runtime.NodeID {
	if len(shards) == 1 {
		return slices.Clone(c.groups[shards[0]])
	}
	n := 0
	for _, sh := range shards {
		n += len(c.groups[sh])
	}
	out := make([]runtime.NodeID, 0, n)
	for _, sh := range shards {
		out = append(out, c.groups[sh]...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// lockTableFor builds an agent's lock table scoped to the given shards.
func (c *Cluster) lockTableFor(shards []int) *LockTable {
	views := make([]ShardView, len(shards))
	for i, sh := range shards {
		views[i] = ShardView{Shard: sh, Group: c.groups[sh], Votes: c.assigns[sh]}
	}
	return NewShardedLockTable(c.cfg.N, views)
}

// wireRelJournal connects node id's journal to the reliable layer (when one
// is active): endpoint mutations are journaled, compaction snapshots carry
// the port state, and recovered state is reinstated.
func (c *Cluster) wireRelJournal(id runtime.NodeID, j *durable.Journal, st *durable.State) {
	if c.rel == nil {
		return
	}
	c.rel.SetJournal(id, j)
	if st != nil {
		c.rel.Restore(id, st.RelNextSeq, st.RelSeen)
	}
	rel := c.rel
	j.AddSource(func(ds *durable.State) {
		ds.RelNextSeq, ds.RelSeen = rel.PortState(id)
	})
}

// Engine returns the runtime engine the cluster is scheduled on.
func (c *Cluster) Engine() runtime.Engine { return c.eng }

// Now returns the engine's current time.
func (c *Cluster) Now() runtime.Time { return c.eng.Now() }

// NetStats returns the fabric's traffic counters (zero counters when the
// fabric keeps none).
func (c *Cluster) NetStats() runtime.NetStats {
	if src, ok := c.fabric.(runtime.StatsSource); ok {
		return src.NetStats()
	}
	return runtime.NetStats{}
}

// Platform returns the agent platform.
func (c *Cluster) Platform() *agent.Platform { return c.platform }

// StartAbove keeps new agents' Born and reliable frames' numbers above
// floor (or a higher counter a journal restored). A live node passes the
// wall clock, above its previous run's numbers that the peers' gone-set
// watermarks and receive windows hold; a link's first frame lifts those.
func (c *Cluster) StartAbove(floor int64) {
	c.platform.AdvanceBirth(floor)
	if c.rel == nil {
		return
	}
	for id := range c.servers {
		c.rel.Restore(id, uint64(floor), nil)
	}
}

// intercept consumes cluster-level (non-Algorithm 2) messages delivered to
// a local server: outcome reports from agents that finished away from home.
// A report that carries the home's COMMIT is applied as one first, through
// the path a COMMIT takes, so the watermark the outcome raises finds the
// agent gone. Both steps are idempotent, so a report delivered twice
// changes nothing the second time.
func (c *Cluster) intercept(msg runtime.Message) bool {
	om, ok := msg.Payload.(*OutcomeMsg)
	if !ok {
		return false
	}
	o := om.Outcome
	if om.Commit != nil {
		c.servers[msg.To].HandleCommitLocal(&replica.CommitMsg{Txn: o.Agent, Origin: msg.From, Updates: om.Commit.Updates})
	}
	delete(c.active, o.Agent)
	if c.local[o.Home] {
		c.recordOutcome(o)
	}
	return true
}

// thawWire implements the agent platform's wire-migration hook: decode the
// frozen protocol state an agent travelled as and rebind it to this
// cluster. The reborn UpdateAgent is tracked as active here so local crash
// handling sees it.
func (c *Cluster) thawWire(id agent.ID, state []byte) (agent.Behavior, error) {
	st, err := DecodeWireState(state)
	if err != nil {
		return nil, err
	}
	ua := thaw(c, st) // st is the decoder's, and no one else's
	c.active[id] = ua
	return ua, nil
}

// departed implements the platform's migration-delivered hook: the agent
// lives at its next host now, and nothing that happens here can lose it.
// Unless it is already back — an acknowledgement can trail the agent's
// return — and the entry is the returned copy's.
func (c *Cluster) departed(id agent.ID, b agent.Behavior) {
	if ua, ok := c.active[id]; ok && agent.Behavior(ua) == b {
		delete(c.active, id)
	}
}

// Server returns the replica at node id.
func (c *Cluster) Server(id runtime.NodeID) *replica.Server { return c.servers[id] }

// Nodes returns the replica IDs 1..N.
func (c *Cluster) Nodes() []runtime.NodeID {
	out := make([]runtime.NodeID, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// Shape is the engine-neutral summary of a cluster's configuration — the
// facts a scenario-bundle header must carry for a replay to rebuild an
// equivalent cluster on the other engine.
type Shape struct {
	N        int
	Shards   int
	Geometry quorum.Geometry
	// Fsync is the durability policy name, empty when the cluster runs
	// volatile.
	Fsync string
	// GroupCommitDelay is the WAL group-commit window (zero = synchronous
	// fsync per barrier).
	GroupCommitDelay time.Duration
}

// Describe reports the cluster's shape.
func (c *Cluster) Describe() Shape {
	s := Shape{N: c.cfg.N, Shards: c.cfg.Shards, Geometry: c.cfg.Geometry}
	if s.Geometry == "" {
		s.Geometry = quorum.GeomMajority
	}
	if d := c.cfg.Durability; d != nil {
		s.Fsync = d.Policy.String()
		s.GroupCommitDelay = d.GroupCommitDelay
	}
	return s
}

// Referee returns the Theorem 2 oracle.
func (c *Cluster) Referee() *Referee { return c.referee }

// Quorums returns every shard's quorum assignment, indexed by shard, whose
// Nodes are the shard's replica group: what one referee spanning several
// processes judges their grants against.
func (c *Cluster) Quorums() []quorum.Assignment { return slices.Clone(c.assigns) }

// Outcomes returns the outcomes of all finished agents so far.
func (c *Cluster) Outcomes() []Outcome {
	out := make([]Outcome, len(c.outcomes))
	copy(out, c.outcomes)
	return out
}

// Outstanding reports how many dispatched agents have not finished.
func (c *Cluster) Outstanding() int { return c.outstanding }

// Submit queues update requests at the given home server, dispatching a
// mobile agent per the batch policy.
func (c *Cluster) Submit(home runtime.NodeID, reqs ...Request) error {
	if c.servers[home] == nil {
		return fmt.Errorf("core: unknown home server %d", home)
	}
	if len(reqs) == 0 {
		return fmt.Errorf("core: empty submission")
	}
	for _, r := range reqs {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	if c.cfg.Trace.Enabled() {
		c.cfg.Trace.Addf(int64(c.eng.Now()), int(home), "", trace.RequestArrived, "%d request(s)", len(reqs))
	}
	b := c.batches[home]
	if b == nil {
		b = &batch{}
		c.batches[home] = b
	}
	b.reqs = append(b.reqs, reqs...)
	switch {
	case len(b.reqs) >= c.cfg.BatchMaxRequests || c.cfg.BatchMaxDelay == 0:
		c.dispatch(home)
	case !b.timer.Active():
		b.timer = c.eng.AfterFunc(c.cfg.BatchMaxDelay, func() { c.dispatch(home) })
	}
	return nil
}

// dispatch ships the pending batch at home as one mobile agent.
func (c *Cluster) dispatch(home runtime.NodeID) {
	b := c.batches[home]
	if b == nil || len(b.reqs) == 0 {
		return
	}
	b.timer.Cancel()
	reqs := b.reqs
	b.reqs = nil
	if c.fabric.Down(home) {
		// The home server crashed before the batch left: the requests
		// are lost with it, like the paper's fail-stop clients-at-server.
		return
	}
	ua := newUpdateAgent(c, home, reqs)
	c.outstanding++
	if !c.paced {
		c.launch(home, ua)
		return
	}
	b.held = append(b.held, ua)
	c.pace(home)
}

// pace launches home's held agents, oldest first, while the home has
// launches saved up, and re-arms itself for the next one it will earn.
func (c *Cluster) pace(home runtime.NodeID) {
	b := c.batches[home]
	now := c.eng.Now()
	if earned := int(now.Sub(b.stamp) / dispatchGap); b.tokens+earned >= dispatchBurst {
		b.tokens, b.stamp = dispatchBurst, now
	} else {
		b.tokens += earned
		b.stamp = b.stamp.Add(time.Duration(earned) * dispatchGap)
	}
	for len(b.held) > 0 && b.tokens > 0 {
		ua := b.held[0]
		b.held = b.held[1:]
		b.tokens--
		c.launch(home, ua)
	}
	if len(b.held) > 0 && !b.pacer.Active() {
		b.pacer = c.eng.AfterFunc(b.stamp.Add(dispatchGap).Sub(now), func() { c.pace(home) })
	}
}

// launch activates a built agent at its home and enters it in the home's
// ledger.
func (c *Cluster) launch(home runtime.NodeID, ua *UpdateAgent) {
	ctx := c.platform.Spawn(home, ua)
	if ua.phase != phaseDone {
		c.active[ctx.ID()] = ua
	}
	l := c.ledgers[home]
	if l == nil {
		l = &ledger{since: ctx.ID().Born}
		c.ledgers[home] = l
	}
	l.pending = append(l.pending, ctx.ID())
	c.advanceWatermark(home)
}

// advanceWatermark raises home's gone-set watermark over the longest prefix
// of its dispatched agents that home's own server already holds as gone: it
// applied their COMMIT, or a death notice or a visiting agent told it. The
// cluster's own record of an outcome is not enough. On the simulator it is
// written the instant an agent commits anywhere, before the COMMIT reaches
// home; a watermark raised then would let home's server drop the winner's
// grant ahead of its update, and the next claimant would read a stale
// sequence number there. Nor is a failed outcome: a home can declare a slow
// migration dead and still hear the commit. An agent that is being
// regenerated, or runs again under its old ID, is not gone anywhere, so the
// watermark waits behind it.
func (c *Cluster) advanceWatermark(home runtime.NodeID) {
	l, srv := c.ledgers[home], c.servers[home]
	if l == nil || srv.Down() {
		return
	}
	n := 0
	for n < len(l.pending) && srv.IsGone(l.pending[n]) {
		n++
	}
	if n == 0 {
		return
	}
	l.covered += uint64(n)
	srv.AdvanceWatermark(agent.Watermark{Home: home, Since: l.since, Upto: agent.After(l.pending[n-1]), Count: l.covered})
	l.pending = l.pending[n:]
}

// finish records a completed agent. at is where the agent finished: when
// its home replica is hosted by another process, the outcome is reported
// there over the fabric — the home cluster owns the outstanding count —
// carrying commit, the home's COMMIT, unless that is nil.
func (c *Cluster) finish(at runtime.NodeID, o Outcome, commit *replica.CommitMsg) {
	delete(c.active, o.Agent)
	if c.local[o.Home] {
		c.recordOutcome(o)
		return
	}
	c.fabric.Send(runtime.Message{From: at, To: o.Home, Payload: &OutcomeMsg{Outcome: o, Commit: commit}})
}

// recordOutcome books a finished agent against this cluster's counters.
// Recording is idempotent per agent: on a live deployment the home can
// declare a slow migration failed (a Failed outcome) and still hear from
// the agent when it commits anyway — the success then replaces the false
// death in place, and the outstanding count never double-decrements.
func (c *Cluster) recordOutcome(o Outcome) {
	if i, ok := c.done[o.Agent]; ok {
		if c.outcomes[i].Failed && !o.Failed {
			c.outcomes[i] = o
		}
		return
	}
	c.done[o.Agent] = len(c.outcomes)
	c.outcomes = append(c.outcomes, o)
	c.outstanding--
	c.advanceWatermark(o.Home)
	if o.Failed {
		return
	}
	if c.cfg.Trace.Enabled() {
		c.cfg.Trace.Addf(int64(c.eng.Now()), int(o.Home), o.Agent.String(), trace.RequestDone,
			"alt=%v att=%v visits=%d", o.LockLatency().Duration(), o.TotalLatency().Duration(), o.Visits)
	}
}

// loseAgent handles the death of an agent incarnation (its host crashed, or
// it was lost in transit when its origin crashed). With regeneration on the
// lost agent is frozen as it died and respawned under its original ID;
// otherwise the loss is recorded as a failed outcome so RunUntilDone does
// not wait for it. Reports whether the loss was claimed for regeneration —
// the caller must then suppress death notices, because a tombstone for the
// reused ID would make every server reject the reborn agent.
func (c *Cluster) loseAgent(id agent.ID) bool {
	ua, ok := c.active[id]
	if !ok {
		return false
	}
	if c.cfg.RegenerateAgents {
		st := ua.Freeze()
		if ua.phase == phaseClaiming {
			// Resume from before the claim and re-run it under the same
			// attempt number (safe: the regeneration delay outlives any
			// stale message of this one).
			st.Attempt--
		}
		c.scheduleRegeneration(id, st, ua)
		return true
	}
	ua.phase = phaseDone
	c.recordOutcome(Outcome{
		Agent:      id,
		Home:       id.Home,
		Requests:   len(ua.reqs),
		Dispatched: ua.dispatched,
		Visits:     ua.visits,
		Retries:    ua.retries,
		Failed:     true,
	})
	delete(c.active, id)
	return false
}

// scheduleRegeneration respawns a lost agent from its frozen state after the
// death-notice delay. The delay is the honest failure-detection latency, and
// it also guarantees any stale in-flight message from the dead incarnation
// (an ABORT carrying the same attempt number, a late ACK) lands before the
// reborn agent can touch a grant — preserving Theorem 2's single-claimant
// argument without new machinery.
func (c *Cluster) scheduleRegeneration(id agent.ID, st WireState, old *UpdateAgent) {
	old.phase = phaseDone
	delete(c.active, id)
	c.eng.AfterFunc(c.cfg.DeathNoticeDelay, func() {
		home := c.regenHome(id)
		if home == runtime.None {
			// Nowhere alive to respawn: the requests fail like any other
			// loss. (Schedules validated by internal/failure keep a
			// majority up, so this is a pathological-schedule path.)
			c.recordOutcome(Outcome{
				Agent:      id,
				Home:       id.Home,
				Requests:   len(st.Requests),
				Dispatched: runtime.Time(st.Dispatched),
				Visits:     st.Visits,
				Retries:    st.Retries,
				Failed:     true,
			})
			return
		}
		na := Thaw(c, st)
		c.active[id] = na
		c.regenerated++
		c.platform.Respawn(home, na, id)
	})
}

// regenHome picks where a regenerated agent resumes: its home server if that
// is up, else the lowest-numbered live server (deterministic).
func (c *Cluster) regenHome(id agent.ID) runtime.NodeID {
	if !c.fabric.Down(id.Home) && c.local[id.Home] {
		return id.Home
	}
	for _, n := range c.nodes {
		if !c.fabric.Down(n) && c.local[n] {
			return n
		}
	}
	return runtime.None
}

// Crash fail-stops the server at id: the network drops its traffic, its
// volatile locking state (and, when the reliable layer is active, its
// unacked sends and receive windows) is lost, and every agent resident there
// dies. Dead agents are frozen and regenerated when
// Config.RegenerateAgents is set; the rest trigger death notices after the
// detection delay.
func (c *Cluster) Crash(id runtime.NodeID) {
	cr, ok := c.base.(runtime.Crasher)
	if !ok || c.servers[id] == nil {
		return // the fabric cannot fail-stop nodes, or the replica is remote
	}
	if c.base.Down(id) {
		return
	}
	cr.SetDown(id, true)
	if c.rel != nil {
		c.rel.Crash(id)
	}
	c.servers[id].Crash()
	if j := c.journals[id]; j != nil {
		// Kill the journal handle (no final sync — this is a crash, not a
		// shutdown) and power-cut the disk model: everything past the last
		// fsync is gone, exactly what Recover must cope with.
		j.Kill()
		c.journals[id] = nil
		if dc, ok := c.backends[id].(disk.Crasher); ok {
			dc.Crash()
		}
	}
	var dead []agent.ID
	for _, cas := range c.platform.TakeResidents(id) {
		if !c.loseAgent(cas.ID) {
			dead = append(dead, cas.ID)
		}
	}
	c.platform.AnnounceDeaths(dead)
}

// Recover restarts a crashed server; it rejoins the network and pulls the
// updates it missed from its peers. With durability configured the node
// first replays its journal — what it committed before the crash comes off
// its own disk, and only the suffix it missed comes from the peers.
func (c *Cluster) Recover(id runtime.NodeID) {
	cr, ok := c.base.(runtime.Crasher)
	if !ok || c.servers[id] == nil {
		return
	}
	if !c.base.Down(id) {
		return
	}
	cr.SetDown(id, false)
	if c.cfg.Durability == nil {
		c.servers[id].Recover()
		return
	}
	j, st, err := durable.Open(c.backends[id], c.durableOptions())
	if err != nil {
		// Fail-stop: a replica whose stable storage will not replay must
		// not rejoin — and in simulation any corruption is a bug.
		panic(fmt.Sprintf("core: recovering server %d: %v", id, err))
	}
	c.journals[id] = j
	if c.gate != nil {
		j.OnBarrier(c.gate.Hold, func() { c.eng.Inject(c.gate.Release) })
	}
	c.wireRelJournal(id, j, st)
	c.servers[id].Restart(j, st)
}

// PartitionNet splits the network into the given groups; nodes in different
// groups cannot exchange messages (failure.Partition events). A no-op when
// the fabric cannot partition. On a live deployment each process must be
// told separately (its fabric filters its own endpoints); the transport
// layer's partition op exists for exactly that fan-out.
func (c *Cluster) PartitionNet(groups ...[]runtime.NodeID) {
	if p, ok := c.base.(runtime.Partitioner); ok {
		p.Partition(groups...)
	}
}

// HealNet removes all partitions and starts an anti-entropy round at every
// live server. The explicit sync matters: a replica that sat in a minority
// partition through a commit round has no sequence gap of its own to notice
// — it missed whole COMMIT broadcasts — so without this pull it would stay
// behind until the next commit happens to reach it.
func (c *Cluster) HealNet() {
	if p, ok := c.base.(runtime.Partitioner); ok {
		p.Heal()
	}
	for _, id := range c.nodes {
		if s := c.servers[id]; s != nil {
			s.RequestSync()
		}
	}
}

// SetLoss sets the dynamic network-wide message-loss level (failure.Lossy
// events). It is a no-op unless the fabric was built with a fault model.
func (c *Cluster) SetLoss(p float64) {
	if lc, ok := c.base.(runtime.LossController); ok {
		lc.SetExtraLoss(p)
	}
}

// Regenerated reports how many lost agents were respawned.
func (c *Cluster) Regenerated() int { return c.regenerated }

// JournalStats sums the WAL counters across all locally hosted journals.
func (c *Cluster) JournalStats() wal.Stats {
	var total wal.Stats
	for _, j := range c.journals {
		if j == nil {
			continue
		}
		s := j.Stats()
		total.Appends += s.Appends
		total.AppendedBytes += s.AppendedBytes
		total.Syncs += s.Syncs
		total.Rotations += s.Rotations
		total.Snapshots += s.Snapshots
		total.Replayed += s.Replayed
		total.TailDropped += s.TailDropped
		total.GroupBatches += s.GroupBatches
		total.GroupBarriers += s.GroupBarriers
	}
	return total
}

// DiskStats sums the backend I/O counters across all locally hosted nodes.
func (c *Cluster) DiskStats() disk.Stats {
	var total disk.Stats
	for _, b := range c.backends {
		if src, ok := b.(disk.StatsSource); ok {
			s := src.Stats()
			total.Writes += s.Writes
			total.BytesWritten += s.BytesWritten
			total.Syncs += s.Syncs
			total.SyncTime += s.SyncTime
		}
	}
	return total
}

// CloseJournals flushes and closes every open journal — the graceful
// shutdown path (live nodes call it on SIGTERM; tests call it before
// re-opening a data dir). Every attachment point is detached before the
// close: a message handled after this call (the live fabric drains after
// the journals close) must fall back to volatile behaviour, not append to
// a closed log.
func (c *Cluster) CloseJournals() error {
	var first error
	for id, j := range c.journals {
		if j == nil {
			continue
		}
		if s := c.servers[id]; s != nil {
			s.DetachJournal()
		}
		if c.rel != nil {
			c.rel.SetJournal(id, nil)
		}
		if err := j.Close(); err != nil && first == nil {
			first = err
		}
		c.journals[id] = nil
	}
	return first
}

// ReliableStats returns the ack/retransmit layer's counters (the zero value
// when the cluster runs on raw channels).
func (c *Cluster) ReliableStats() reliable.Stats {
	if c.rel == nil {
		return reliable.Stats{}
	}
	return c.rel.Stats()
}

// Read serves a read from node's local copy — the paper's fast read path.
func (c *Cluster) Read(node runtime.NodeID, key string) (store.Value, bool) {
	s := c.servers[node]
	if s == nil || s.Down() {
		return store.Value{}, false
	}
	return s.LocalRead(key)
}

// ReadQuorumAsync starts a consistent read coordinated by home (read quorum
// = majority; the one-copy-serializable extension) and invokes done when a
// majority has answered. The callback runs on the simulation loop.
func (c *Cluster) ReadQuorumAsync(home runtime.NodeID, key string, done func(store.Value, bool)) error {
	s := c.servers[home]
	if s == nil {
		return fmt.Errorf("core: unknown home server %d", home)
	}
	if s.Down() {
		return fmt.Errorf("core: home server %d is down", home)
	}
	s.QuorumRead(key, done)
	return nil
}

// ReadQuorum issues a consistent read and advances the simulation until it
// resolves (or maxVirtual of virtual time passes — e.g. when a majority of
// replicas is unreachable).
func (c *Cluster) ReadQuorum(home runtime.NodeID, key string, maxVirtual time.Duration) (store.Value, bool, error) {
	var (
		val      store.Value
		found    bool
		resolved bool
	)
	if err := c.ReadQuorumAsync(home, key, func(v store.Value, ok bool) {
		val, found, resolved = v, ok, true
	}); err != nil {
		return store.Value{}, false, err
	}
	switch err := c.eng.Wait(maxVirtual, func() bool { return resolved }); {
	case err == nil:
		return val, found, nil
	case errors.Is(err, runtime.ErrStalled):
		return store.Value{}, false, fmt.Errorf("core: quorum read starved (no events, majority unreachable?)")
	default:
		return store.Value{}, false, fmt.Errorf("core: quorum read timed out after %v", maxVirtual)
	}
}

// RunUntilDone advances the simulation until every dispatched agent has
// finished, failing if that takes more than maxVirtual of simulated time or
// if the event queue drains first (a protocol deadlock).
func (c *Cluster) RunUntilDone(maxVirtual time.Duration) error {
	switch err := c.eng.Wait(maxVirtual, func() bool { return c.outstanding == 0 }); {
	case err == nil:
		return nil
	case errors.Is(err, runtime.ErrStalled):
		return fmt.Errorf("core: event queue drained with %d agents outstanding (deadlock)", c.outstanding)
	default:
		return fmt.Errorf("core: %d agents still outstanding after %v of virtual time", c.outstanding, maxVirtual)
	}
}

// Settle runs the engine d further so in-flight commits and syncs land.
func (c *Cluster) Settle(d time.Duration) { c.eng.Sleep(d) }

// CheckConvergence verifies DESIGN.md invariants 2 and 6 per shard: every
// live member of a shard's replica group holds the identical committed
// update log for that shard (hence identical state).
func (c *Cluster) CheckConvergence() error {
	for sh := 0; sh < c.shards; sh++ {
		var ref []store.Update
		var refNode runtime.NodeID
		for _, id := range c.groups[sh] {
			s := c.servers[id]
			if s == nil || s.Down() {
				continue
			}
			log := s.StoreOf(sh).Log()
			if ref == nil {
				ref, refNode = log, id
				continue
			}
			if len(log) != len(ref) {
				return fmt.Errorf("core: shard %d: server %d has %d updates, server %d has %d", sh, id, len(log), refNode, len(ref))
			}
			for i := range log {
				if log[i] != ref[i] {
					return fmt.Errorf("core: shard %d: server %d log[%d] = %+v, server %d has %+v", sh, id, i, log[i], refNode, ref[i])
				}
			}
		}
	}
	return nil
}
