// Package marp is a Go implementation of MARP — the Mobile Agent enabled
// Replication Protocol of Cao, Chan and Wu, "Achieving Replication
// Consistency Using Cooperating Mobile Agents" (ICPP 2001).
//
// MARP maintains strict consistency across N replicated servers without the
// message storms of conventional quorum protocols: each update request is
// carried by a mobile agent that travels the replicas, enqueues itself in
// their Locking Lists, and wins the update permission when it heads the
// lists of a majority (Majority Consensus Voting). The winner reads the most
// recent copy from its quorum, broadcasts UPDATE, collects a majority of
// acknowledgements, broadcasts COMMIT, and releases. Reads are served by the
// local replica.
//
// The package is a facade over the full system in internal/:
//
//	internal/des      deterministic discrete-event simulator
//	internal/simnet   simulated network (latency models, partitions, costs)
//	internal/agent    mobile-agent platform emulation (state mobility)
//	internal/store    versioned replica store with a committed-update log
//	internal/replica  the replicated server (paper Algorithm 2)
//	internal/core     the mobile agent protocol (paper Algorithm 1) + cluster
//	internal/quorum   vote assignments and quorum arithmetic
//	internal/baseline message-passing comparators (MCV, available-copy, primary)
//	internal/workload request generators (exponential arrivals)
//	internal/metrics  ALT/ATT/PRK aggregation
//	internal/harness  the paper's experiments (Figures 2-4 and more)
//
// Quick start:
//
//	cluster, err := marp.NewCluster(marp.Options{Servers: 5, Seed: 42})
//	if err != nil { ... }
//	cluster.Submit(1, marp.Set("config", "v1"))
//	cluster.Run(time.Minute)
//	v, ok := cluster.Read(3, "config")
//
// Everything runs in deterministic virtual time: Run advances the simulation
// until the submitted updates commit. See the examples/ directory for
// runnable scenarios and cmd/marpbench for the paper's evaluation.
package marp

import (
	"fmt"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/desengine"
	"repro/internal/quorum"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/trace"
)

// NodeID identifies one replicated server (1..Servers).
type NodeID = simnet.NodeID

// Request is a single update request.
type Request = core.Request

// Outcome describes one completed update batch (one agent).
type Outcome = core.Outcome

// Value is a versioned datum read from a replica.
type Value = store.Value

// Set returns a request that overwrites key with val.
func Set(key, val string) Request { return core.Set(key, val) }

// Append returns a read-modify-write request that appends val to the most
// recent committed value of key.
func Append(key, val string) Request { return core.Append(key, val) }

// Latency names a network environment.
type Latency string

// The built-in latency environments.
const (
	// LAN models a local network of workstations (sub-millisecond).
	LAN Latency = "lan"
	// Prototype models the paper's Aglets-on-LAN migration costs.
	Prototype Latency = "prototype"
	// WAN models wide-area Internet paths (tens of milliseconds).
	WAN Latency = "wan"
)

// Options configures a cluster. The zero value is usable: five servers on a
// simulated LAN.
type Options struct {
	// Servers is the number of replicas (default 5).
	Servers int
	// Seed makes the whole run reproducible (default 1).
	Seed int64
	// Latency selects the network environment (default LAN).
	Latency Latency
	// BatchSize dispatches one agent per this many requests (default 1).
	BatchSize int
	// BatchDelay flushes a partial batch after this delay (default 20ms
	// when BatchSize > 1).
	BatchDelay time.Duration
	// DisableInfoSharing turns off agent/server locking-information
	// exchange.
	DisableInfoSharing bool
	// RandomItinerary makes agents ignore routing costs.
	RandomItinerary bool
	// Votes assigns per-server vote weights (Gifford's weighted voting);
	// nil gives every server one vote, the paper's majority scheme.
	Votes map[NodeID]int
	// Shards partitions the key space into independent locking domains
	// (default 1, the paper's single-object system): each shard has its
	// own Locking Lists, sequence space, and quorums, and agents visit
	// only the replica group owning their keys.
	Shards int
	// GroupSize limits each shard's replica group to this many servers
	// (rendezvous-hashed); 0 replicates every shard everywhere.
	GroupSize int
	// Geometry selects the quorum construction: "majority" (default),
	// "grid" (O(sqrt N) write quorums), or "tree".
	Geometry string
	// CaptureTrace records a full protocol timeline, retrievable with
	// Cluster.Trace.
	CaptureTrace bool
}

// Cluster is a MARP deployment: N mobile-agent-enabled replicated servers on
// a simulated network, driven in deterministic virtual time.
type Cluster struct {
	inner *desengine.Cluster
	log   *trace.Log
}

// NewCluster assembles a cluster.
func NewCluster(o Options) (*Cluster, error) {
	if o.Servers == 0 {
		o.Servers = 5
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	var model simnet.LatencyModel
	switch o.Latency {
	case LAN, "":
		model = simnet.LAN()
	case Prototype:
		model = simnet.Prototype()
	case WAN:
		model = simnet.WAN()
	default:
		return nil, fmt.Errorf("marp: unknown latency %q", o.Latency)
	}
	var log *trace.Log
	if o.CaptureTrace {
		log = trace.New(0)
	}
	batchDelay := o.BatchDelay
	if batchDelay == 0 && o.BatchSize > 1 {
		batchDelay = 20 * time.Millisecond
	}
	geometry, err := quorum.ParseGeometry(o.Geometry)
	if err != nil {
		return nil, fmt.Errorf("marp: %w", err)
	}
	inner, err := desengine.New(desengine.Config{
		Seed:    o.Seed,
		Latency: model,
		Cluster: core.Config{
			N:                  o.Servers,
			Votes:              o.Votes,
			Shards:             o.Shards,
			GroupSize:          o.GroupSize,
			Geometry:           geometry,
			BatchMaxRequests:   o.BatchSize,
			BatchMaxDelay:      batchDelay,
			DisableInfoSharing: o.DisableInfoSharing,
			RandomItinerary:    o.RandomItinerary,
			Trace:              log,
		},
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: inner, log: log}, nil
}

// Servers returns the replica IDs.
func (c *Cluster) Servers() []NodeID { return c.inner.Nodes() }

// Submit queues update requests at a home server; a mobile agent carries
// them through the protocol. It returns an error for malformed requests.
func (c *Cluster) Submit(home NodeID, reqs ...Request) error {
	return c.inner.Submit(home, reqs...)
}

// Read serves a read from a replica's local copy — the paper's fast read
// path. It may be stale while updates are in flight; after Run it reflects
// every committed update.
func (c *Cluster) Read(node NodeID, key string) (Value, bool) {
	return c.inner.Read(node, key)
}

// ReadQuorum performs a consistent read (read quorum = majority), the
// one-copy-serializable extension of the paper's read-one scheme: it pays
// network round trips but always observes the most recent completed update.
// It advances virtual time until the quorum answers.
func (c *Cluster) ReadQuorum(home NodeID, key string) (Value, bool, error) {
	return c.inner.ReadQuorum(home, key, 30*time.Second)
}

// Run advances virtual time until every submitted update has committed (or
// maxVirtual elapses, which returns an error). It then lets in-flight
// commit messages settle and verifies the consistency invariants.
func (c *Cluster) Run(maxVirtual time.Duration) error {
	if err := c.inner.RunUntilDone(maxVirtual); err != nil {
		return err
	}
	c.inner.Settle(5 * time.Second)
	if err := c.inner.Referee().Err(); err != nil {
		return err
	}
	return c.inner.CheckConvergence()
}

// RunFor advances virtual time by d without waiting for completion.
func (c *Cluster) RunFor(d time.Duration) { c.inner.Settle(d) }

// After schedules fn at a virtual-time offset — the way to script crashes,
// submissions and probes inside a deterministic run.
func (c *Cluster) After(d time.Duration, fn func()) { c.inner.Engine().AfterFunc(d, fn) }

// Now returns the current virtual time since the start of the run.
func (c *Cluster) Now() time.Duration { return c.inner.Now().Duration() }

// Crash fail-stops a server: its volatile locking state is lost and agents
// hosted there die. Committed data survives on stable storage.
func (c *Cluster) Crash(node NodeID) { c.inner.Crash(node) }

// Recover restarts a crashed server; it pulls missed updates from its peers.
func (c *Cluster) Recover(node NodeID) { c.inner.Recover(node) }

// Outcomes returns per-agent results (latency, visits, retries) for every
// finished update batch.
func (c *Cluster) Outcomes() []Outcome { return c.inner.Outcomes() }

// Outstanding reports how many dispatched agents have not finished.
func (c *Cluster) Outstanding() int { return c.inner.Outstanding() }

// Trace returns the recorded protocol timeline (nil unless Options.
// CaptureTrace was set).
func (c *Cluster) Trace() []trace.Event {
	return c.log.Events()
}

// TraceString renders the recorded timeline, one event per line.
func (c *Cluster) TraceString() string {
	var out []byte
	for _, e := range c.log.Events() {
		out = append(out, e.String()...)
		out = append(out, '\n')
	}
	return string(out)
}

// Stats summarizes platform and network activity.
type Stats struct {
	Network simnet.Stats
	Agents  agent.Stats
}

// Stats returns traffic and agent-platform counters for the run so far.
func (c *Cluster) Stats() Stats {
	return Stats{Network: c.inner.NetStats(), Agents: c.inner.Platform().Stats()}
}
