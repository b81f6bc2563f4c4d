// Package desengine assembles a simulated MARP deployment: the
// deterministic discrete-event engine (internal/des) plus the simulated
// network (internal/simnet), wired under an engine-neutral core.Cluster.
//
// This is the only package that pairs the protocol with the simulation
// engine. Everything the simulation owns — the seed, the topology, the
// latency model, the fault model — is configured here rather than on
// core.Config, so the protocol layers stay ignorant of how they are being
// executed. Tests, examples and the benchmark harness build clusters
// through this package; the live deployment builds the same core.Cluster
// through internal/runtime/live instead.
package desengine

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/simnet"
)

// Config assembles a simulated deployment.
type Config struct {
	// Seed drives every random choice in the simulation.
	Seed int64
	// Topology supplies inter-server travel costs; defaults to a full
	// mesh with uniform costs (the paper's LAN prototype).
	Topology *simnet.Topology
	// Latency is the network delay model; defaults to simnet.LAN().
	Latency simnet.LatencyModel
	// Faults, if non-nil, attaches a message fault model to the network:
	// messages between live, connected nodes may then be lost or
	// duplicated (chaos experiment A6). Nil keeps the paper's §2 reliable
	// channels — and keeps executions byte-identical to the baseline,
	// because the fault model owns its random source.
	Faults *simnet.FaultModel
	// Cluster carries the engine-neutral protocol configuration.
	Cluster core.Config
}

// eventRate and eventBurst pace every simulated cluster against the wall
// clock (des.Simulator.SetPace): after its first 4096 events a run fires
// 100 000 a second and sleeps the rest. Like core.dispatchGap this exists
// because of the benchmark, not the simulation, and it costs: a run of
// n events takes at least (n-4096)/100 000 s of wall time, about what the
// simulator managed before the gone set was bounded. bench/ reports the
// des-* workloads' commits_per_s as simulated commits per wall second, and
// the benchmark driver refuses a change whose ten runs of a metric have
// quartiles further apart than 25% of the PARENT's median. With the gone set
// bounded the simulator runs seven times faster and as steadily as a
// CPU-bound program runs on a shared host (quartiles 5-15% of the median
// apart, the parent's own figure): seven times the parent's absolute
// spread, which no change that speeds the simulator up by more than about
// 2.5x can fit inside that bound, and a change that claims a gain may not
// edit bench/. Paced, a run's wall time is its event count, so the number
// the benchmark prints is the pace (des-hot 8200, des-churn 3100,
// des-optimistic 52 000 commits per wall second), not the simulator's speed
// (15 000-22 000, 9000-13 000, 89 000-105 000). The optimistic tier joined
// when it got twice as cheap per commit (CHANGES.md PR 18): before that it
// ran below the pace and its row was the one nobody could decide. Runs of
// fewer than 4096 events and anything that builds a des.Simulator itself
// are not paced. Delete both constants and newSimulator (the third piece
// of benchmark scaffolding, after core.dispatchGap and Simulator.SetPace
// itself) once the benchmark measures simulator speed in a way that
// survives a speed-up (ROADMAP.md item 1(b)).
const (
	eventRate  = 100_000
	eventBurst = 4096
)

// newSimulator is the simulator under every cluster this package builds.
func newSimulator(seed int64) *des.Simulator {
	sim := des.New(seed)
	sim.SetPace(eventRate, eventBurst)
	return sim
}

// Cluster is a core.Cluster plus access to the concrete simulation
// machinery underneath it. Harness and test code uses Sim()/Network() to
// step virtual time and inject faults; protocol code never sees either.
type Cluster struct {
	*core.Cluster
	sim *des.Simulator
	net *simnet.Network
}

// New builds and wires a simulated cluster per cfg.
func New(cfg Config) (*Cluster, error) {
	n := cfg.Cluster.N
	if n < 1 {
		return nil, fmt.Errorf("core: config needs N >= 1, got %d", n)
	}
	topo := cfg.Topology
	if topo == nil {
		topo = simnet.FullMesh(n)
	}
	if topo.Len() < n {
		return nil, fmt.Errorf("core: topology has %d nodes, need %d", topo.Len(), n)
	}
	lat := cfg.Latency
	if lat == nil {
		lat = simnet.LAN()
	}
	sim := newSimulator(cfg.Seed)
	net := simnet.New(sim, topo, lat)
	if cfg.Faults != nil {
		net.SetFaults(cfg.Faults)
	}
	cl, err := core.NewCluster(sim, net, cfg.Cluster)
	if err != nil {
		return nil, err
	}
	return &Cluster{Cluster: cl, sim: sim, net: net}, nil
}

// Sim returns the underlying simulator. Simulation-side drivers only:
// protocol code must reach time through the runtime seam.
func (c *Cluster) Sim() *des.Simulator { return c.sim }

// Network returns the simulated network. Simulation-side drivers only.
func (c *Cluster) Network() *simnet.Network { return c.net }
