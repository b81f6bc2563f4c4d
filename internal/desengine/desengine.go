// Package desengine assembles simulated deployments: the deterministic
// discrete-event engine (internal/des) plus the simulated network
// (internal/simnet), wired under an engine-neutral protocol cluster — a
// MARP core.Cluster (New), an optimistic.Cluster (NewOptimistic), a
// message-passing baseline.System (NewBaseline), or one single-node
// core.Cluster per process (NewProcesses).
//
// This is the only package that pairs a protocol with the simulation
// engine. Everything the simulation owns — the seed, the topology, the
// latency model, the fault model — is configured here rather than on the
// protocol's config, so the protocol layers stay ignorant of how they are
// being executed. All four assemblies build their engine and network
// through one helper (simulate). Tests, examples and the benchmark harness
// build clusters through this package; the live deployment builds the
// same core.Cluster through internal/runtime/live instead.
//
// NewProcesses is the deployed shape in virtual time, the twin of
// live.StartCluster: the network claims wire delivery, so each process
// migrates agents as encoded state over the reliable window, and a process
// starts the way live.StartNode starts one — a fresh cluster on a fresh
// engine whose clock reads zero, lifted by StartAbove over the absolute
// clock (the wall clock, live) — dies the way kill -9 kills one (Kill) and
// comes back over the same disk (Restart).
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

// newSimulator is the simulator under every MARP and optimistic cluster
// this package builds.
func newSimulator(seed int64) *des.Simulator {
	sim := des.New(seed)
	sim.SetPace(eventRate, eventBurst)
	return sim
}

// simulation is the engine and network under one assembly, and the two
// accessors simulation-side drivers (harness, tests) use to step virtual
// time and inject faults; protocol code never sees either.
type simulation struct {
	sim *des.Simulator
	net *simnet.Network
}

// simulate is every assembly's one path to its engine and network. It
// checks the cluster size n (pkg names the protocol in its errors),
// defaults the topology to a full mesh of n and the latency model to
// simnet.LAN(), refuses a topology smaller than n, builds the simulator
// with mk, then the network over it, and attaches faults if non-nil.
func simulate(pkg string, n int, seed int64, mk func(int64) *des.Simulator, topo *simnet.Topology, lat simnet.LatencyModel, faults *simnet.FaultModel) (simulation, error) {
	if n < 1 {
		return simulation{}, fmt.Errorf("%s: config needs N >= 1, got %d", pkg, n)
	}
	if topo == nil {
		topo = simnet.FullMesh(n)
	}
	if topo.Len() < n {
		return simulation{}, fmt.Errorf("%s: topology has %d nodes, need %d", pkg, topo.Len(), n)
	}
	if lat == nil {
		lat = simnet.LAN()
	}
	sim := mk(seed)
	net := simnet.New(sim, topo, lat)
	if faults != nil {
		net.SetFaults(faults)
	}
	return simulation{sim: sim, net: net}, nil
}

// Sim returns the underlying simulator. Simulation-side drivers only:
// protocol code must reach time through the runtime seam.
func (s simulation) Sim() *des.Simulator { return s.sim }

// Network returns the simulated network. Simulation-side drivers only.
func (s simulation) Network() *simnet.Network { return s.net }

// Cluster is a core.Cluster plus access to the concrete simulation
// machinery underneath it (Sim, Network).
type Cluster struct {
	*core.Cluster
	simulation
}

// New builds and wires a simulated cluster per cfg.
func New(cfg Config) (*Cluster, error) {
	s, err := simulate("core", cfg.Cluster.N, cfg.Seed, newSimulator, cfg.Topology, cfg.Latency, cfg.Faults)
	if err != nil {
		return nil, err
	}
	cl, err := core.NewCluster(s.sim, s.net, cfg.Cluster)
	if err != nil {
		return nil, err
	}
	return &Cluster{Cluster: cl, simulation: s}, nil
}
