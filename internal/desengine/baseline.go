package desengine

// The message-passing baselines' simulated assembly, mirroring New: same
// network and defaults, a baseline.System on top. Its simulator is des.New,
// not newSimulator: the pace is benchmark scaffolding, the benchmark runs no
// baseline, and C1's saturated cells fire millions of events.

import (
	"repro/internal/baseline"
	"repro/internal/des"
	"repro/internal/simnet"
)

// BaselineConfig assembles a simulated baseline deployment.
type BaselineConfig struct {
	// Seed drives every random choice in the simulation.
	Seed int64
	// Topology supplies inter-server travel costs; defaults to a full
	// mesh with uniform costs.
	Topology *simnet.Topology
	// Latency is the network delay model; defaults to simnet.LAN().
	Latency simnet.LatencyModel
	// Cluster carries the engine-neutral baseline configuration.
	Cluster baseline.Config
}

// Baseline is a baseline.System plus the simulation machinery underneath
// it (Sim, Network), for harness and test drivers.
type Baseline struct {
	*baseline.System
	simulation
}

// NewBaseline builds and wires a simulated baseline deployment per cfg.
func NewBaseline(cfg BaselineConfig) (*Baseline, error) {
	s, err := simulate("baseline", cfg.Cluster.N, cfg.Seed, des.New, cfg.Topology, cfg.Latency, nil)
	if err != nil {
		return nil, err
	}
	sys, err := baseline.New(s.sim, s.net, cfg.Cluster)
	if err != nil {
		return nil, err
	}
	return &Baseline{System: sys, simulation: s}, nil
}
