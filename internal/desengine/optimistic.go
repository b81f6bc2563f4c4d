package desengine

// The optimistic protocol's simulated assembly, mirroring New: same
// engine, same network, same fault hooks — a different protocol cluster on
// top. Keeping both assemblies here preserves the package's role as the
// single place where protocol meets simulation.

import (
	"repro/internal/optimistic"
	"repro/internal/simnet"
)

// OptConfig assembles a simulated optimistic deployment.
type OptConfig struct {
	// Seed drives every random choice in the simulation.
	Seed int64
	// Topology supplies inter-server travel costs; defaults to a full
	// mesh with uniform costs.
	Topology *simnet.Topology
	// Latency is the network delay model; defaults to simnet.LAN().
	Latency simnet.LatencyModel
	// Faults, if non-nil, attaches a message fault model (loss grids,
	// chaos). Nil keeps reliable channels.
	Faults *simnet.FaultModel
	// Cluster carries the engine-neutral optimistic configuration.
	Cluster optimistic.Config
}

// OptCluster is an optimistic.Cluster plus the simulation machinery
// underneath it (Sim, Network), for harness and test drivers.
type OptCluster struct {
	*optimistic.Cluster
	simulation
}

// NewOptimistic builds and wires a simulated optimistic cluster per cfg.
func NewOptimistic(cfg OptConfig) (*OptCluster, error) {
	s, err := simulate("optimistic", cfg.Cluster.N, cfg.Seed, newSimulator, cfg.Topology, cfg.Latency, cfg.Faults)
	if err != nil {
		return nil, err
	}
	cl, err := optimistic.NewCluster(s.sim, s.net, cfg.Cluster)
	if err != nil {
		return nil, err
	}
	return &OptCluster{Cluster: cl, simulation: s}, nil
}
