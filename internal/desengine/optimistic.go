package desengine

// The optimistic protocol's simulated assembly, mirroring New: same
// engine, same network, same fault hooks — a different protocol cluster on
// top. Keeping both assemblies here preserves the package's role as the
// single place where protocol meets simulation.

import (
	"fmt"

	"repro/internal/des"
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
// underneath it, for harness and test drivers.
type OptCluster struct {
	*optimistic.Cluster
	sim *des.Simulator
	net *simnet.Network
}

// NewOptimistic builds and wires a simulated optimistic cluster per cfg.
func NewOptimistic(cfg OptConfig) (*OptCluster, error) {
	n := cfg.Cluster.N
	if n < 1 {
		return nil, fmt.Errorf("optimistic: config needs N >= 1, got %d", n)
	}
	topo := cfg.Topology
	if topo == nil {
		topo = simnet.FullMesh(n)
	}
	if topo.Len() < n {
		return nil, fmt.Errorf("optimistic: topology has %d nodes, need %d", topo.Len(), n)
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
	cl, err := optimistic.NewCluster(sim, net, cfg.Cluster)
	if err != nil {
		return nil, err
	}
	return &OptCluster{Cluster: cl, sim: sim, net: net}, nil
}

// Sim returns the underlying simulator (simulation-side drivers only).
func (c *OptCluster) Sim() *des.Simulator { return c.sim }

// Network returns the simulated network (simulation-side drivers only).
func (c *OptCluster) Network() *simnet.Network { return c.net }
