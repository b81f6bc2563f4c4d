package live

// The optimistic protocol's live assembly, mirroring StartNode: same
// actor-loop engine, same TCP fabric, a different protocol cluster on top.
// One process hosts one optimistic replica; reconciliation agents migrate
// to the peers over real sockets as wire-encoded state.

import (
	"time"

	"repro/internal/optimistic"
	"repro/internal/runtime"
)

// OptNodeConfig configures one live optimistic replica process.
type OptNodeConfig struct {
	// Self is this process's replica ID (1..N).
	Self runtime.NodeID
	// Addrs maps every replica ID — including Self — to its TCP address.
	Addrs map[runtime.NodeID]string
	// Seed feeds the protocol's random source.
	Seed int64
	// DataDir, if non-empty, makes the replica durable (FS-backed journal;
	// a restart with the same DataDir replays it before rejoining).
	DataDir string
	// Fsync selects the WAL fsync policy (see wal.ParsePolicy). Only
	// meaningful with DataDir.
	Fsync string
	// GossipInterval overrides the reconciliation launch period (zero
	// keeps the protocol default).
	GossipInterval time.Duration
	// Shards is the keyspace shard count (zero means 1).
	Shards int
}

// OptNode is an optimistic replica process.
type OptNode = Process[*optimistic.Cluster]

// StartOptNode brings up the engine, the fabric, and the local optimistic
// replica. Unlike the pessimistic StartNode there is no anti-entropy phase
// to run at startup: the periodic reconciliation schedule IS the
// anti-entropy path, and the first launch after recovery advertises the
// journal-restored state to the peers.
func StartOptNode(cfg OptNodeConfig) (*OptNode, error) {
	ocfg := optimistic.Config{
		N:              len(cfg.Addrs),
		Local:          []runtime.NodeID{cfg.Self},
		Shards:         cfg.Shards,
		GossipInterval: cfg.GossipInterval,
	}
	if cfg.DataDir != "" {
		backend, policy, err := fsBackend(cfg.DataDir, cfg.Fsync)
		if err != nil {
			return nil, err
		}
		ocfg.Durability = &optimistic.DurabilityConfig{Backend: backend, Policy: policy}
	}
	return start(cfg.Self, cfg.Addrs, cfg.Seed, nil, func(eng *Engine, fab *Fabric) (*optimistic.Cluster, error) {
		cl, err := optimistic.NewCluster(eng, fab, ocfg)
		if err != nil {
			return nil, err
		}
		// Physical time for the hybrid clocks is the wall clock, the base
		// StartNode gives agent births: the engine clock restarts at zero
		// with the process, and peers' clocks would run ahead of it.
		cl.AdvanceClock(time.Now().UnixNano())
		return cl, nil
	}, (*optimistic.Cluster).Close)
}
