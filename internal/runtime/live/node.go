package live

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/runtime"
	"repro/internal/trace"
	"repro/internal/wal"
)

// NodeConfig describes one replica process of a live deployment.
type NodeConfig struct {
	// Self is this process's replica ID (1..N).
	Self runtime.NodeID
	// Addrs maps every replica ID — including Self — to its TCP address.
	// All processes must agree on this map.
	Addrs map[runtime.NodeID]string
	// Seed feeds the protocol's random source (retry jitter and the like).
	Seed int64
	// DataDir, if non-empty, makes the replica durable: its write-ahead log
	// and snapshots live in this directory, and a restart with the same
	// DataDir replays them before rejoining. Empty keeps the replica
	// volatile (the seed behaviour).
	DataDir string
	// Fsync selects the WAL fsync policy ("commit", "always", "none"; see
	// wal.ParsePolicy). Only meaningful with DataDir.
	Fsync string
	// CommitDelay enables WAL group commit with the given coalescing
	// window (200µs is a good start; zero keeps one fsync per commit
	// barrier). Only meaningful with DataDir and Fsync=commit.
	CommitDelay time.Duration
	// Cluster carries the engine-neutral protocol configuration. N and
	// Local are derived from Addrs/Self and must be left unset. Durability
	// is derived from DataDir/Fsync; alternatively, with DataDir empty, an
	// explicit Cluster.Durability supplies a custom backend (the pipelined
	// cross-engine test uses this to run live nodes against a Mem disk).
	Cluster core.Config
}

// Process is one running replica process: an actor-loop engine, a TCP
// fabric, and the protocol cluster they carry — the same value the
// simulator drives. Node and OptNode are its two instantiations.
type Process[C any] struct {
	Eng     *Engine
	Fab     *Fabric
	Cluster C

	closeJournal func(C) error
}

// Node is a MARP replica process.
type Node = Process[*core.Cluster]

// start is the one bring-up behind StartNode and StartOptNode: the actor
// loop, the fabric, then the protocol constructor — run ON the loop. The
// fabric accepts from the moment it exists and a restarting node's peers
// are already sending, so a cluster built on the caller's goroutine is read
// by arriving agents (the server table, the journal hook) while its
// constructor still writes it. On the loop, every delivery queues behind
// the constructor and sees the finished cluster. closeJournal is what Close
// runs to flush and close the cluster's journals.
func start[C any](self runtime.NodeID, addrs map[runtime.NodeID]string, seed int64, tr *trace.Log, build func(*Engine, *Fabric) (C, error), closeJournal func(C) error) (*Process[C], error) {
	eng := NewEngine(seed)
	fab, err := NewFabricOptions(eng, self, addrs, FabricOptions{Trace: tr})
	if err != nil {
		eng.Close()
		return nil, err
	}
	p := &Process[C]{Eng: eng, Fab: fab, closeJournal: closeJournal}
	eng.Do(func() { p.Cluster, err = build(eng, fab) })
	if err != nil {
		fab.Close()
		eng.Close()
		return nil, err
	}
	return p, nil
}

// Close stops the process: fabric first (stops inbound traffic, so no
// protocol callback can arrive after its journal is gone), then the journal
// (flush and close, so a graceful shutdown leaves nothing to replay), then
// the actor loop. The journal close runs on the actor loop, serialized after
// any callbacks the fabric injected before it closed.
func (p *Process[C]) Close() {
	p.Fab.Close()
	p.Eng.Do(func() {
		if err := p.closeJournal(p.Cluster); err != nil {
			fmt.Printf("live: closing journal: %v\n", err)
		}
	})
	p.Eng.Close()
}

// fsBackend turns a node's DataDir and Fsync settings into the journal's
// backend and fsync policy.
func fsBackend(dataDir, fsync string) (func(runtime.NodeID) disk.Backend, wal.Policy, error) {
	policy, err := wal.ParsePolicy(fsync)
	if err != nil {
		return nil, 0, fmt.Errorf("live: %w", err)
	}
	fsb, err := disk.NewFS(dataDir)
	if err != nil {
		return nil, 0, err
	}
	return func(runtime.NodeID) disk.Backend { return fsb }, policy, nil
}

// StartNode brings up the engine, the fabric, and the local replica. The
// node is ready to exchange protocol traffic when StartNode returns; peers
// that are not up yet simply cost a few dropped messages, which the
// protocol's timeouts absorb.
//
// With NodeConfig.DataDir set, startup begins with a recovery phase: the
// replica replays its journal (snapshot plus WAL suffix) before it attaches
// to the network, then runs an anti-entropy round against its peers to
// fetch whatever it missed while down. A fresh directory replays nothing
// and the node starts empty, exactly like a volatile one.
func StartNode(cfg NodeConfig) (*Node, error) {
	if cfg.Cluster.N != 0 || cfg.Cluster.Local != nil {
		return nil, fmt.Errorf("live: Cluster.N and Cluster.Local are derived from Addrs; leave them unset")
	}
	if cfg.Cluster.Durability != nil && cfg.DataDir != "" {
		return nil, fmt.Errorf("live: set either DataDir or an explicit Cluster.Durability, not both")
	}
	cfg.Cluster.N = len(cfg.Addrs)
	cfg.Cluster.Local = []runtime.NodeID{cfg.Self}
	if cfg.DataDir != "" {
		backend, policy, err := fsBackend(cfg.DataDir, cfg.Fsync)
		if err != nil {
			return nil, err
		}
		cfg.Cluster.Durability = &core.DurabilityConfig{
			Backend:          backend,
			Policy:           policy,
			GroupCommitDelay: cfg.CommitDelay,
		}
	}
	return start(cfg.Self, cfg.Addrs, cfg.Seed, cfg.Cluster.Trace, func(eng *Engine, fab *Fabric) (*core.Cluster, error) {
		cl, err := core.NewCluster(eng, fab, cfg.Cluster)
		if err != nil {
			return nil, err
		}
		// Agent birth times and link sequence numbers on a live node start
		// at the wall clock — for births, the paper's "local creation
		// time". The engine clock and the link counters restart at zero
		// with the process, and numbers minted from them would lie under
		// the gone-set watermarks and receive windows the peers hold from
		// this node's previous run, with or without a data dir; the wall
		// clock is what a restart cannot rewind.
		cl.StartAbove(time.Now().UnixNano())
		return cl, nil
	}, (*core.Cluster).CloseJournals)
}
