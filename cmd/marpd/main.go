// Command marpd runs one replica of a live MARP replicated data service,
// reachable over TCP with a line-delimited JSON protocol (see
// internal/transport). Each replica is its own OS process on the wall clock,
// and mobile agents migrate between the processes over TCP as serialized
// state.
//
// It can instead run the optimistic commitment protocol (-protocol
// optimistic): submits commit tentatively at local latency and
// reconciliation agents merge the replicas in the background
// (internal/optimistic). `marpctl digest` then reports the stable and
// tentative tiers separately. An unknown -protocol exits 2.
//
// Usage (one line per terminal):
//
//	marpd -node 1 -peers 1=127.0.0.1:7801,2=127.0.0.1:7802,3=127.0.0.1:7803 -addr :7707
//	marpd -node 2 -peers 1=127.0.0.1:7801,2=127.0.0.1:7802,3=127.0.0.1:7803 -addr :7708
//	marpd -node 3 -peers 1=127.0.0.1:7801,2=127.0.0.1:7802,3=127.0.0.1:7803 -addr :7709
//
// Or declaratively, with every address and cluster-level setting in one
// spec file (internal/clusterspec; `marpctl spec expand` shows the
// derived flags):
//
//	marpd -spec cluster.toml -node 1
//	marpd -spec cluster.toml -node 2
//	marpd -spec cluster.toml -node 3
//
// A malformed -peers string or spec (duplicate IDs, missing self entry,
// unparseable address, unknown key) makes marpd exit 2 before anything
// listens. So does a setting that would otherwise be dropped: with -spec the
// cluster-level flags (-peers -shards -geometry -fsync -commit-delay -seed)
// belong to the file, and -protocol optimistic has no -geometry or
// -commit-delay.
//
// Add -ops host:port (or an `ops` address per node in the spec) to serve
// the ops endpoints: Prometheus-text /metrics and JSON /healthz, the
// latter reporting per-shard write-quorum reachability.
//
// Add -data-dir <dir> (one directory per replica) to make the replica
// durable: its write-ahead log and snapshots land there, SIGTERM flushes
// and closes the log, and restarting with the same -data-dir replays it
// before rejoining (README.md walks through a kill-and-restart).
//
// Add -record <dir> (one shared directory for the whole cluster) to spool
// every accepted submit as an incident-scenario event. Faults are recorded
// by the injector (`marpctl -record <dir> partition ...`, or `record-fault`
// for a kill -9), and `marpctl snapshot-scenario` merges the spools into a
// replayable bundle (see internal/scenario and `marpbench -exp replay`).
//
// Then drive it with marpctl:
//
//	marpctl -addr :7707 submit 1 mykey myvalue
//	marpctl -addr :7709 read 3 mykey
//	marpctl -addr :7707 stats
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/ops"
	"repro/internal/runtime/live"
	"repro/internal/scenario"
	"repro/internal/transport"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7707", "TCP listen address for clients")
		seed     = flag.Int64("seed", 1, "random seed")
		node     = flag.Int("node", 0, "this process's replica ID")
		peers    = flag.String("peers", "", "replica fabric addresses, id=host:port comma-separated")
		spec     = flag.String("spec", "", "cluster spec file (.toml or .json); replaces -peers and cluster-level flags")
		opsAddr  = flag.String("ops", "", "ops HTTP listen address serving /metrics and /healthz (empty = no ops listener)")
		dataDir  = flag.String("data-dir", "", "durability directory: WAL + snapshots; restart with the same dir to recover")
		fsync    = flag.String("fsync", "commit", "WAL fsync policy with -data-dir: commit, always, none")
		shards   = flag.Int("shards", 1, "key-space shards (independent per-key locking domains)")
		geometry = flag.String("geometry", "majority", "quorum geometry: majority, grid, tree")
		commit   = flag.Duration("commit-delay", 0, "WAL group-commit window with -data-dir, e.g. 200us; 0 = fsync per commit")
		record   = flag.String("record", "", "incident-recording spool directory: accepted submits are appended as scenario events (share one dir across the cluster; see marpctl snapshot-scenario)")
		protocol = flag.String("protocol", "marp", "replication protocol: marp (pessimistic locking agents) or optimistic (tentative commits + reconciliation agents)")
	)
	flag.Parse()

	if *protocol != "marp" && *protocol != "optimistic" {
		// Operator mistake, like a malformed -peers: exit 2 before anything
		// listens.
		fmt.Fprintf(os.Stderr, "marpd: unknown protocol %q (marp or optimistic)\n", *protocol)
		os.Exit(2)
	}
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
	cfg, clientAddr, opsListen, err := resolveLive(liveFlags{
		Spec: *spec, Node: *node, Peers: *peers,
		Addr: *addr, Ops: *opsAddr,
		Seed: *seed, DataDir: *dataDir, Fsync: *fsync,
		Shards: *shards, Geometry: *geometry,
		CommitDelay: *commit,
		Protocol:    *protocol, Given: given,
	})
	if err != nil {
		// Operator mistake in -peers/-spec or a setting the chosen source
		// or protocol cannot honour: exit 2, distinct from the runtime
		// failures below.
		fmt.Fprintf(os.Stderr, "marpd: %v\n", err)
		os.Exit(2)
	}
	var srv *transport.Server
	if *protocol == "optimistic" {
		// The spec/flag resolution is shared; the optimistic node takes
		// the subset that applies (resolveLive refused the rest).
		srv, err = transport.ServeLiveOptimistic(clientAddr, live.OptNodeConfig{
			Self: cfg.Self, Addrs: cfg.Addrs, Seed: cfg.Seed,
			DataDir: cfg.DataDir, Fsync: cfg.Fsync,
			Shards: cfg.Cluster.Shards,
		})
	} else {
		srv, err = transport.ServeLive(clientAddr, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "marpd: %v\n", err)
		os.Exit(1)
	}
	var opsSrv *ops.Server
	if opsListen != "" {
		opsSrv, err = ops.Serve(opsListen, ops.Config{
			Gather: srv.GatherMetrics,
			Health: srv.Health,
		})
		if err != nil {
			srv.Close()
			fmt.Fprintf(os.Stderr, "marpd: ops listener: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("marpd: ops listener on http://%s (/metrics, /healthz)\n", opsSrv.Addr())
	}
	var rec *scenario.Recorder
	if *record != "" {
		rec, err = scenario.OpenRecorder(*record, fmt.Sprintf("node-%d", *node))
		if err != nil {
			srv.Close()
			fmt.Fprintf(os.Stderr, "marpd: %v\n", err)
			os.Exit(1)
		}
		srv.SetRecorder(rec)
	}
	fmt.Printf("marpd: live replica %d of %d, listening on %s\n",
		*node, len(cfg.Addrs), srv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("\nmarpd: shutting down")
	if opsSrv != nil {
		opsSrv.Close()
	}
	srv.Close()
	if rec != nil {
		rec.Close()
	}
}
