// Command marpd runs one replica of a live MARP replicated data service,
// reachable over TCP with a line-delimited JSON protocol (see
// internal/transport). Each replica is its own OS process on the wall clock,
// and mobile agents migrate between the processes over TCP as serialized
// state.
//
// A live cluster is its spec file (internal/clusterspec): the nodes and
// their addresses, the protocol, shards, quorum geometry, fsync policy,
// group-commit window and seed are spec keys every process reads from the
// same file. Usage (one line per terminal):
//
//	marpd -spec cluster.toml -node 1
//	marpd -spec cluster.toml -node 2
//	marpd -spec cluster.toml -node 3
//
// The flags are exactly the per-process ones: -spec, -node, -addr, -ops,
// -data-dir and -record. A malformed spec (duplicate IDs, unparseable
// address, unknown key or protocol, a setting the chosen protocol lacks), a
// -node the spec does not list, a flag the spec's node entry also sets, or
// any other flag makes marpd exit 2 before anything listens.
//
// With `protocol = "optimistic"` the cluster runs the optimistic
// commitment protocol: submits commit tentatively at local latency and
// reconciliation agents merge the replicas in the background
// (internal/optimistic). `marpctl digest` then reports the stable and
// tentative tiers separately.
//
// The node's `client` key (or -addr) is where clients connect; one of the
// two is required. Its `ops` key (or -ops) serves the ops endpoints:
// Prometheus-text /metrics and JSON /healthz, the latter reporting
// per-shard write-quorum reachability.
//
// A `data_dir` per node, a spec-wide `data_root` or -data-dir (one
// directory per replica) makes the replica durable: its write-ahead log and
// snapshots land there, SIGTERM flushes and closes the log, and restarting
// with the same directory replays it before rejoining (README.md walks
// through a kill-and-restart).
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
	"errors"
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
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		// The flag set has printed the error and the usage.
		os.Exit(2)
	}
	cfg, protocol, clientAddr, opsListen, err := resolveLive(o)
	if err != nil {
		// Operator mistake in the spec or the per-process flags: exit 2,
		// distinct from the runtime failures below.
		fmt.Fprintf(os.Stderr, "marpd: %v\n", err)
		os.Exit(2)
	}
	var srv *transport.Server
	if protocol == "optimistic" {
		// The optimistic node takes the subset of the config that applies
		// (Spec.Validate refused the rest).
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
	if o.Record != "" {
		rec, err = scenario.OpenRecorder(o.Record, fmt.Sprintf("node-%d", o.Node))
		if err != nil {
			srv.Close()
			fmt.Fprintf(os.Stderr, "marpd: %v\n", err)
			os.Exit(1)
		}
		srv.SetRecorder(rec)
	}
	fmt.Printf("marpd: live replica %d of %d, listening on %s\n",
		o.Node, len(cfg.Addrs), srv.Addr())

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
