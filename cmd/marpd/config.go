package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/clusterspec"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
)

// options is marpd's command line: the cluster spec and this process's
// place in it. Every setting the processes must agree on is a spec key,
// so no flag can make one process disagree with the rest.
type options struct {
	Spec, Addr, Ops, DataDir, Record string
	Node                             int
}

// parseArgs parses marpd's argv. The flag set errors (and prints usage to
// errOut) on any flag it does not define, so main exits 2 before anything
// listens when given one of the cluster-level settings that live in the spec.
func parseArgs(args []string, errOut io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("marpd", flag.ContinueOnError)
	fs.SetOutput(errOut)
	fs.StringVar(&o.Spec, "spec", "", "cluster spec file (.toml or .json): nodes, protocol, shards, geometry, fsync, commit_delay, seed")
	fs.IntVar(&o.Node, "node", 0, "this process's replica ID in the spec")
	fs.StringVar(&o.Addr, "addr", "", "TCP listen address for clients, when the node has no client key")
	fs.StringVar(&o.Ops, "ops", "", "ops HTTP listen address serving /metrics and /healthz, when the node has no ops key (neither = no ops listener)")
	fs.StringVar(&o.DataDir, "data-dir", "", "durability directory (WAL + snapshots), when the spec gives none; restart with the same dir to recover")
	fs.StringVar(&o.Record, "record", "", "incident-recording spool directory: accepted submits are appended as scenario events (share one dir across the cluster; see marpctl snapshot-scenario)")
	err := fs.Parse(args)
	return o, err
}

// resolveLive loads the spec and derives this process's live node config,
// its protocol, and its client and ops listen addresses. Every error it
// returns is an operator mistake — main exits 2 on them, before anything
// listens.
func resolveLive(o options) (cfg live.NodeConfig, protocol, clientAddr, opsAddr string, err error) {
	if o.Spec == "" {
		return cfg, "", "", "", errors.New("-spec is required: the cluster spec file holds every cluster-level setting")
	}
	spec, err := clusterspec.Load(o.Spec)
	if err != nil {
		return cfg, "", "", "", err
	}
	node := spec.Find(o.Node)
	if node == nil {
		return cfg, "", "", "", fmt.Errorf("spec %s has no node %d (nodes: %v)", o.Spec, o.Node, spec.IDs())
	}
	if clientAddr, err = perProcess("addr", o.Addr, "client", node.Client); err != nil {
		return cfg, "", "", "", err
	}
	if clientAddr == "" {
		return cfg, "", "", "", fmt.Errorf("node %d has no client address: give -addr or the node's client key", o.Node)
	}
	if opsAddr, err = perProcess("ops", o.Ops, "ops", node.Ops); err != nil {
		return cfg, "", "", "", err
	}
	dataDir, err := perProcess("data-dir", o.DataDir, "data_dir (or data_root)", spec.DataDirOf(o.Node))
	if err != nil {
		return cfg, "", "", "", err
	}
	// Load validated the geometry and the delay; an empty delay parses as 0.
	geom, _ := quorum.ParseGeometry(spec.Geometry)
	commitDelay, _ := time.ParseDuration(spec.CommitDelay)
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	cfg = live.NodeConfig{
		Self:        runtime.NodeID(o.Node),
		Addrs:       spec.FabricAddrs(),
		Seed:        seed,
		DataDir:     dataDir,
		Fsync:       spec.Fsync,
		CommitDelay: commitDelay,
		Cluster: core.Config{
			Shards:   spec.Shards,
			Geometry: geom,
		},
	}
	return cfg, spec.Protocol, clientAddr, opsAddr, nil
}

// perProcess takes a per-process setting from its flag or from the node's
// spec key. Given both, it refuses rather than let one silently win.
func perProcess(flagName, flagVal, key, specVal string) (string, error) {
	if flagVal != "" && specVal != "" {
		return "", fmt.Errorf("-%s %q and the spec's %s %q both set this node's value: keep one", flagName, flagVal, key, specVal)
	}
	if flagVal != "" {
		return flagVal, nil
	}
	return specVal, nil
}
