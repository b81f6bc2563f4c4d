package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/clusterspec"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
)

// liveFlags carries the operator's input, either raw flags or a -spec file
// reference, before validation.
type liveFlags struct {
	Spec        string // -spec: path to a cluster spec file; owns the cluster-level settings
	Node        int
	Peers       string
	Addr        string // client listen address (-addr)
	Ops         string // ops listen address (-ops)
	Seed        int64
	DataDir     string
	Fsync       string
	Shards      int
	Geometry    string
	CommitDelay time.Duration
	Protocol    string          // -protocol: marp or optimistic
	Given       map[string]bool // flags set on the command line (flag.Visit), by name
}

// specOwned pairs each cluster-level flag with the spec key that owns the
// setting once -spec is given. Every process must agree on these, so a flag
// beside the file is refused instead of winning in one process only.
var specOwned = []struct{ flag, key string }{
	{"peers", "[[node]] fabric"}, {"shards", "shards"}, {"geometry", "geometry"},
	{"fsync", "fsync"}, {"commit-delay", "commit_delay"}, {"seed", "seed"},
}

// resolveLive validates the operator's input and produces the live node
// config plus the client and ops listen addresses. Every error it returns
// is an operator mistake — main exits 2 on them, before anything listens.
func resolveLive(f liveFlags) (cfg live.NodeConfig, clientAddr, opsAddr string, err error) {
	self := runtime.NodeID(f.Node)
	clientAddr, opsAddr = f.Addr, f.Ops

	var addrs map[runtime.NodeID]string
	geometry, fsync := f.Geometry, f.Fsync
	seed, dataDir := f.Seed, f.DataDir
	commitDelay := f.CommitDelay
	shards := f.Shards
	// marpOnly collects the explicitly given settings only MARP has.
	var marpOnly []string
	for _, name := range []string{"geometry", "commit-delay"} {
		if f.Given[name] {
			marpOnly = append(marpOnly, "-"+name)
		}
	}

	if f.Spec != "" {
		for _, o := range specOwned {
			if f.Given[o.flag] {
				return cfg, "", "", fmt.Errorf("-%s cannot be combined with -spec: the spec's %s key owns that setting", o.flag, o.key)
			}
		}
		spec, lerr := clusterspec.Load(f.Spec)
		if lerr != nil {
			return cfg, "", "", lerr
		}
		node := spec.Find(f.Node)
		if node == nil {
			return cfg, "", "", fmt.Errorf("spec %s has no node %d (nodes: %v)", f.Spec, f.Node, spec.IDs())
		}
		addrs = spec.FabricAddrs()
		if node.Client != "" {
			clientAddr = node.Client
		}
		if node.Ops != "" {
			opsAddr = node.Ops
		}
		if spec.Geometry != "" {
			geometry = spec.Geometry
			marpOnly = append(marpOnly, "the spec's geometry key")
		}
		if spec.Fsync != "" {
			fsync = spec.Fsync
		}
		if spec.Seed != 0 {
			seed = spec.Seed
		}
		if spec.Shards != 0 {
			shards = spec.Shards
		}
		if dir := spec.DataDirOf(f.Node); dir != "" {
			dataDir = dir
		}
		// Spec delay strings were validated by Load.
		if spec.CommitDelay != "" {
			commitDelay, _ = time.ParseDuration(spec.CommitDelay)
			marpOnly = append(marpOnly, "the spec's commit_delay key")
		}
	} else {
		if addrs, err = clusterspec.ParsePeers(f.Peers); err != nil {
			return cfg, "", "", err
		}
	}
	if f.Protocol == "optimistic" && len(marpOnly) > 0 {
		return cfg, "", "", fmt.Errorf("the optimistic protocol has no quorum geometry / group commit: remove %s", strings.Join(marpOnly, ", "))
	}
	if err = clusterspec.ValidatePeers(self, addrs); err != nil {
		return cfg, "", "", err
	}
	geom, err := quorum.ParseGeometry(geometry)
	if err != nil {
		return cfg, "", "", err
	}
	cfg = live.NodeConfig{
		Self:        self,
		Addrs:       addrs,
		Seed:        seed,
		DataDir:     dataDir,
		Fsync:       fsync,
		CommitDelay: commitDelay,
		Cluster: core.Config{
			Shards:   shards,
			Geometry: geom,
		},
	}
	return cfg, clientAddr, opsAddr, nil
}
