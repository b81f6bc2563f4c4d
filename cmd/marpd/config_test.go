package main

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/clusterspec"
	"repro/internal/runtime"
)

// The parseArgs and resolveLive errors below are exactly the cases marpd
// exits 2 on: operator mistakes caught before anything listens.

// threeNodes is a three-replica spec with fabric addresses only.
func threeNodes() clusterspec.Spec {
	return clusterspec.Spec{Nodes: []clusterspec.Node{
		{ID: 1, Fabric: "127.0.0.1:7801"},
		{ID: 2, Fabric: "127.0.0.1:7802"},
		{ID: 3, Fabric: "127.0.0.1:7803"},
	}}
}

// TestFlagSurface: marpd's flags are exactly the six per-process ones. Each
// cluster-level setting that used to be a flag is now undefined, so parsing
// fails on it and main exits 2 before anything listens.
func TestFlagSurface(t *testing.T) {
	for _, name := range []string{"peers", "shards", "geometry", "fsync", "commit-delay", "seed", "protocol"} {
		_, err := parseArgs([]string{"-spec", "cluster.toml", "-node", "1", "-" + name, "1"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -"+name) {
			t.Errorf("-%s: err = %v, want an undefined-flag error", name, err)
		}
	}

	o, err := parseArgs([]string{"-spec", "c.toml", "-node", "2", "-addr", "127.0.0.1:1",
		"-ops", "127.0.0.1:2", "-data-dir", "d", "-record", "r"}, io.Discard)
	want := options{Spec: "c.toml", Node: 2, Addr: "127.0.0.1:1", Ops: "127.0.0.1:2", DataDir: "d", Record: "r"}
	if err != nil || o != want {
		t.Errorf("parseArgs = %+v, %v; want %+v", o, err, want)
	}

	var usage strings.Builder
	if _, err := parseArgs([]string{"-h"}, &usage); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err = %v, want flag.ErrHelp", err)
	}
	var listed []string
	for _, line := range strings.Split(usage.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "  -"); ok {
			listed = append(listed, strings.Fields(rest)[0])
		}
	}
	if wantFlags := []string{"addr", "data-dir", "node", "ops", "record", "spec"}; !reflect.DeepEqual(listed, wantFlags) {
		t.Errorf("marpd -h lists %v, want %v", listed, wantFlags)
	}
}

func TestResolveLivePeers(t *testing.T) {
	cfg, protocol, client, opsAddr, err := resolveLive(options{
		Spec: writeSpec(t, threeNodes()), Node: 2, Addr: "127.0.0.1:7707",
	})
	if err != nil {
		t.Fatalf("resolveLive: %v", err)
	}
	wantAddrs := map[runtime.NodeID]string{1: "127.0.0.1:7801", 2: "127.0.0.1:7802", 3: "127.0.0.1:7803"}
	if cfg.Self != 2 || !reflect.DeepEqual(cfg.Addrs, wantAddrs) || cfg.Seed != 1 || cfg.DataDir != "" {
		t.Errorf("cfg = %+v", cfg)
	}
	if protocol != "" || client != "127.0.0.1:7707" || opsAddr != "" {
		t.Errorf("protocol = %q, client = %q, ops = %q", protocol, client, opsAddr)
	}
}

// TestResolveLivePeerErrors: a replica list no cluster can run on — duplicate
// IDs, an ID below 1, a bad address, no entry for this process — is refused
// by the spec's Validate and Find.
func TestResolveLivePeerErrors(t *testing.T) {
	dup, badAddr, ring := threeNodes(), threeNodes(), threeNodes()
	dup.Nodes[1].ID = 1
	badAddr.Nodes[2].Fabric = "localhost"
	ring.Geometry = "ring"
	cases := []struct {
		name    string
		spec    clusterspec.Spec
		node    int
		wantErr string
	}{
		{"duplicate node id", dup, 1, "duplicate node id"},
		{"missing self entry", threeNodes(), 9, "has no node 9"},
		{"zero node id", threeNodes(), 0, "has no node 0"},
		{"unparseable addr", badAddr, 2, "bad address"},
		{"bad geometry", ring, 2, "geometry"},
	}
	for _, c := range cases {
		o := options{Spec: writeSpec(t, c.spec), Node: c.node, Addr: "127.0.0.1:7707"}
		if _, _, _, _, err := resolveLive(o); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
		}
	}
	if _, _, _, _, err := resolveLive(options{Node: 1, Addr: "127.0.0.1:7707"}); err == nil || !strings.Contains(err.Error(), "-spec is required") {
		t.Errorf("no -spec: err = %v", err)
	}
}

func TestResolveLiveSpec(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "cluster.toml")
	if err := os.WriteFile(specPath, []byte(`
shards = 2
geometry = "majority"
fsync = "none"
commit_delay = "150us"
seed = 11
data_root = "`+dir+`"

[[node]]
id = 1
fabric = "127.0.0.1:7801"
client = "127.0.0.1:7707"
ops = "127.0.0.1:9101"

[[node]]
id = 2
fabric = "127.0.0.1:7802"
client = "127.0.0.1:7708"
ops = "127.0.0.1:9102"

[[node]]
id = 3
fabric = "127.0.0.1:7803"
client = "127.0.0.1:7709"
ops = "127.0.0.1:9103"
`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, protocol, client, opsAddr, err := resolveLive(options{Spec: specPath, Node: 2})
	if err != nil {
		t.Fatalf("resolveLive(spec): %v", err)
	}
	if cfg.Self != 2 || len(cfg.Addrs) != 3 || cfg.Fsync != "none" || cfg.Seed != 11 {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.CommitDelay != 150*time.Microsecond {
		t.Errorf("CommitDelay = %v", cfg.CommitDelay)
	}
	if cfg.Cluster.Shards != 2 {
		t.Errorf("Shards = %d", cfg.Cluster.Shards)
	}
	if cfg.DataDir != filepath.Join(dir, "node-2") {
		t.Errorf("DataDir = %q", cfg.DataDir)
	}
	if protocol != "" || client != "127.0.0.1:7708" || opsAddr != "127.0.0.1:9102" {
		t.Errorf("protocol = %q, client = %q, ops = %q", protocol, client, opsAddr)
	}

	// The protocol is a spec key too.
	optPath := filepath.Join(dir, "optimistic.toml")
	os.WriteFile(optPath, []byte("protocol = \"optimistic\"\n[[node]]\nid = 1\nfabric = \"127.0.0.1:7801\"\nclient = \"127.0.0.1:7707\"\n"), 0o644)
	if _, protocol, _, _, err := resolveLive(options{Spec: optPath, Node: 1}); err != nil || protocol != "optimistic" {
		t.Errorf("optimistic spec: protocol = %q, err = %v", protocol, err)
	}

	// A spec that fails validation (duplicate IDs) is rejected.
	badPath := filepath.Join(dir, "bad.toml")
	os.WriteFile(badPath, []byte("[[node]]\nid = 1\nfabric = \"127.0.0.1:1\"\n[[node]]\nid = 1\nfabric = \"127.0.0.1:2\"\n"), 0o644)
	if _, _, _, _, err := resolveLive(options{Spec: badPath, Node: 1}); err == nil || !strings.Contains(err.Error(), "duplicate node id") {
		t.Errorf("duplicate-id spec err = %v", err)
	}
}

// TestResolveLiveRefusesDroppedSettings: a per-process value given both as a
// flag and as the node's spec key is refused naming both, so neither silently
// wins; and a node needs a client address from one of the two. The
// protocol's own refusals are spec validation (clusterspec's
// TestValidateErrors).
func TestResolveLiveRefusesDroppedSettings(t *testing.T) {
	keyed, rooted := threeNodes(), threeNodes()
	keyed.Nodes[1].Client, keyed.Nodes[1].Ops, keyed.Nodes[1].DataDir = "127.0.0.1:7708", "127.0.0.1:9102", "data/node-2"
	rooted.DataRoot = "data"
	keyedPath, rootedPath, barePath := writeSpec(t, keyed), writeSpec(t, rooted), writeSpec(t, threeNodes())
	cases := []struct {
		name    string
		o       options
		wantErr []string // substrings; nil = accepted
	}{
		{"-addr beside client", options{Spec: keyedPath, Node: 2, Addr: "127.0.0.1:7000"}, []string{"-addr", "client"}},
		{"-ops beside ops", options{Spec: keyedPath, Node: 2, Ops: "127.0.0.1:9000"}, []string{"-ops", "ops"}},
		{"-data-dir beside data_dir", options{Spec: keyedPath, Node: 2, DataDir: "elsewhere"}, []string{"-data-dir", "data_dir"}},
		{"-data-dir beside data_root", options{Spec: rootedPath, Node: 2, Addr: "127.0.0.1:7000", DataDir: "elsewhere"}, []string{"-data-dir", "data_root"}},
		{"no client address", options{Spec: barePath, Node: 2}, []string{"no client address", "-addr", "client key"}},
		{"spec keys alone", options{Spec: keyedPath, Node: 2, Record: "spool"}, nil},
		{"flags fill a bare node", options{Spec: barePath, Node: 2, Addr: "127.0.0.1:7000", Ops: "127.0.0.1:9000", DataDir: "d"}, nil},
	}
	for _, c := range cases {
		_, _, _, _, err := resolveLive(c.o)
		if c.wantErr == nil {
			if err != nil {
				t.Errorf("%s: refused: %v", c.name, err)
			}
			continue
		}
		for _, want := range c.wantErr {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: err = %v, want substring %q", c.name, err, want)
			}
		}
	}
}
