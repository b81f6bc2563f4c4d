package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The resolveLive errors below are exactly the cases marpd exits 2 on:
// operator mistakes in -peers or -spec caught before anything listens.

func baseFlags() liveFlags {
	return liveFlags{
		Node:     2,
		Peers:    "1=127.0.0.1:7801,2=127.0.0.1:7802,3=127.0.0.1:7803",
		Addr:     "127.0.0.1:7707",
		Seed:     1,
		Fsync:    "commit",
		Shards:   1,
		Geometry: "majority",
	}
}

func TestResolveLivePeers(t *testing.T) {
	cfg, client, opsAddr, err := resolveLive(baseFlags())
	if err != nil {
		t.Fatalf("resolveLive: %v", err)
	}
	if cfg.Self != 2 || len(cfg.Addrs) != 3 || cfg.Addrs[3] != "127.0.0.1:7803" {
		t.Errorf("cfg = %+v", cfg)
	}
	if client != "127.0.0.1:7707" || opsAddr != "" {
		t.Errorf("client = %q, ops = %q", client, opsAddr)
	}
}

func TestResolveLivePeerErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*liveFlags)
		wantErr string
	}{
		{"duplicate node id", func(f *liveFlags) {
			f.Peers = "1=127.0.0.1:7801,1=127.0.0.1:7802"
			f.Node = 1
		}, "duplicate peer id"},
		{"missing self entry", func(f *liveFlags) { f.Node = 9 }, "no entry for this process"},
		{"zero node id", func(f *liveFlags) { f.Node = 0 }, "want >= 1"},
		{"unparseable addr", func(f *liveFlags) {
			f.Peers = "1=127.0.0.1:7801,2=localhost"
		}, "bad address"},
		{"malformed peer entry", func(f *liveFlags) { f.Peers = "oops" }, "want id=host:port"},
		{"bad geometry", func(f *liveFlags) { f.Geometry = "ring" }, "geometry"},
	}
	for _, c := range cases {
		f := baseFlags()
		c.mutate(&f)
		if _, _, _, err := resolveLive(f); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
		}
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
	f := baseFlags()
	f.Peers = ""
	f.Spec = specPath
	cfg, client, opsAddr, err := resolveLive(f)
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
	if client != "127.0.0.1:7708" || opsAddr != "127.0.0.1:9102" {
		t.Errorf("client = %q, ops = %q", client, opsAddr)
	}

	// The spec must contain this process's node.
	f.Node = 9
	if _, _, _, err := resolveLive(f); err == nil || !strings.Contains(err.Error(), "no node 9") {
		t.Errorf("missing node err = %v", err)
	}

	// A spec that fails validation (duplicate IDs) is rejected.
	badPath := filepath.Join(dir, "bad.toml")
	os.WriteFile(badPath, []byte("[[node]]\nid = 1\nfabric = \"127.0.0.1:1\"\n[[node]]\nid = 1\nfabric = \"127.0.0.1:2\"\n"), 0o644)
	f = baseFlags()
	f.Spec, f.Peers, f.Node = badPath, "", 1
	if _, _, _, err := resolveLive(f); err == nil || !strings.Contains(err.Error(), "duplicate node id") {
		t.Errorf("duplicate-id spec err = %v", err)
	}
}

// TestResolveLiveRefusesDroppedSettings: a setting marpd would have to drop
// is an operator mistake (exit 2), not a silent default. With -spec the
// cluster-level flags belong to the file — one process running 8 shards
// beside two running the spec's 2 is the failure this closes — and the
// optimistic protocol has neither a quorum geometry nor group commit.
func TestResolveLiveRefusesDroppedSettings(t *testing.T) {
	dir := t.TempDir()
	nodes := `
[[node]]
id = 1
fabric = "127.0.0.1:7801"
[[node]]
id = 2
fabric = "127.0.0.1:7802"
`
	write := func(name, head string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(head+nodes), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bare := write("bare.toml", "")
	cases := []struct {
		name     string
		spec     string
		protocol string
		given    []string
		wantErr  []string // substrings; nil = accepted
	}{
		{"spec + -peers", bare, "marp", []string{"peers"}, []string{"-peers", "fabric"}},
		{"spec + -shards", bare, "marp", []string{"shards"}, []string{"-shards", "shards key"}},
		{"spec + -geometry", bare, "marp", []string{"geometry"}, []string{"-geometry", "geometry key"}},
		{"spec + -fsync", bare, "marp", []string{"fsync"}, []string{"-fsync", "fsync key"}},
		{"spec + -commit-delay", bare, "marp", []string{"commit-delay"}, []string{"-commit-delay", "commit_delay key"}},
		{"spec + -seed", bare, "marp", []string{"seed"}, []string{"-seed", "seed key"}},
		{"spec + per-process flags", bare, "marp", []string{"addr", "ops", "data-dir", "node", "spec", "record"}, nil},
		{"optimistic + -geometry", "", "optimistic", []string{"geometry"}, []string{"optimistic protocol has no", "-geometry"}},
		{"optimistic + -commit-delay", "", "optimistic", []string{"commit-delay"}, []string{"optimistic protocol has no", "-commit-delay"}},
		{"optimistic + spec geometry", write("geom.toml", "geometry = \"majority\"\n"), "optimistic", nil, []string{"optimistic protocol has no", "geometry key"}},
		{"optimistic + spec commit_delay", write("delay.toml", "commit_delay = \"200us\"\n"), "optimistic", nil, []string{"optimistic protocol has no", "commit_delay key"}},
		{"optimistic + shards and fsync", "", "optimistic", []string{"shards", "fsync", "peers"}, nil},
		{"marp + -geometry -commit-delay", "", "marp", []string{"geometry", "commit-delay"}, nil},
	}
	for _, c := range cases {
		f := baseFlags()
		f.Spec, f.Protocol, f.Given = c.spec, c.protocol, map[string]bool{}
		for _, name := range c.given {
			f.Given[name] = true
		}
		_, _, _, err := resolveLive(f)
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
