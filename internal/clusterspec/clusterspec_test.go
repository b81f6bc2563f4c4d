package clusterspec

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/runtime"
)

const sampleTOML = `
# Three durable replicas on localhost.
name = "demo"
protocol = "marp"
shards = 4
geometry = "grid"
fsync = "commit"
commit_delay = "200us"
seed = 7
data_root = "/tmp/marp-demo"

[[node]]
id = 1
fabric = "127.0.0.1:7801"
client = "127.0.0.1:7707"
ops = "127.0.0.1:9101"

[[node]]
id = 2
fabric = "127.0.0.1:7802"   # trailing comment
client = "127.0.0.1:7708"
ops = "127.0.0.1:9102"

[[node]]
id = 3
fabric = "127.0.0.1:7803"
client = "127.0.0.1:7709"
ops = "127.0.0.1:9103"
data_dir = "/tmp/elsewhere"
`

func TestParseTOML(t *testing.T) {
	s, err := ParseTOML([]byte(sampleTOML))
	if err != nil {
		t.Fatalf("ParseTOML: %v", err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if s.Name != "demo" || s.Protocol != "marp" || s.Shards != 4 || s.Geometry != "grid" ||
		s.CommitDelay != "200us" || s.Seed != 7 {
		t.Errorf("top-level fields wrong: %+v", s)
	}
	if len(s.Nodes) != 3 {
		t.Fatalf("got %d nodes, want 3", len(s.Nodes))
	}
	if s.Nodes[1].Fabric != "127.0.0.1:7802" {
		t.Errorf("node 2 fabric = %q (comment stripping broken?)", s.Nodes[1].Fabric)
	}
	want := map[runtime.NodeID]string{1: "127.0.0.1:7801", 2: "127.0.0.1:7802", 3: "127.0.0.1:7803"}
	if got := s.FabricAddrs(); !reflect.DeepEqual(got, want) {
		t.Errorf("FabricAddrs = %v, want %v", got, want)
	}
	if s.Find(2) != &s.Nodes[1] || s.Find(9) != nil {
		t.Errorf("Find(2) = %v, Find(9) = %v: want node 2, then nil for a node the spec lacks", s.Find(2), s.Find(9))
	}
	if got := s.DataDirOf(1); got != filepath.Join("/tmp/marp-demo", "node-1") {
		t.Errorf("DataDirOf(1) = %q", got)
	}
	if got := s.DataDirOf(3); got != "/tmp/elsewhere" {
		t.Errorf("DataDirOf(3) = %q (explicit data_dir should win)", got)
	}
}

func TestParseTOMLErrors(t *testing.T) {
	cases := []struct{ name, in, wantErr string }{
		{"bad table", "[cluster]\n", "unsupported table"},
		{"no equals", "shards\n", "key = value"},
		{"unknown key", `color = "red"`, "unknown key"},
		{"unknown node key", "[[node]]\nport = 7\n", "unknown [[node]] key"},
		{"bare string", "name = demo\n", "bad value"},
		{"string for int", `shards = "4"`, "want an integer"},
		{"int for string", "name = 3\n", "want a quoted string"},
		{"missing value", "name =\n", "missing value"},
	}
	for _, c := range cases {
		if _, err := ParseTOML([]byte(c.in)); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
		}
	}
}

// TestUnknownKeysRefusedInBothFormats: a typo must not load as the default
// (fsync=commit, no client listener), and a leftover key of a deleted
// setting — the gob codec, migration-ack aggregation — must not load as if
// it still did something.
func TestUnknownKeysRefusedInBothFormats(t *testing.T) {
	cases := []struct{ name, toml, json string }{
		{"top-level typo",
			"fsnc = \"always\"\n[[node]]\nid = 1\nfabric = \"127.0.0.1:1\"\n",
			`{"fsnc":"always","nodes":[{"id":1,"fabric":"127.0.0.1:1"}]}`},
		{"node typo",
			"[[node]]\nid = 1\nfabric = \"127.0.0.1:1\"\nclinet = \"127.0.0.1:2\"\n",
			`{"nodes":[{"id":1,"fabric":"127.0.0.1:1","clinet":"127.0.0.1:2"}]}`},
		{"codec key",
			"codec = \"gob\"\n[[node]]\nid = 1\nfabric = \"127.0.0.1:1\"\n",
			`{"codec":"gob","nodes":[{"id":1,"fabric":"127.0.0.1:1"}]}`},
		{"ack_delay key",
			"ack_delay = \"500us\"\n[[node]]\nid = 1\nfabric = \"127.0.0.1:1\"\n",
			`{"ack_delay":"500us","nodes":[{"id":1,"fabric":"127.0.0.1:1"}]}`},
	}
	dir := t.TempDir()
	for _, c := range cases {
		for ext, body := range map[string]string{".toml": c.toml, ".json": c.json} {
			path := filepath.Join(dir, "spec"+ext)
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "unknown") {
				t.Errorf("%s (%s): err = %v, want an unknown-key refusal", c.name, ext, err)
			}
		}
	}
	if _, err := ParseJSON([]byte(`{"nodes":[]} {"nodes":[]}`)); err == nil {
		t.Error("trailing data after the spec object accepted")
	}
}

func validSpec() *Spec {
	return &Spec{
		Shards:   2,
		Geometry: "majority",
		Nodes: []Node{
			{ID: 1, Fabric: "127.0.0.1:7801", Client: "127.0.0.1:7707", Ops: "127.0.0.1:9101"},
			{ID: 2, Fabric: "127.0.0.1:7802"},
			{ID: 3, Fabric: "127.0.0.1:7803"},
		},
	}
}

func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantErr string
	}{
		{"no nodes", func(s *Spec) { s.Nodes = nil }, "no nodes"},
		{"duplicate id", func(s *Spec) { s.Nodes[1].ID = 1 }, "duplicate node id"},
		{"zero id", func(s *Spec) { s.Nodes[0].ID = 0 }, "want >= 1"},
		{"missing fabric", func(s *Spec) { s.Nodes[2].Fabric = "" }, "missing address"},
		{"unparseable fabric", func(s *Spec) { s.Nodes[0].Fabric = "localhost" }, "bad address"},
		{"hostless fabric", func(s *Spec) { s.Nodes[0].Fabric = ":7801" }, "no host"},
		{"duplicate address", func(s *Spec) { s.Nodes[1].Fabric = "127.0.0.1:7801" }, "already used"},
		{"bad client", func(s *Spec) { s.Nodes[0].Client = "nope" }, "bad address"},
		{"bad geometry", func(s *Spec) { s.Geometry = "ring" }, "geometry"},
		{"bad fsync", func(s *Spec) { s.Fsync = "sometimes" }, "fsync"},
		{"bad delay", func(s *Spec) { s.CommitDelay = "fast" }, "commit_delay"},
		{"negative delay", func(s *Spec) { s.CommitDelay = "-1ms" }, "negative"},
		{"unknown protocol", func(s *Spec) { s.Protocol = "paxos" }, "unknown protocol"},
		// A setting the chosen protocol does not have is refused, not dropped.
		{"optimistic + geometry", func(s *Spec) { s.Protocol = "optimistic" }, "no quorum geometry: remove the geometry key"},
		{"optimistic + commit_delay", func(s *Spec) {
			s.Protocol, s.Geometry, s.CommitDelay = "optimistic", "", "200us"
		}, "no group commit: remove the commit_delay key"},
	}
	for _, c := range cases {
		s := validSpec()
		c.mutate(s)
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErr)
		}
	}
	valid := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"as built", func(*Spec) {}},
		{"marp + geometry + commit_delay", func(s *Spec) { s.Protocol, s.CommitDelay = "marp", "200us" }},
		{"optimistic + shards and fsync", func(s *Spec) { s.Protocol, s.Geometry, s.Fsync = "optimistic", "", "none" }},
		{"wal.ParsePolicy's upper-case spelling", func(s *Spec) { s.Fsync = "ALWAYS" }},
	}
	for _, c := range valid {
		s := validSpec()
		c.mutate(s)
		if err := s.Validate(); err != nil {
			t.Errorf("%s: valid spec rejected: %v", c.name, err)
		}
	}
}

func TestLoadJSONAndTOML(t *testing.T) {
	dir := t.TempDir()
	tomlPath := filepath.Join(dir, "c.toml")
	if err := os.WriteFile(tomlPath, []byte(sampleTOML), 0o644); err != nil {
		t.Fatal(err)
	}
	fromTOML, err := Load(tomlPath)
	if err != nil {
		t.Fatalf("Load toml: %v", err)
	}
	jsonPath := filepath.Join(dir, "c.json")
	if err := os.WriteFile(jsonPath, []byte(`{
		"name": "demo", "protocol": "marp", "shards": 4, "geometry": "grid", "fsync": "commit",
		"commit_delay": "200us", "seed": 7, "data_root": "/tmp/marp-demo",
		"nodes": [
			{"id": 1, "fabric": "127.0.0.1:7801", "client": "127.0.0.1:7707", "ops": "127.0.0.1:9101"},
			{"id": 2, "fabric": "127.0.0.1:7802", "client": "127.0.0.1:7708", "ops": "127.0.0.1:9102"},
			{"id": 3, "fabric": "127.0.0.1:7803", "client": "127.0.0.1:7709", "ops": "127.0.0.1:9103", "data_dir": "/tmp/elsewhere"}
		]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := Load(jsonPath)
	if err != nil {
		t.Fatalf("Load json: %v", err)
	}
	if !reflect.DeepEqual(fromTOML, fromJSON) {
		t.Errorf("TOML and JSON forms disagree:\ntoml: %+v\njson: %+v", fromTOML, fromJSON)
	}
	if _, err := Load(filepath.Join(dir, "missing.toml")); err == nil {
		t.Error("Load of missing file succeeded")
	}
	badPath := filepath.Join(dir, "c.yaml")
	os.WriteFile(badPath, []byte("x"), 0o644)
	if _, err := Load(badPath); err == nil || !strings.Contains(err.Error(), "unknown spec format") {
		t.Errorf("Load .yaml err = %v", err)
	}
}
