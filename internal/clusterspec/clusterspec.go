// Package clusterspec is the declarative description of a live MARP
// cluster: which nodes exist, where they listen (fabric, client, ops),
// which protocol they run, how the key space is sharded, which quorum
// geometry and fsync policy apply, and where durable state lives. It is
// the only source of the settings every process must agree on:
// `marpd -spec cluster.toml -node 2` reads them from the file, and its
// flags add only what belongs to one process.
//
// Specs load from JSON (stdlib) or from a deliberately small TOML
// subset parsed by hand (the toolchain bakes in no TOML dependency):
// comments, top-level `key = value` pairs, and `[[node]]` array tables
// with string/integer values. That subset is exactly what a cluster
// spec needs; anything fancier is rejected with a line number.
package clusterspec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/quorum"
	"repro/internal/runtime"
	"repro/internal/wal"
)

// Node is one replica process in the cluster.
type Node struct {
	// ID is the replica's node ID (unique, >= 1).
	ID int `json:"id"`
	// Fabric is the host:port the replica's fabric listener binds and
	// peers dial; required, and the host part must be non-empty so other
	// nodes can reach it.
	Fabric string `json:"fabric"`
	// Client is the host:port for the line-JSON client protocol
	// (marpctl). Empty here means marpd's -addr must give it.
	Client string `json:"client,omitempty"`
	// Ops is the optional host:port for the ops listener (/metrics,
	// /healthz). Empty = no ops listener.
	Ops string `json:"ops,omitempty"`
	// DataDir is the replica's durability directory. Empty with a
	// spec-level DataRoot means DataRoot/node-<ID>; empty without one
	// means the replica runs volatile.
	DataDir string `json:"data_dir,omitempty"`
}

// Spec is a whole cluster's declarative description.
type Spec struct {
	// Name labels the cluster in diagnostics. Optional.
	Name string `json:"name,omitempty"`
	// Protocol is the replication protocol every process runs: marp
	// (default; pessimistic locking agents) or optimistic (tentative
	// commits and reconciliation agents).
	Protocol string `json:"protocol,omitempty"`
	// Shards is the key-space shard count (default 1).
	Shards int `json:"shards,omitempty"`
	// Geometry is the quorum geometry: majority (default), grid, tree.
	Geometry string `json:"geometry,omitempty"`
	// Fsync is the WAL fsync policy when a node is durable: commit
	// (default), always, none.
	Fsync string `json:"fsync,omitempty"`
	// CommitDelay is the WAL group-commit window as a Go duration
	// string ("200us"); empty = fsync per commit.
	CommitDelay string `json:"commit_delay,omitempty"`
	// Seed is the per-process random seed (default 1).
	Seed int64 `json:"seed,omitempty"`
	// DataRoot, when set, gives every node without an explicit DataDir
	// the directory DataRoot/node-<ID>.
	DataRoot string `json:"data_root,omitempty"`
	// Nodes lists the cluster's replicas.
	Nodes []Node `json:"nodes"`
}

// Load reads and validates a spec file; the extension picks the format
// (.json or .toml).
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s *Spec
	switch ext := strings.ToLower(filepath.Ext(path)); ext {
	case ".json":
		s, err = ParseJSON(data)
	case ".toml":
		s, err = ParseTOML(data)
	default:
		return nil, fmt.Errorf("clusterspec: unknown spec format %q (want .json or .toml)", ext)
	}
	if err != nil {
		return nil, fmt.Errorf("clusterspec: %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("clusterspec: %s: %w", path, err)
	}
	return s, nil
}

// ParseJSON parses (but does not validate) a JSON spec. Like ParseTOML it
// refuses a key it does not know: a typo must not load as the default.
func ParseJSON(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("trailing data after the spec object")
	}
	return &s, nil
}

// ParseTOML parses (but does not validate) a spec in the supported TOML
// subset: '#' comments, top-level `key = value` pairs, `[[node]]` array
// tables, values either double-quoted strings or integers.
func ParseTOML(data []byte) (*Spec, error) {
	s := &Spec{}
	var cur *Node
	for i, raw := range strings.Split(string(data), "\n") {
		lineNo := i + 1
		line := strings.TrimSpace(stripComment(raw))
		if line == "" {
			continue
		}
		if line == "[[node]]" {
			s.Nodes = append(s.Nodes, Node{})
			cur = &s.Nodes[len(s.Nodes)-1]
			continue
		}
		if strings.HasPrefix(line, "[") {
			return nil, fmt.Errorf("line %d: unsupported table %s (only [[node]])", lineNo, line)
		}
		key, rawVal, found := strings.Cut(line, "=")
		if !found {
			return nil, fmt.Errorf("line %d: expected key = value", lineNo)
		}
		key = strings.TrimSpace(key)
		str, num, isStr, err := parseValue(strings.TrimSpace(rawVal))
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if err := assign(s, cur, key, str, num, isStr); err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
	}
	return s, nil
}

// stripComment removes a trailing '#' comment, respecting double quotes.
func stripComment(line string) string {
	inQuote := false
	for i := 0; i < len(line); i++ {
		switch line[i] {
		case '"':
			// The subset has no escapes inside strings except what
			// strconv.Unquote handles; a backslash-quote stays quoted.
			if i == 0 || line[i-1] != '\\' {
				inQuote = !inQuote
			}
		case '#':
			if !inQuote {
				return line[:i]
			}
		}
	}
	return line
}

// parseValue parses a TOML-subset value: quoted string or integer.
func parseValue(v string) (str string, num int64, isStr bool, err error) {
	if v == "" {
		return "", 0, false, fmt.Errorf("missing value")
	}
	if v[0] == '"' {
		s, err := strconv.Unquote(v)
		if err != nil {
			return "", 0, false, fmt.Errorf("bad string %s", v)
		}
		return s, 0, true, nil
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		return "", 0, false, fmt.Errorf("bad value %s (want \"string\" or integer)", v)
	}
	return "", n, false, nil
}

func assign(s *Spec, cur *Node, key, str string, num int64, isStr bool) error {
	wantStr := func(dst *string) error {
		if !isStr {
			return fmt.Errorf("%s: want a quoted string", key)
		}
		*dst = str
		return nil
	}
	wantInt := func(dst *int64) error {
		if isStr {
			return fmt.Errorf("%s: want an integer", key)
		}
		*dst = num
		return nil
	}
	if cur != nil {
		switch key {
		case "id":
			var v int64
			if err := wantInt(&v); err != nil {
				return err
			}
			cur.ID = int(v)
			return nil
		case "fabric":
			return wantStr(&cur.Fabric)
		case "client":
			return wantStr(&cur.Client)
		case "ops":
			return wantStr(&cur.Ops)
		case "data_dir":
			return wantStr(&cur.DataDir)
		}
		return fmt.Errorf("unknown [[node]] key %q", key)
	}
	switch key {
	case "name":
		return wantStr(&s.Name)
	case "protocol":
		return wantStr(&s.Protocol)
	case "shards":
		var v int64
		if err := wantInt(&v); err != nil {
			return err
		}
		s.Shards = int(v)
		return nil
	case "geometry":
		return wantStr(&s.Geometry)
	case "fsync":
		return wantStr(&s.Fsync)
	case "commit_delay":
		return wantStr(&s.CommitDelay)
	case "seed":
		return wantInt(&s.Seed)
	case "data_root":
		return wantStr(&s.DataRoot)
	}
	return fmt.Errorf("unknown key %q", key)
}

// Validate checks the spec's internal consistency: at least one node,
// unique positive IDs, required and parseable fabric addresses, no
// address claimed twice, known protocol/geometry/fsync, parseable delays,
// and no setting the chosen protocol does not have.
func (s *Spec) Validate() error {
	if len(s.Nodes) == 0 {
		return fmt.Errorf("spec has no nodes")
	}
	switch s.Protocol {
	case "", "marp":
	case "optimistic":
		// Refused rather than dropped: the optimistic protocol has no
		// quorum to shape and commits without a WAL group-commit window.
		if s.Geometry != "" {
			return fmt.Errorf("the optimistic protocol has no quorum geometry: remove the geometry key")
		}
		if s.CommitDelay != "" {
			return fmt.Errorf("the optimistic protocol has no group commit: remove the commit_delay key")
		}
	default:
		return fmt.Errorf("unknown protocol %q (want marp or optimistic)", s.Protocol)
	}
	if s.Shards < 0 {
		return fmt.Errorf("shards = %d, want >= 1", s.Shards)
	}
	if _, err := quorum.ParseGeometry(s.Geometry); err != nil {
		return err
	}
	if _, err := wal.ParsePolicy(s.Fsync); err != nil {
		return err
	}
	if s.CommitDelay != "" {
		d, err := time.ParseDuration(s.CommitDelay)
		if err != nil {
			return fmt.Errorf("bad commit_delay %q: %v", s.CommitDelay, err)
		}
		if d < 0 {
			return fmt.Errorf("negative commit_delay %q", s.CommitDelay)
		}
	}
	seenID := make(map[int]bool)
	seenAddr := make(map[string]string) // addr -> "node 2 fabric"
	claim := func(addr, what string, required bool) error {
		if addr == "" {
			if required {
				return fmt.Errorf("%s: missing address", what)
			}
			return nil
		}
		host, _, err := net.SplitHostPort(addr)
		if err != nil {
			return fmt.Errorf("%s: bad address %q: %v", what, addr, err)
		}
		if required && host == "" {
			return fmt.Errorf("%s: address %q has no host (peers must be able to dial it)", what, addr)
		}
		if prev, dup := seenAddr[addr]; dup {
			return fmt.Errorf("%s: address %q already used by %s", what, addr, prev)
		}
		seenAddr[addr] = what
		return nil
	}
	for _, n := range s.Nodes {
		if n.ID < 1 {
			return fmt.Errorf("node id %d, want >= 1", n.ID)
		}
		if seenID[n.ID] {
			return fmt.Errorf("duplicate node id %d", n.ID)
		}
		seenID[n.ID] = true
		what := fmt.Sprintf("node %d", n.ID)
		if err := claim(n.Fabric, what+" fabric", true); err != nil {
			return err
		}
		if err := claim(n.Client, what+" client", false); err != nil {
			return err
		}
		if err := claim(n.Ops, what+" ops", false); err != nil {
			return err
		}
	}
	return nil
}

// Find returns the node with the given ID, or nil.
func (s *Spec) Find(id int) *Node {
	for i := range s.Nodes {
		if s.Nodes[i].ID == id {
			return &s.Nodes[i]
		}
	}
	return nil
}

// IDs returns the node IDs in ascending order.
func (s *Spec) IDs() []int {
	ids := make([]int, 0, len(s.Nodes))
	for _, n := range s.Nodes {
		ids = append(ids, n.ID)
	}
	sort.Ints(ids)
	return ids
}

// FabricAddrs returns the fabric address map every live replica process
// must agree on.
func (s *Spec) FabricAddrs() map[runtime.NodeID]string {
	addrs := make(map[runtime.NodeID]string, len(s.Nodes))
	for _, n := range s.Nodes {
		addrs[runtime.NodeID(n.ID)] = n.Fabric
	}
	return addrs
}

// DataDirOf returns the durability directory for a node: its explicit
// DataDir, else DataRoot/node-<id>, else "" (volatile).
func (s *Spec) DataDirOf(id int) string {
	n := s.Find(id)
	if n == nil {
		return ""
	}
	if n.DataDir != "" {
		return n.DataDir
	}
	if s.DataRoot != "" {
		return filepath.Join(s.DataRoot, fmt.Sprintf("node-%d", id))
	}
	return ""
}
