// Structured quorum geometries: the grid and the hierarchical (tree)
// protocols of "A Novel Quorum Protocol" (see PAPERS.md). Both shrink write
// quorums from the vote majority's ⌈N/2⌉+1 replicas toward O(√N) while
// preserving the two intersection invariants the replication protocol
// depends on. Construction is intersection-checked: Build enumerates each
// geometry's minimal write quorums and verifies, via the complement trick,
// that no write quorum is disjoint from another write quorum or from any
// read quorum; a geometry that fails the check never reaches the protocol.
package quorum

import (
	"fmt"
	"sort"

	"repro/internal/runtime"
)

// Geometry names a quorum construction selectable from configuration.
type Geometry string

// The supported geometries.
const (
	// GeomMajority is vote counting: write = read = majority of votes.
	GeomMajority Geometry = "majority"
	// GeomGrid arranges the replicas in a ⌈√N⌉-column grid; a write
	// quorum is one full column plus one replica from every other
	// column (≤ 2⌈√N⌉−1 replicas), a read quorum is one replica per
	// column (⌈√N⌉ replicas).
	GeomGrid Geometry = "grid"
	// GeomTree organizes the replicas as leaves of a ternary tree and
	// takes recursive majorities of subtrees; write quorums shrink to
	// O(N^0.63) with read = write.
	GeomTree Geometry = "tree"
)

// Build constructs the named geometry over nodes. Votes are honored only
// by GeomMajority (nil votes = one vote each); the structured geometries
// treat replicas uniformly. Every non-majority construction is
// intersection-checked before being returned.
func Build(g Geometry, nodes []runtime.NodeID, votes map[runtime.NodeID]int) (Assignment, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("quorum: no nodes for geometry %q", g)
	}
	switch g {
	case GeomMajority, "":
		if votes != nil {
			return Weighted(votes), nil
		}
		return Equal(nodes), nil
	case GeomGrid:
		a := NewGrid(nodes)
		if err := checkIntersection(a); err != nil {
			return nil, err
		}
		return a, nil
	case GeomTree:
		a := NewTree(nodes)
		if err := checkIntersection(a); err != nil {
			return nil, err
		}
		return a, nil
	default:
		return nil, fmt.Errorf("quorum: unknown geometry %q", g)
	}
}

// ParseGeometry validates a configuration string.
func ParseGeometry(s string) (Geometry, error) {
	switch Geometry(s) {
	case "", GeomMajority:
		return GeomMajority, nil
	case GeomGrid:
		return GeomGrid, nil
	case GeomTree:
		return GeomTree, nil
	}
	return "", fmt.Errorf("quorum: unknown geometry %q (want majority, grid or tree)", s)
}

// minimalWriter is implemented by geometries that can enumerate their
// minimal write quorums, enabling the construction-time intersection check.
type minimalWriter interface {
	minimalWrites(cap int) [][]runtime.NodeID
}

// checkIntersection verifies W∩W and W∩R intersection for a geometry by
// the complement trick: a monotone quorum system has two disjoint write
// quorums iff the complement of some MINIMAL write quorum still contains a
// write quorum, and a write/read disjointness iff such a complement
// contains a read quorum. Enumeration is capped; the geometries built here
// stay far under the cap for every group size the cluster configures.
func checkIntersection(a Assignment) error {
	mw, ok := a.(minimalWriter)
	if !ok {
		return nil
	}
	const cap = 100000
	nodes := a.Nodes()
	for _, w := range mw.minimalWrites(cap) {
		in := make(map[runtime.NodeID]bool, len(w))
		for _, n := range w {
			in[n] = true
		}
		comp := make([]runtime.NodeID, 0, len(nodes)-len(w))
		for _, n := range nodes {
			if !in[n] {
				comp = append(comp, n)
			}
		}
		if a.HasWrite(comp) {
			return fmt.Errorf("quorum: %s over %d nodes admits disjoint write quorums (%v vs its complement)", a.Name(), len(nodes), w)
		}
		if a.HasRead(comp) {
			return fmt.Errorf("quorum: %s over %d nodes admits a read quorum disjoint from write quorum %v", a.Name(), len(nodes), w)
		}
	}
	return nil
}

// Grid is the grid quorum protocol: replicas in ascending order fill a
// row-major grid with ⌈√N⌉ columns. A write quorum owns one full column
// and covers every column; a read quorum covers every column.
type Grid struct {
	nodes []runtime.NodeID // ascending, row-major
	cols  int
}

// NewGrid arranges nodes into a grid. The construction is deterministic:
// nodes are sorted ascending and laid out row-major.
func NewGrid(nodes []runtime.NodeID) Grid {
	sorted := make([]runtime.NodeID, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	cols := 1
	for cols*cols < len(sorted) {
		cols++
	}
	return Grid{nodes: sorted, cols: cols}
}

// Nodes returns the replicas in ascending order.
func (g Grid) Nodes() []runtime.NodeID {
	out := make([]runtime.NodeID, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// column returns the replicas of column c (may be shorter in the last row).
func (g Grid) column(c int) []runtime.NodeID {
	var out []runtime.NodeID
	for i := c; i < len(g.nodes); i += g.cols {
		out = append(out, g.nodes[i])
	}
	return out
}

func (g Grid) membership(nodes []runtime.NodeID) map[runtime.NodeID]bool {
	in := make(map[runtime.NodeID]bool, len(nodes))
	for _, n := range nodes {
		in[n] = true
	}
	return in
}

// HasWrite reports whether nodes own one full column and touch every
// column.
func (g Grid) HasWrite(nodes []runtime.NodeID) bool {
	in := g.membership(nodes)
	full := false
	for c := 0; c < g.cols && c < len(g.nodes); c++ {
		col := g.column(c)
		hit, all := false, true
		for _, n := range col {
			if in[n] {
				hit = true
			} else {
				all = false
			}
		}
		if !hit {
			return false
		}
		if all {
			full = true
		}
	}
	return full
}

// HasRead reports whether nodes touch every column. Any full column (owned
// by every write quorum) then intersects the cover.
func (g Grid) HasRead(nodes []runtime.NodeID) bool {
	in := g.membership(nodes)
	for c := 0; c < g.cols && c < len(g.nodes); c++ {
		hit := false
		for _, n := range g.column(c) {
			if in[n] {
				hit = true
				break
			}
		}
		if !hit {
			return false
		}
	}
	return true
}

// Score counts the member replicas — tie-break strength.
func (g Grid) Score(nodes []runtime.NodeID) int {
	in := g.membership(nodes)
	count := 0
	for _, n := range g.nodes {
		if in[n] {
			count++
		}
	}
	return count
}

// MinWrite returns the size of a smallest write quorum: the shortest full
// column plus one replica from each remaining column, ≤ 2⌈√N⌉−1.
func (g Grid) MinWrite() int {
	ncols := g.cols
	if len(g.nodes) < ncols {
		ncols = len(g.nodes)
	}
	shortest := len(g.nodes)
	for c := 0; c < ncols; c++ {
		if h := len(g.column(c)); h < shortest {
			shortest = h
		}
	}
	return shortest + ncols - 1
}

// Name identifies the geometry.
func (g Grid) Name() string { return "grid" }

// minimalWrites enumerates every minimal write quorum: choose the full
// column, then one replica from each other column.
func (g Grid) minimalWrites(cap int) [][]runtime.NodeID {
	ncols := g.cols
	if len(g.nodes) < ncols {
		ncols = len(g.nodes)
	}
	var out [][]runtime.NodeID
	for full := 0; full < ncols; full++ {
		picks := [][]runtime.NodeID{g.column(full)}
		for c := 0; c < ncols; c++ {
			if c == full {
				continue
			}
			var next [][]runtime.NodeID
			for _, p := range picks {
				for _, n := range g.column(c) {
					q := make([]runtime.NodeID, len(p), len(p)+1)
					copy(q, p)
					next = append(next, append(q, n))
				}
				if len(next) > cap {
					break
				}
			}
			picks = next
		}
		out = append(out, picks...)
		if len(out) > cap {
			return out[:cap]
		}
	}
	return out
}

// Tree is the ternary hierarchical quorum consensus: replicas in ascending
// order are the leaves of a tree whose internal nodes have up to three
// children; a set is a quorum iff it satisfies a majority of the children
// at every level. Read and write quorums coincide.
type Tree struct {
	root  *treeNode
	nodes []runtime.NodeID
}

type treeNode struct {
	leaf     runtime.NodeID
	children []*treeNode
}

// NewTree builds the ternary hierarchy over the sorted nodes.
func NewTree(nodes []runtime.NodeID) Tree {
	sorted := make([]runtime.NodeID, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return Tree{root: buildTree(sorted), nodes: sorted}
}

func buildTree(nodes []runtime.NodeID) *treeNode {
	if len(nodes) == 1 {
		return &treeNode{leaf: nodes[0]}
	}
	fan := 3
	if len(nodes) < fan {
		fan = len(nodes)
	}
	n := &treeNode{children: make([]*treeNode, 0, fan)}
	base, extra := len(nodes)/fan, len(nodes)%fan
	at := 0
	for i := 0; i < fan; i++ {
		size := base
		if i < extra {
			size++
		}
		n.children = append(n.children, buildTree(nodes[at:at+size]))
		at += size
	}
	return n
}

// Nodes returns the replicas in ascending order.
func (t Tree) Nodes() []runtime.NodeID {
	out := make([]runtime.NodeID, len(t.nodes))
	copy(out, t.nodes)
	return out
}

func (n *treeNode) satisfied(in map[runtime.NodeID]bool) bool {
	if n.children == nil {
		return in[n.leaf]
	}
	need := len(n.children)/2 + 1
	got := 0
	for _, c := range n.children {
		if c.satisfied(in) {
			got++
		}
	}
	return got >= need
}

// HasWrite reports whether nodes satisfy a recursive child majority.
func (t Tree) HasWrite(nodes []runtime.NodeID) bool {
	in := make(map[runtime.NodeID]bool, len(nodes))
	for _, n := range nodes {
		in[n] = true
	}
	return t.root.satisfied(in)
}

// HasRead equals HasWrite: hierarchical quorum consensus is symmetric.
func (t Tree) HasRead(nodes []runtime.NodeID) bool { return t.HasWrite(nodes) }

// Score counts the member replicas — tie-break strength.
func (t Tree) Score(nodes []runtime.NodeID) int {
	in := make(map[runtime.NodeID]bool, len(nodes))
	for _, n := range nodes {
		in[n] = true
	}
	count := 0
	for _, n := range t.nodes {
		if in[n] {
			count++
		}
	}
	return count
}

func (n *treeNode) minWrite() int {
	if n.children == nil {
		return 1
	}
	need := len(n.children)/2 + 1
	sizes := make([]int, len(n.children))
	for i, c := range n.children {
		sizes[i] = c.minWrite()
	}
	sort.Ints(sizes)
	sum := 0
	for i := 0; i < need; i++ {
		sum += sizes[i]
	}
	return sum
}

// MinWrite returns the size of a smallest write quorum.
func (t Tree) MinWrite() int { return t.root.minWrite() }

// Name identifies the geometry.
func (t Tree) Name() string { return "tree" }

func (n *treeNode) minimalQuorums(cap int) [][]runtime.NodeID {
	if n.children == nil {
		return [][]runtime.NodeID{{n.leaf}}
	}
	need := len(n.children)/2 + 1
	var out [][]runtime.NodeID
	// Every child subset of exactly `need` children, cross product of
	// their minimal quorums.
	subsets := chooseIndexes(len(n.children), need)
	for _, sub := range subsets {
		picks := [][]runtime.NodeID{nil}
		for _, ci := range sub {
			childQs := n.children[ci].minimalQuorums(cap)
			var next [][]runtime.NodeID
			for _, p := range picks {
				for _, q := range childQs {
					merged := make([]runtime.NodeID, len(p), len(p)+len(q))
					copy(merged, p)
					next = append(next, append(merged, q...))
				}
				if len(next) > cap {
					break
				}
			}
			picks = next
		}
		out = append(out, picks...)
		if len(out) > cap {
			return out[:cap]
		}
	}
	return out
}

func chooseIndexes(n, k int) [][]int {
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == k {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(cur, i))
		}
	}
	rec(0, nil)
	return out
}

// minimalWrites enumerates the minimal write quorums for the construction
// check.
func (t Tree) minimalWrites(cap int) [][]runtime.NodeID {
	return t.root.minimalQuorums(cap)
}
