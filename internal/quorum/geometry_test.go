package quorum

import (
	"testing"
	"testing/quick"

	"repro/internal/runtime"
)

func nodeRange(n int) []runtime.NodeID {
	out := make([]runtime.NodeID, n)
	for i := range out {
		out[i] = runtime.NodeID(i + 1)
	}
	return out
}

// geometries returns every Assignment under test for n replicas: equal and
// weighted voting plus the tree and grid constructions.
func geometries(t testing.TB, n int) []Assignment {
	nodes := nodeRange(n)
	weights := make(map[runtime.NodeID]int, n)
	for i, id := range nodes {
		weights[id] = 1 + i%3
	}
	out := []Assignment{Equal(nodes), Weighted(weights)}
	for _, g := range []Geometry{GeomTree, GeomGrid} {
		a, err := Build(g, nodes, nil)
		if err != nil {
			t.Fatalf("Build(%s, %d): %v", g, n, err)
		}
		out = append(out, a)
	}
	return out
}

func subset(nodes []runtime.NodeID, bits uint64) []runtime.NodeID {
	var out []runtime.NodeID
	for i, id := range nodes {
		if bits&(1<<uint(i)) != 0 {
			out = append(out, id)
		}
	}
	return out
}

func disjoint(a, b []runtime.NodeID) bool {
	in := make(map[runtime.NodeID]bool, len(a))
	for _, id := range a {
		in[id] = true
	}
	for _, id := range b {
		if in[id] {
			return false
		}
	}
	return true
}

// Property (ISSUE 6 satellite): for N in [3, 25] and every geometry —
// equal, weighted, tree, grid — any two write quorums intersect, and any
// write quorum intersects any read quorum.
func TestPropertyGeometryIntersection(t *testing.T) {
	f := func(nRaw uint8, pickA, pickB uint64) bool {
		n := 3 + int(nRaw)%23 // 3..25
		nodes := nodeRange(n)
		for _, a := range geometries(t, n) {
			w1, w2 := subset(nodes, pickA), subset(nodes, pickB)
			if a.HasWrite(w1) && a.HasWrite(w2) && disjoint(w1, w2) {
				t.Logf("%s n=%d: disjoint write quorums %v / %v", a.Name(), n, w1, w2)
				return false
			}
			if a.HasWrite(w1) && a.HasRead(w2) && disjoint(w1, w2) {
				t.Logf("%s n=%d: write %v disjoint from read %v", a.Name(), n, w1, w2)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// The construction-time check enumerates minimal write quorums; their
// complements must hold neither a write nor a read quorum for every size.
func TestGeometryConstructionCheck(t *testing.T) {
	for n := 1; n <= 25; n++ {
		for _, g := range []Geometry{GeomTree, GeomGrid} {
			if _, err := Build(g, nodeRange(n), nil); err != nil {
				t.Fatalf("Build(%s, %d): %v", g, n, err)
			}
		}
	}
}

// Acceptance: grid write quorums stay within 2⌈√N⌉−1 replicas and a
// minimal write quorum of that size really exists.
func TestGridMinWriteBound(t *testing.T) {
	for n := 1; n <= 64; n++ {
		g := NewGrid(nodeRange(n))
		cols := 1
		for cols*cols < n {
			cols++
		}
		if g.MinWrite() > 2*cols-1 {
			t.Fatalf("n=%d: MinWrite=%d > 2⌈√N⌉−1=%d", n, g.MinWrite(), 2*cols-1)
		}
		const cap = 100000
		ws := g.minimalWrites(cap)
		best := n + 1
		for _, w := range ws {
			if !g.HasWrite(w) {
				t.Fatalf("n=%d: enumerated non-quorum %v", n, w)
			}
			if len(w) < best {
				best = len(w)
			}
		}
		// The enumeration is truncated at the cap for very large grids;
		// only a complete enumeration must contain a quorum of MinWrite.
		if len(ws) < cap && best != g.MinWrite() {
			t.Fatalf("n=%d: smallest enumerated=%d, MinWrite=%d", n, best, g.MinWrite())
		}
	}
}

// Tree write quorums shrink below the vote majority once N is large
// enough, and every enumerated minimal quorum verifies.
func TestTreeMinWrite(t *testing.T) {
	tr := NewTree(nodeRange(9))
	if tr.MinWrite() != 4 {
		t.Fatalf("ternary tree over 9: MinWrite=%d, want 4", tr.MinWrite())
	}
	for _, w := range tr.minimalWrites(100000) {
		if !tr.HasWrite(w) {
			t.Fatalf("enumerated non-quorum %v", w)
		}
	}
	if tr.HasWrite(nodeRange(3)) {
		// {1,2,3} is exactly one child subtree of the 9-leaf tree: one
		// of three children is not a majority.
		t.Fatal("single subtree must not be a write quorum")
	}
}

func TestBuildRejectsUnknownGeometry(t *testing.T) {
	if _, err := Build("hexagon", nodeRange(4), nil); err == nil {
		t.Fatal("expected error for unknown geometry")
	}
	if _, err := ParseGeometry("hexagon"); err == nil {
		t.Fatal("expected parse error")
	}
	if g, err := ParseGeometry(""); err != nil || g != GeomMajority {
		t.Fatalf("empty geometry = %q, %v; want majority", g, err)
	}
}

func TestVotingMinWrite(t *testing.T) {
	if mw := Equal(nodeRange(5)).MinWrite(); mw != 3 {
		t.Fatalf("equal/5 MinWrite=%d, want 3", mw)
	}
	w := Weighted(map[runtime.NodeID]int{1: 3, 2: 1, 3: 1})
	if mw := w.MinWrite(); mw != 1 {
		t.Fatalf("weighted MinWrite=%d, want 1 (node 1 alone)", mw)
	}
}
