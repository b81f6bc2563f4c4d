package quorum

import (
	"testing"
	"testing/quick"

	"repro/internal/runtime"
)

func ids(ns ...int) []runtime.NodeID {
	out := make([]runtime.NodeID, len(ns))
	for i, n := range ns {
		out[i] = runtime.NodeID(n)
	}
	return out
}

func TestEqualAssignment(t *testing.T) {
	a := Equal(ids(1, 2, 3, 4, 5))
	if a.Total() != 5 || a.Majority() != 3 {
		t.Fatalf("total=%d majority=%d", a.Total(), a.Majority())
	}
	if a.Votes(3) != 1 || a.Votes(9) != 0 {
		t.Fatal("votes wrong")
	}
}

func TestMajorityEvenCount(t *testing.T) {
	a := Equal(ids(1, 2, 3, 4))
	if a.Majority() != 3 {
		t.Fatalf("majority of 4 = %d, want 3", a.Majority())
	}
}

func TestWeighted(t *testing.T) {
	a := Weighted(map[runtime.NodeID]int{1: 3, 2: 1, 3: 1})
	if a.Total() != 5 || a.Majority() != 3 {
		t.Fatalf("total=%d majority=%d", a.Total(), a.Majority())
	}
	if !a.IsMajority(ids(1)) {
		t.Fatal("node with 3/5 votes should be a majority alone")
	}
	if a.IsMajority(ids(2, 3)) {
		t.Fatal("2/5 votes is not a majority")
	}
}

func TestWeightedRejectsNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Weighted(map[runtime.NodeID]int{1: 0})
}

func TestCountDeduplicates(t *testing.T) {
	a := Equal(ids(1, 2, 3))
	if a.Count(ids(1, 1, 1)) != 1 {
		t.Fatal("duplicates double counted")
	}
}

func TestNodesSorted(t *testing.T) {
	a := Equal(ids(5, 2, 9, 1))
	got := a.Nodes()
	want := ids(1, 2, 5, 9)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Nodes = %v", got)
		}
	}
}

// Property: any two sets that each hold a majority of the votes intersect.
func TestPropertyQuorumIntersection(t *testing.T) {
	f := func(n uint8, pickA, pickB uint64) bool {
		size := int(n%7) + 1 // 1..7 replicas
		nodes := make([]runtime.NodeID, size)
		for i := range nodes {
			nodes[i] = runtime.NodeID(i + 1)
		}
		v := Equal(nodes)
		subset := func(bits uint64) []runtime.NodeID {
			var out []runtime.NodeID
			for i, id := range nodes {
				if bits&(1<<uint(i)) != 0 {
					out = append(out, id)
				}
			}
			return out
		}
		a, b := subset(pickA), subset(pickB)
		if v.Count(a) < v.Majority() || v.Count(b) < v.Majority() {
			return true // vacuous
		}
		inA := make(map[runtime.NodeID]bool)
		for _, id := range a {
			inA[id] = true
		}
		for _, id := range b {
			if inA[id] {
				return true
			}
		}
		return false // two disjoint write quorums: safety violation
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: majority is the minimal count that guarantees intersection.
func TestPropertyMajorityMinimal(t *testing.T) {
	f := func(n uint8) bool {
		size := int(n%9) + 1
		nodes := make([]runtime.NodeID, size)
		for i := range nodes {
			nodes[i] = runtime.NodeID(i + 1)
		}
		a := Equal(nodes)
		m := a.Majority()
		// m votes exceed half; m-1 votes do not.
		return 2*m > size && 2*(m-1) <= size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
