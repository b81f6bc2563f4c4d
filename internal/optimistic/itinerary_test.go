package optimistic

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/runtime"
	"repro/internal/simnet"
)

// TestItinerariesVisitEveryPeerOnce: for N = 2…9 every launch's hops are a
// permutation of the other N−1 replicas, and over φ(N) consecutive launches
// one replica's first hop takes every stride coprime to N. N=4 and N=6 are
// where a stride that merely differs from N fails: 2 revisits a node at
// N=4, and 2, 3 and 4 do at N=6.
func TestItinerariesVisitEveryPeerOnce(t *testing.T) {
	for n := 2; n <= 9; n++ {
		var coprime []int
		for s := 1; s < n; s++ {
			if gcd(s, n) == 1 {
				coprime = append(coprime, s)
			}
		}
		for from := runtime.NodeID(1); int(from) <= n; from++ {
			for _, start := range []uint64{0, 5, 1 << 40} {
				var strides []int
				for k := start; k < start+uint64(len(coprime)); k++ {
					hops := itinerary(from, n, k)
					var others []runtime.NodeID
					for id := runtime.NodeID(1); int(id) <= n; id++ {
						if id != from {
							others = append(others, id)
						}
					}
					sorted := slices.Clone(hops)
					slices.Sort(sorted)
					if !reflect.DeepEqual(sorted, others) {
						t.Fatalf("N=%d: launch %d from %d visits %v, want each of %v once", n, k, from, hops, others)
					}
					strides = append(strides, (int(hops[0])-int(from)+n)%n)
				}
				slices.Sort(strides)
				if !reflect.DeepEqual(strides, coprime) {
					t.Fatalf("N=%d: launches %d… from %d leave by strides %v, want each of %v", n, start, from, strides, coprime)
				}
			}
		}
	}
	for _, tc := range []struct {
		n    int
		k    uint64
		want []runtime.NodeID
	}{
		{4, 0, []runtime.NodeID{2, 3, 4}},
		{4, 1, []runtime.NodeID{4, 3, 2}},
		{4, 2, []runtime.NodeID{2, 3, 4}},
		{6, 0, []runtime.NodeID{2, 3, 4, 5, 6}},
		{6, 1, []runtime.NodeID{6, 5, 4, 3, 2}},
		{5, 1, []runtime.NodeID{3, 5, 2, 4}},
	} {
		if got := itinerary(1, tc.n, tc.k); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("N=%d: launch %d from 1 visits %v, want %v", tc.n, tc.k, got, tc.want)
		}
	}
}

// TestLaunchesTakeTheirItineraries: the agents a replica actually launches
// follow the rule, launch counter by launch counter.
func TestLaunchesTakeTheirItineraries(t *testing.T) {
	const n = 5
	sim := des.New(1)
	net := simnet.New(sim, simnet.FullMesh(n), simnet.LAN())
	c, err := NewCluster(sim, net, Config{N: n, GossipInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	launched := 0
	for _, id := range c.nodes {
		r := c.reps[id]
		net.Attach(id, runtime.HandlerFunc(func(msg runtime.Message) {
			ag := msg.Payload.(*Recon)
			if ag.Hop == 0 {
				if want := itinerary(ag.From, n, ag.Seq); !reflect.DeepEqual(ag.Hops, want) {
					t.Errorf("launch %d from %d visits %v, want %v", ag.Seq, ag.From, ag.Hops, want)
				}
				launched++
			}
			r.onRecon(ag)
		}))
	}
	c.Settle(time.Second)
	if launched < 4*n {
		t.Fatalf("%d launches in a second, want one every 20 ms from each of %d replicas", launched, n)
	}
}
