package desengine

import (
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/optimistic"
	"repro/internal/simnet"
)

// TestAssembliesShareTheSizeChecks: every assembly (MARP in one process
// and as processes, the optimistic tier, the baselines) refuses a cluster
// of no nodes and a topology smaller than the cluster, through the one
// helper, before it builds anything; and a well-sized one builds.
func TestAssembliesShareTheSizeChecks(t *testing.T) {
	build := map[string]func(n int, topo *simnet.Topology) error{
		"core": func(n int, topo *simnet.Topology) error {
			_, err := New(Config{Topology: topo, Cluster: core.Config{N: n}})
			return err
		},
		"core processes": func(n int, topo *simnet.Topology) error {
			_, err := NewProcesses(Config{Topology: topo, Cluster: core.Config{N: n}})
			return err
		},
		"optimistic": func(n int, topo *simnet.Topology) error {
			_, err := NewOptimistic(OptConfig{Topology: topo, Cluster: optimistic.Config{N: n}})
			return err
		},
		"baseline": func(n int, topo *simnet.Topology) error {
			_, err := NewBaseline(BaselineConfig{Topology: topo, Cluster: baseline.Config{N: n}})
			return err
		},
	}
	for name, mk := range build {
		pkg, _, _ := strings.Cut(name, " ") // the protocol its errors name
		for _, c := range []struct {
			n    int
			topo *simnet.Topology
			want string
		}{
			{0, nil, pkg + ": config needs N >= 1, got 0"},
			{5, simnet.FullMesh(2), pkg + ": topology has 2 nodes, need 5"},
		} {
			err := mk(c.n, c.topo)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s with N=%d: error %v, want %q", name, c.n, err, c.want)
			}
		}
		if err := mk(3, nil); err != nil {
			t.Errorf("%s with N=3 on the default topology: %v", name, err)
		}
	}
}
