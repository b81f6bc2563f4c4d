package live_test

import (
	"errors"
	"net"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
)

// TestStartClusterRetriesBindRace: a reserved address can be taken before
// its node binds it. The bring-up must then close what it started and come
// up again on fresh addresses — here the start function itself occupies
// node 2's reserved address during the first attempt only — and the cluster
// it hands back must work.
func TestStartClusterRetriesBindRace(t *testing.T) {
	attempts := 0
	nodes, err := live.StartCluster(3, func(id runtime.NodeID, addrs map[runtime.NodeID]string) (*live.Node, error) {
		if id == 1 {
			if attempts++; attempts == 1 {
				squatter, err := net.Listen("tcp", addrs[2])
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { squatter.Close() })
			}
		}
		return live.StartNode(live.NodeConfig{Self: id, Addrs: addrs, Seed: int64(id)})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range nodes {
		t.Cleanup(node.Close)
	}
	if attempts != 2 {
		t.Fatalf("cluster came up on attempt %d, want 2", attempts)
	}
	submitAt(t, nodes[0], 1, core.Set("k", "v"))
	if err := nodes[0].Cluster.RunUntilDone(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, nodes, 1, 10*time.Second)
}

// TestStartClusterGivesUpWithTheBindError: a node that can never bind makes
// the bring-up fail with that error after a bounded number of attempts, and
// nothing it started stays up.
func TestStartClusterGivesUpWithTheBindError(t *testing.T) {
	attempts := 0
	var first []*live.Node
	nodes, err := live.StartCluster(2, func(id runtime.NodeID, addrs map[runtime.NodeID]string) (*live.Node, error) {
		if id == 2 {
			attempts++
			squatter, err := net.Listen("tcp", addrs[2])
			if err != nil {
				t.Fatal(err)
			}
			defer squatter.Close()
		}
		node, err := live.StartNode(live.NodeConfig{Self: id, Addrs: addrs, Seed: int64(id)})
		if id == 1 {
			first = append(first, node)
		}
		return node, err
	})
	if !errors.Is(err, syscall.EADDRINUSE) || nodes != nil {
		t.Fatalf("nodes = %v, err = %v, want the bind error and no cluster", nodes, err)
	}
	if attempts < 2 || attempts > 10 {
		t.Fatalf("gave up after %d attempts, want a small bounded number above one", attempts)
	}
	for i, node := range first {
		if node.Eng.Do(func() {}) {
			t.Fatalf("attempt %d left node 1 running", i+1)
		}
	}
}
