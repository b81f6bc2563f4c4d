package live

import (
	"errors"
	"fmt"
	"net"
	"syscall"

	"repro/internal/runtime"
)

// ReserveAddrs returns n distinct loopback TCP addresses, keyed 1..n, that
// were free a moment ago: it listens on port 0 n times, notes the ports and
// closes. Nothing holds a port between that close and its owner's own
// Listen — the kernel can hand it to an outbound connection of this very
// process as its local port — so whoever binds these addresses must expect
// "address already in use" now and then. StartCluster does: it brings the
// cluster up again on fresh ones.
func ReserveAddrs(n int) (map[runtime.NodeID]string, error) {
	addrs := make(map[runtime.NodeID]string, n)
	for i := 1; i <= n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("live: reserving an address: %w", err)
		}
		// Held until all n are known, so no two of them are the same port.
		defer ln.Close()
		addrs[runtime.NodeID(i)] = ln.Addr().String()
	}
	return addrs, nil
}

// startAttempts bounds how often StartCluster brings a cluster up before it
// gives a bind failure back to its caller.
const startAttempts = 4

// StartCluster brings up replicas 1..n in this process on reserved loopback
// addresses; start(id, addrs) starts replica id (live.StartNode,
// live.StartOptNode, with whatever configuration the caller wants). When a
// replica fails to start, the ones already up are closed; when it failed to
// bind — the reservation's race, see ReserveAddrs — the whole cluster is
// brought up again on fresh addresses, startAttempts times in all, and the
// last bind error is returned after that. nodes[i] is replica i+1.
func StartCluster[C any](n int, start func(id runtime.NodeID, addrs map[runtime.NodeID]string) (*Process[C], error)) (nodes []*Process[C], err error) {
	for attempt := 1; ; attempt++ {
		nodes, err = startOnce(n, start)
		if err == nil || attempt == startAttempts || !errors.Is(err, syscall.EADDRINUSE) {
			return nodes, err
		}
	}
}

func startOnce[C any](n int, start func(runtime.NodeID, map[runtime.NodeID]string) (*Process[C], error)) ([]*Process[C], error) {
	addrs, err := ReserveAddrs(n)
	if err != nil {
		return nil, err
	}
	nodes := make([]*Process[C], 0, n)
	for id := runtime.NodeID(1); int(id) <= n; id++ {
		node, err := start(id, addrs)
		if err != nil {
			for _, up := range nodes {
				up.Close()
			}
			return nil, fmt.Errorf("live: starting node %d: %w", id, err)
		}
		nodes = append(nodes, node)
	}
	return nodes, nil
}
