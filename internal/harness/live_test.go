package harness

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/optimistic"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
	"repro/internal/workload"
)

// The live driver the engine tests share: what a test does with the
// cluster live.StartCluster hands it. Cluster configuration and result
// checks stay with the test.

func closeAll[C any](nodes []*live.Process[C]) {
	for _, node := range nodes {
		node.Close()
	}
}

// onLoops runs fn on every node's actor loop in turn, the only place a
// node's cluster may be read; node i hosts replica i+1.
func onLoops[C any](nodes []*live.Process[C], fn func(id runtime.NodeID, cl C)) error {
	for i, node := range nodes {
		if !node.Eng.Do(func() { fn(runtime.NodeID(i+1), node.Cluster) }) {
			return fmt.Errorf("node %d: engine closed", i+1)
		}
	}
	return nil
}

// runLive offers the events in order, each through submit at its home's
// node, then waits on every node at once — a live wait only polls its own
// node's loop, so each gets a goroutine and none adds its polling tail to
// another's.
func runLive[C any](nodes []*live.Process[C], events []workload.Event, submit func(*live.Process[C], workload.Event) error, wait func(C) error) error {
	for _, ev := range events {
		if err := submit(nodes[ev.Home-1], ev); err != nil {
			return err
		}
	}
	errs := make([]error, len(nodes))
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, cl C) {
			defer wg.Done()
			errs[i] = wait(cl)
		}(i, node.Cluster)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("node %d: %w", i+1, err)
		}
	}
	return nil
}

// submitOptimistic submits one workload event on its home's actor loop.
func submitOptimistic(node *live.OptNode, ev workload.Event) error {
	var err error
	if !node.Eng.Do(func() { _, err = node.Cluster.Submit(ev.Home, ev.Key, ev.Value) }) {
		return fmt.Errorf("engine closed during submit")
	}
	return err
}

// runLiveOptimistic drives a live optimistic cluster through events —
// through submit, so a caller can time the client's view of each — waits
// until every node holds all of them stable, and returns every node's
// outcomes (each records its own submissions) once the stable-prefix
// digests agree across the processes.
func runLiveOptimistic(nodes []*live.OptNode, events []workload.Event, submit func(*live.OptNode, workload.Event) error) ([]optimistic.Outcome, error) {
	expect := uint64(len(events))
	err := runLive(nodes, events, submit, func(cl *optimistic.Cluster) error {
		return cl.RunUntilStable(2*time.Minute, expect)
	})
	if err != nil {
		return nil, err
	}
	var outs []optimistic.Outcome
	var digest string
	var bad error
	err = onLoops(nodes, func(id runtime.NodeID, cl *optimistic.Cluster) {
		d, _, derr := cl.StableDigest(id)
		switch {
		case derr != nil:
			bad = derr
		case digest == "":
			digest = d
		case d != digest:
			bad = fmt.Errorf("node %d stable digest %s != %s", id, d, digest)
		}
		outs = append(outs, cl.Outcomes()...)
	})
	if err == nil {
		err = bad
	}
	return outs, err
}
