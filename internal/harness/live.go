package harness

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
	"repro/internal/workload"
)

// The live driver: what every wall-clock cell does with the cluster
// live.StartCluster hands it. Cluster configuration and result extraction
// stay with the cell.

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
// another's — and returns the wall time from the first submit to the last
// node's drain.
func runLive[C any](nodes []*live.Process[C], events []workload.Event, submit func(*live.Process[C], workload.Event) error, wait func(C) error) (time.Duration, error) {
	start := time.Now()
	for _, ev := range events {
		if err := submit(nodes[ev.Home-1], ev); err != nil {
			return 0, err
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
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("node %d: %w", i+1, err)
		}
	}
	return wall, nil
}

// runLiveMARP drives a live MARP cluster through events — every update a
// Set submitted on its home's loop — and summarizes the outcomes of all
// nodes (each records its own homes'). A run that commits nothing fails.
func runLiveMARP(nodes []*live.Node, events []workload.Event) (metrics.Summary, time.Duration, error) {
	wall, err := runLive(nodes, events, func(node *live.Node, ev workload.Event) error {
		var err error
		if !node.Eng.Do(func() { err = node.Cluster.Submit(ev.Home, core.Set(ev.Key, ev.Value)) }) {
			return fmt.Errorf("engine closed during submit")
		}
		return err
	}, func(cl *core.Cluster) error { return cl.RunUntilDone(2 * time.Minute) })
	if err != nil {
		return metrics.Summary{}, 0, err
	}
	var outs []core.Outcome
	if err := onLoops(nodes, func(_ runtime.NodeID, cl *core.Cluster) { outs = append(outs, cl.Outcomes()...) }); err != nil {
		return metrics.Summary{}, 0, err
	}
	sum := metrics.Summarize(marpSamples(outs))
	if sum.Count == sum.Failures {
		return metrics.Summary{}, 0, fmt.Errorf("no updates committed")
	}
	return sum, wall, nil
}
