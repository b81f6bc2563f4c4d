package harness

import (
	"fmt"
	"net"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
	"repro/internal/wal"
	"repro/internal/workload"
)

// A9 measures the live path's raw speed: committed updates per wall-clock
// second on real TCP nodes with the WAL at fsync=commit against a modelled
// NVMe device, ablated across the two live-path optimisations that are
// still a choice — pipelined hop-sequenced migration acks (vs one ack
// message per migration) and WAL group commit (vs one fsync per commit
// barrier). The workload is deliberately low-contention (hash-sharded keys,
// deep backlog) so the table isolates the mechanics under test rather than
// locking-list queueing, which A8 already characterises.

const (
	// a9Servers keeps the cluster small enough that three single-threaded
	// actor loops saturate before the loopback network does.
	a9Servers = 3
	// a9Shards spreads the locking lists so agents for different keys never
	// queue behind each other; raw per-commit cost dominates. One shard per
	// key makes every key its own locking domain (the A8 top row).
	a9Shards = 64
	// a9Keys is sized well above the in-flight agent count, keeping
	// head-of-line blocking rare without making every key unique.
	a9Keys = 64
)

// a9Retry/a9Backoff are the abort-retry timers for every variant. Contention
// backoff, unlike the migration/claim timeouts, carries no false-positive
// risk on a loaded host, so it can sit well below the protocol default; the
// low-contention workload keeps retries rare regardless. Variables, not
// constants, so one-off diagnostics can sweep them.
var (
	a9Retry   = 100 * time.Millisecond
	a9Backoff = 10 * time.Millisecond
)

// a9Knobs is one ablation row: which of the two optimisations are on.
type a9Knobs struct {
	label       string
	ackDelay    time.Duration // migration ack aggregation window (0 = legacy)
	commitDelay time.Duration // WAL group-commit window (0 = fsync per barrier)
}

func a9Rows() []a9Knobs {
	const ack = 500 * time.Microsecond
	// The group-commit window is sized to the device: parking a barrier
	// costs up to one window of added commit latency, so a window near the
	// modelled fsync latency (a7SyncNVMe) batches every barrier that shows
	// up during an fsync-sized interval while at most doubling the
	// latency. 2x the device latency measurably hurts this low-contention
	// workload (commit-barrier latency, not fsync count, then dominates).
	const grp = 100 * time.Microsecond
	return []a9Knobs{
		{label: "baseline (per-ack, per-commit fsync)"},
		{label: "+pipelined acks", ackDelay: ack},
		{label: "+group commit", commitDelay: grp},
		{label: "both", ackDelay: ack, commitDelay: grp},
	}
}

// a9Cell is the measurement a single run yields.
type a9Cell struct {
	cps     float64
	att     time.Duration
	fsyncs  uint64
	commits int
	batches int
	bytes   int
}

// LiveSpeed runs the A9 experiment: the ablation table over real TCP nodes.
//
// The variants are interleaved within each seed (seed-major, variant-minor)
// rather than run as consecutive blocks: wall-clock cells on a shared
// machine drift — background reclaim, whatever ran before this experiment,
// host noise — and block order would hand each variant a different slice of
// that drift. Interleaving spreads any slow patch across all the rows, so
// the speedup column measures the knobs, not the weather.
func LiveSpeed(o FigureOptions) ([]*metrics.Table, error) {
	o.fill()
	reqs, seeds := 60, 5
	if o.Quick {
		reqs, seeds = 15, 1
	}
	seedNote := "1 seed"
	if seeds > 1 {
		seedNote = fmt.Sprintf("mean of %d interleaved seeds", seeds)
	}
	tbl := &metrics.Table{
		Title: "Ablation A9: live-path raw speed — ack pipelining x group commit (wall clock)",
		Note: fmt.Sprintf("N=%d in-process replicas over loopback TCP, fsync=commit on a modelled %v-fsync NVMe, "+
			"%d shards, %d keys, %d requests/server, %s; speedup is commits/s over the stop-and-wait baseline",
			a9Servers, a7SyncNVMe, a9Shards, a9Keys, reqs, seedNote),
		Columns: []string{"variant", "commits/s", "speedup", "ATT (ms)", "fsyncs/commit", "group batches", "MB sent"},
	}
	rows := a9Rows()
	sums := make([]a9Cell, len(rows))
	attSums := make([]time.Duration, len(rows))
	for seed := int64(0); seed < int64(seeds); seed++ {
		for i, k := range rows {
			cell, err := liveSpeedCell(o.Seed+seed*100, k, reqs)
			if err != nil {
				return nil, fmt.Errorf("a9 %q seed=%d: %w", k.label, o.Seed+seed*100, err)
			}
			sums[i].cps += cell.cps
			attSums[i] += cell.att
			sums[i].fsyncs += cell.fsyncs
			sums[i].commits += cell.commits
			sums[i].batches += cell.batches
			sums[i].bytes += cell.bytes
		}
	}
	var baseline float64
	for i, k := range rows {
		cps := sums[i].cps / float64(seeds)
		if baseline == 0 {
			baseline = cps
		}
		tbl.AddRow(
			k.label,
			fmt.Sprintf("%.0f", cps),
			fmt.Sprintf("%.2fx", cps/baseline),
			fmt.Sprintf("%.2f", (attSums[i]/time.Duration(seeds)).Seconds()*1e3),
			fmt.Sprintf("%.2f", float64(sums[i].fsyncs)/float64(sums[i].commits)),
			fmt.Sprint(sums[i].batches/seeds),
			fmt.Sprintf("%.2f", float64(sums[i].bytes)/float64(seeds)/(1<<20)),
		)
	}
	return []*metrics.Table{tbl}, nil
}

// liveSpeedCell runs one ablation variant on the live engine and returns
// its throughput and cost counters.
func liveSpeedCell(seed int64, k a9Knobs, reqs int) (a9Cell, error) {
	// The fast path is latency-bound, so GC pauses and background scavenger
	// work land directly on the commit chain. Heap state inherited from
	// whatever ran before this experiment (the full bench runs A9 after the
	// 200s A8 sweep) would otherwise skew the ablation — the scavenger
	// returning A8's heap to the OS trickles through A9's cells on a small
	// machine. Collect and scavenge synchronously so each cell starts clean.
	debug.FreeOSMemory()
	n := a9Servers
	addrs := make(map[runtime.NodeID]string, n)
	for i := 1; i <= n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return a9Cell{}, err
		}
		addrs[runtime.NodeID(i)] = ln.Addr().String()
		ln.Close()
	}
	// Same timer rationale as A8's live cells: loaded actor loops, not the
	// loopback network, are the latency source, so timers stay near the
	// protocol defaults to keep false aborts and false deaths out of the
	// measurement.
	migration, claim := 300*time.Millisecond, 500*time.Millisecond
	retry, backoff := a9Retry, a9Backoff
	var dur *core.DurabilityConfig
	if k.commitDelay >= 0 {
		dur = &core.DurabilityConfig{
			Policy: wal.PolicyCommit,
			Backend: func(runtime.NodeID) disk.Backend {
				return disk.WithSyncLatency(disk.NewMem(), a7SyncNVMe)
			},
			GroupCommitDelay: k.commitDelay,
		}
	}
	nodes := make([]*live.Node, n)
	for i := 1; i <= n; i++ {
		node, err := live.StartNode(live.NodeConfig{
			Self:  runtime.NodeID(i),
			Addrs: addrs,
			Seed:  seed + int64(i),
			Cluster: core.Config{
				Shards:           a9Shards,
				MigrationTimeout: migration, ClaimTimeout: claim,
				RetryInterval: retry, RetryBackoff: backoff,
				MigrateAckDelay: k.ackDelay,
				Durability:      dur,
			},
		})
		if err != nil {
			for _, up := range nodes[:i-1] {
				up.Close()
			}
			return a9Cell{}, err
		}
		nodes[i-1] = node
	}
	defer func() {
		for _, node := range nodes {
			node.Close()
		}
	}()

	events, err := workload.Generate(workload.Spec{
		Servers: n, RequestsPerServer: reqs,
		MeanInterarrival: time.Millisecond, Keys: a9Keys,
		Seed: seed + 9000,
	})
	if err != nil {
		return a9Cell{}, err
	}
	start := time.Now()
	for _, ev := range events {
		node := nodes[ev.Home-1]
		var serr error
		if !node.Eng.Do(func() { serr = node.Cluster.Submit(ev.Home, core.Set(ev.Key, ev.Value)) }) {
			return a9Cell{}, fmt.Errorf("engine closed during submit")
		}
		if serr != nil {
			return a9Cell{}, serr
		}
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, node := range nodes {
		wg.Add(1)
		go func(i int, node *live.Node) {
			defer wg.Done()
			errs[i] = node.Cluster.RunUntilDone(2 * time.Minute)
		}(i, node)
	}
	wg.Wait()
	makespan := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return a9Cell{}, fmt.Errorf("node %d: %w", i+1, err)
		}
	}
	var cell a9Cell
	var attSum time.Duration
	for _, node := range nodes {
		var outs []core.Outcome
		var snap metrics.Snapshot
		if !node.Eng.Do(func() {
			outs = node.Cluster.Outcomes()
			snap = node.Cluster.Metrics().Gather()
		}) {
			return a9Cell{}, fmt.Errorf("engine closed during outcome read")
		}
		for _, o := range outs {
			if o.Failed {
				continue
			}
			cell.commits++
			attSum += o.TotalLatency().Duration()
		}
		cell.fsyncs += uint64(snap.Value("marp.disk.syncs"))
		cell.batches += int(snap.Value("marp.wal.group_batches"))
		cell.bytes += int(snap.Value("marp.fabric.bytes_sent"))
	}
	if cell.commits == 0 {
		return a9Cell{}, fmt.Errorf("no updates committed")
	}
	cell.cps = float64(cell.commits) / makespan.Seconds()
	cell.att = attSum / time.Duration(cell.commits)
	return cell, nil
}
