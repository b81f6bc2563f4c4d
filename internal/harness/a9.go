package harness

import (
	"fmt"
	"runtime/debug"
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
// NVMe device, ablated across the one live-path optimisation that is still
// a choice — WAL group commit (vs one fsync per commit barrier). The
// workload is deliberately low-contention (hash-sharded keys, deep backlog)
// so the table isolates the mechanics under test rather than locking-list
// queueing, which A8 already characterises.

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

// a9Knobs is one ablation row.
type a9Knobs struct {
	label       string
	commitDelay time.Duration // WAL group-commit window (0 = fsync per barrier)
}

func a9Rows() []a9Knobs {
	// The group-commit window is sized to the device: parking a barrier
	// costs up to one window of added commit latency, so a window near the
	// modelled fsync latency (a7SyncNVMe) batches every barrier that shows
	// up during an fsync-sized interval while at most doubling the
	// latency. 2x the device latency measurably hurts this low-contention
	// workload (commit-barrier latency, not fsync count, then dominates).
	const grp = 100 * time.Microsecond
	return []a9Knobs{
		{label: "baseline (per-commit fsync)"},
		{label: "+group commit", commitDelay: grp},
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
		Title: "Ablation A9: live-path raw speed — WAL group commit (wall clock)",
		Note: fmt.Sprintf("N=%d in-process replicas over loopback TCP, fsync=commit on a modelled %v-fsync NVMe, "+
			"%d shards, %d keys, %d requests/server, %s; speedup is commits/s over the per-commit-fsync baseline",
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
	// Same timer rationale as A8's live cells: loaded actor loops, not the
	// loopback network, are the latency source, so timers stay near the
	// protocol defaults to keep false aborts and false deaths out of the
	// measurement.
	migration, claim := 300*time.Millisecond, 500*time.Millisecond
	retry, backoff := a9Retry, a9Backoff
	nodes, err := live.StartCluster(n, func(id runtime.NodeID, addrs map[runtime.NodeID]string) (*live.Node, error) {
		return live.StartNode(live.NodeConfig{
			Self:  id,
			Addrs: addrs,
			Seed:  seed + int64(id),
			Cluster: core.Config{
				Shards:           a9Shards,
				MigrationTimeout: migration, ClaimTimeout: claim,
				RetryInterval: retry, RetryBackoff: backoff,
				Durability: &core.DurabilityConfig{
					Policy: wal.PolicyCommit,
					Backend: func(runtime.NodeID) disk.Backend {
						return disk.WithSyncLatency(disk.NewMem(), a7SyncNVMe)
					},
					GroupCommitDelay: k.commitDelay,
				},
			},
		})
	})
	if err != nil {
		return a9Cell{}, err
	}
	defer closeAll(nodes)

	events, err := workload.Generate(workload.Spec{
		Servers: n, RequestsPerServer: reqs,
		MeanInterarrival: time.Millisecond, Keys: a9Keys,
		Seed: seed + 9000,
	})
	if err != nil {
		return a9Cell{}, err
	}
	sum, makespan, err := runLiveMARP(nodes, events)
	if err != nil {
		return a9Cell{}, err
	}
	cell := a9Cell{commits: sum.Count - sum.Failures, att: sum.MeanATT}
	cell.cps = float64(cell.commits) / makespan.Seconds()
	err = onLoops(nodes, func(_ runtime.NodeID, cl *core.Cluster) {
		snap := cl.Metrics().Gather()
		cell.fsyncs += uint64(snap.Value("marp.disk.syncs"))
		cell.batches += int(snap.Value("marp.wal.group_batches"))
		cell.bytes += int(snap.Value("marp.fabric.bytes_sent"))
	})
	return cell, err
}
