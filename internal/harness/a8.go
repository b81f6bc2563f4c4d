package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/quorum"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
	"repro/internal/workload"
)

// A8 measures what the keyspace-sharding refactor buys: with one locking
// list per (server, shard) and hash-routed itineraries, agents bound for
// different shards never queue behind each other, so aggregate committed
// throughput should rise with the shard count until it exhausts the key
// universe. Both quorum geometries are swept — majority (vote counting)
// and grid (O(√N) write sets) — on both engines: the simulator table is
// deterministic virtual time, the live table is wall clock over real TCP.

// a8Servers is the cluster size: 9 suits the 3×3 grid geometry exactly.
const a8Servers = 9

// a8Keys is the fixed key universe; keeping it constant across shard
// counts makes the cells comparable (the workload never changes, only how
// finely the protocol partitions it).
const a8Keys = 64

func a8ShardCounts(quick bool) []int {
	if quick {
		return []int{1, 4, 16}
	}
	return []int{1, 4, 16, 64}
}

var a8Geometries = []quorum.Geometry{quorum.GeomMajority, quorum.GeomGrid}

func a8Columns() []string {
	cols := []string{"shards"}
	for _, g := range a8Geometries {
		cols = append(cols, string(g)+" commits/s", string(g)+" ATT (ms)")
	}
	return cols
}

// ShardingDES is the simulator half of A8: a Sweep over shard count ×
// quorum geometry under a heavily backlogged uniform multi-key workload.
// Throughput is committed updates over the virtual makespan (the time of
// the last COMMIT broadcast), so the table is byte-identical at any sweep
// parallelism — the shard-determinism test in CI relies on that.
func ShardingDES(o FigureOptions) (*metrics.Table, []RunResult, error) {
	o.fill()
	shardCounts := a8ShardCounts(o.Quick)
	tbl := &metrics.Table{
		Title: "Ablation A8: keyspace sharding — aggregate throughput (simulator, virtual time)",
		Note: fmt.Sprintf("N=%d, %d keys uniform, %d requests/server, 2ms mean inter-arrival; commits/s = committed updates / virtual makespan",
			a8Servers, a8Keys, o.RequestsPerServer),
		Columns: a8Columns(),
	}
	var cfgs []RunConfig
	for _, s := range shardCounts {
		for _, g := range a8Geometries {
			cfgs = append(cfgs, RunConfig{
				Protocol: MARP, N: a8Servers, Seed: o.Seed,
				Mean: 2 * time.Millisecond, RequestsPerServer: o.RequestsPerServer,
				Latency: o.Latency, Keys: a8Keys,
				Shards: s, Geometry: g,
			})
		}
	}
	all, err := Sweep(o.runner(), cfgs)
	if err != nil {
		return nil, nil, err
	}
	i := 0
	for _, s := range shardCounts {
		row := []string{fmt.Sprintf("%d", s)}
		for range a8Geometries {
			res := all[i]
			i++
			row = append(row, fmt.Sprintf("%.0f", res.CommitsPerSec()), metrics.Ms(res.Summary.MeanATT))
		}
		tbl.AddRow(row...)
	}
	return tbl, all, nil
}

// shardingLive is the live-engine half of A8: the same grid of cells, each
// run as nine replica processes in this process wired through real TCP
// sockets. Wall clock replaces virtual time, so — like A7c's replay
// columns — the numbers are machine-dependent; the shape (throughput
// rising with shards) is what the table demonstrates.
func shardingLive(o FigureOptions) (*metrics.Table, error) {
	o.fill()
	shardCounts := a8ShardCounts(o.Quick)
	reqs, seeds := 12, 3
	if o.Quick {
		reqs, seeds = 6, 1
	}
	seedNote := "1 seed"
	if seeds > 1 {
		seedNote = fmt.Sprintf("mean of %d seeds", seeds)
	}
	tbl := &metrics.Table{
		Title: "Ablation A8 (live): aggregate throughput on the TCP engine (wall clock)",
		Note: fmt.Sprintf("N=%d in-process replicas over loopback TCP, %d keys uniform, %d requests/server, %s; wall clock and machine-dependent",
			a8Servers, a8Keys, reqs, seedNote),
		Columns: a8Columns(),
	}
	for _, s := range shardCounts {
		row := []string{fmt.Sprintf("%d", s)}
		for _, g := range a8Geometries {
			// Wall-clock cells are quantized by the retry timers, so a
			// single run is noisy; averaging a few seeds recovers the
			// shape without stretching the workload (deeper backlogs
			// only add abort/retry churn, not signal).
			var cpsSum float64
			var attSum time.Duration
			for seed := int64(0); seed < int64(seeds); seed++ {
				cps, att, err := liveShardCell(o.Seed+seed*100, s, g, reqs)
				if err != nil {
					return nil, fmt.Errorf("live shards=%d geometry=%s seed=%d: %w", s, g, o.Seed+seed*100, err)
				}
				cpsSum += cps
				attSum += att
			}
			row = append(row,
				fmt.Sprintf("%.0f", cpsSum/float64(seeds)),
				fmt.Sprintf("%.2f", (attSum/time.Duration(seeds)).Seconds()*1e3))
		}
		tbl.AddRow(row...)
	}
	return tbl, nil
}

// liveShardCell runs one (shards, geometry) cell on the live engine and
// returns committed updates per wall-clock second plus the mean ATT.
func liveShardCell(seed int64, shards int, geom quorum.Geometry, reqs int) (float64, time.Duration, error) {
	n := a8Servers
	// Loopback round trips are sub-millisecond, but nine single-threaded
	// actor loops under a full backlog of agents lag far behind the
	// network: with dozens of claims broadcasting to every node, an ack
	// can sit queued past a LAN-calibrated (40ms) claim timeout, and the
	// resulting abort/retry storm sustains itself. Likewise a migration
	// can exceed an aggressive timeout on a loaded CI host and read as a
	// false agent death. Timers therefore stay at or near the protocol
	// defaults, shortened only where safe.
	migration, claim := 300*time.Millisecond, 500*time.Millisecond
	retry, backoff := 100*time.Millisecond, 10*time.Millisecond
	nodes, err := live.StartCluster(n, func(id runtime.NodeID, addrs map[runtime.NodeID]string) (*live.Node, error) {
		return live.StartNode(live.NodeConfig{
			Self:  id,
			Addrs: addrs,
			Seed:  seed + int64(id),
			Cluster: core.Config{
				Shards: shards, Geometry: geom,
				MigrationTimeout: migration, ClaimTimeout: claim,
				RetryInterval: retry, RetryBackoff: backoff,
			},
		})
	})
	if err != nil {
		return 0, 0, err
	}
	defer closeAll(nodes)

	events, err := workload.Generate(workload.Spec{
		Servers: n, RequestsPerServer: reqs,
		MeanInterarrival: time.Millisecond, Keys: a8Keys,
		Seed: seed + 1000,
	})
	if err != nil {
		return 0, 0, err
	}
	sum, makespan, err := runLiveMARP(nodes, events)
	if err != nil {
		return 0, 0, err
	}
	return float64(sum.Count-sum.Failures) / makespan.Seconds(), sum.MeanATT, nil
}

// Sharding runs the A8 experiment: the deterministic simulator table
// followed by the live-engine table.
func Sharding(o FigureOptions) ([]*metrics.Table, error) {
	des, _, err := ShardingDES(o)
	if err != nil {
		return nil, err
	}
	lv, err := shardingLive(o)
	if err != nil {
		return nil, err
	}
	return []*metrics.Table{des, lv}, nil
}
