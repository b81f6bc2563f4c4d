package harness

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/quorum"
)

// A8 measures what the keyspace-sharding refactor buys: with one locking
// list per (server, shard) and hash-routed itineraries, agents bound for
// different shards never queue behind each other, so aggregate committed
// throughput should rise with the shard count until it exhausts the key
// universe. Both quorum geometries are swept — majority (vote counting)
// and grid (O(√N) write sets) — on the simulator, in virtual time.

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

// ShardingDES runs the A8 experiment: a Sweep over shard count ×
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
