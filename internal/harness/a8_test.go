package harness

import (
	"testing"
)

// TestShardingDESDeterministic is the shard-determinism gate: the A8
// simulator table is virtual-time throughput, so sweeping its cells across
// 1 worker or 8 must render byte-identical tables. A divergence means a
// shard leaked shared state across concurrently simulated runs (the CI job
// runs this under -race to catch the low-level version of the same bug).
func TestShardingDESDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick A8 sweep twice")
	}
	opts := FigureOptions{Quick: true}
	seq, _, err := ShardingDES(FigureOptions{Quick: opts.Quick, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := ShardingDES(FigureOptions{Quick: opts.Quick, Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if seq.String() != par.String() {
		t.Fatalf("A8 table differs between parallelism 1 and 8:\n--- parallel=1 ---\n%s--- parallel=8 ---\n%s", seq.String(), par.String())
	}
}

// TestShardingDESThroughputScales checks A8's acceptance claim: aggregate
// committed throughput rises with the shard count (per-shard locking lists
// remove cross-key queueing) for both quorum geometries. No cell may spend
// more withdrawn claims than it commits: an agent that won a tie on shared
// snapshots used to claim before it was queued at a write quorum, which no
// server could grant, and re-claim after every backoff (the 1-shard grid
// cell withdrew 1057 claims for 108 commits).
func TestShardingDESThroughputScales(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick A8 sweep")
	}
	_, all, err := ShardingDES(FigureOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range all {
		if s := r.Summary; s.Retries > s.Count {
			t.Errorf("%s, %d shards: %d claims withdrawn for %d commits", r.Config.Geometry, r.Config.Shards, s.Retries, s.Count)
		}
	}
	// Results are shard-major, geometry-minor: [s0g0 s0g1 s1g0 s1g1 ...].
	geoms := len(a8Geometries)
	for g := 0; g < geoms; g++ {
		first := all[g]
		last := all[len(all)-geoms+g]
		if last.CommitsPerSec() <= first.CommitsPerSec() {
			t.Errorf("%s: commits/s did not rise with shards: %d shards %.0f/s vs %d shards %.0f/s",
				a8Geometries[g], first.Config.Shards, first.CommitsPerSec(),
				last.Config.Shards, last.CommitsPerSec())
		}
	}
}
