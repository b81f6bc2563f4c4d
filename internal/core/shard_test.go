package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/quorum"
	"repro/internal/shard"
	"repro/internal/simnet"
	"repro/internal/wal"
)

// submitMany issues one single-key update per (server, i) pair across many
// distinct keys and returns the key->value map for verification.
func submitMany(t *testing.T, c *testCluster, perServer int) map[string]string {
	t.Helper()
	want := make(map[string]string)
	for _, id := range c.Nodes() {
		for i := 0; i < perServer; i++ {
			k := fmt.Sprintf("key-%d-%d", id, i)
			v := fmt.Sprintf("val-%d-%d", id, i)
			if err := c.Submit(id, Set(k, v)); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		}
	}
	return want
}

func verifyReads(t *testing.T, c *testCluster, want map[string]string) {
	t.Helper()
	for k, v := range want {
		// Every member of the owning shard's group must have the value.
		sh := shard.Of(k, c.shards)
		for _, id := range c.groups[sh] {
			got, ok := c.Read(id, k)
			if !ok || got.Data != v {
				t.Fatalf("server %d shard %d: read %q = %+v %v, want %q", id, sh, k, got, ok, v)
			}
		}
	}
}

func TestShardedMultiKeyCommits(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := newTestCluster(t, Config{N: 5, Shards: shards})
			want := submitMany(t, c, 4)
			finishRun(t, c)
			verifyReads(t, c, want)
			if got := len(c.Outcomes()); got != 20 {
				t.Fatalf("outcomes = %d", got)
			}
		})
	}
}

func TestShardedContendedKeys(t *testing.T) {
	// Several servers race on the same keys: per-shard serialization must
	// hold (the referee checks exclusion per shard) and appends must not
	// lose updates.
	c := newTestCluster(t, Config{N: 5, Shards: 8})
	keys := []string{"alpha", "beta", "gamma"}
	perKey := make(map[string]int)
	for round := 0; round < 3; round++ {
		for _, id := range c.Nodes() {
			k := keys[(int(id)+round)%len(keys)]
			if err := c.Submit(id, Append(k, "x")); err != nil {
				t.Fatal(err)
			}
			perKey[k]++
		}
	}
	finishRun(t, c)
	for k, n := range perKey {
		sh := shard.Of(k, c.shards)
		v, ok := c.Read(c.groups[sh][0], k)
		if !ok || len(v.Data) != n {
			t.Fatalf("%s: %d appends survived of %d", k, len(v.Data), n)
		}
	}
}

func TestCrossShardBatch(t *testing.T) {
	// One agent carries a batch whose keys span several shards: the claim
	// must take all shard locks atomically and commit with per-shard
	// sequence numbers.
	c := newTestCluster(t, Config{N: 5, Shards: 16})
	var reqs []Request
	want := make(map[string]string)
	for i := 0; i < 8; i++ {
		k, v := fmt.Sprintf("span-%d", i), fmt.Sprintf("v%d", i)
		reqs = append(reqs, Set(k, v))
		want[k] = v
	}
	if err := c.Submit(2, reqs...); err != nil {
		t.Fatal(err)
	}
	finishRun(t, c)
	verifyReads(t, c, want)
	o := c.Outcomes()[0]
	if len(o.Shards) < 2 {
		t.Fatalf("batch spanned %d shards, want several: %+v", len(o.Shards), o)
	}
	for i := 1; i < len(o.Shards); i++ {
		if o.Shards[i-1] >= o.Shards[i] {
			t.Fatalf("outcome shards not ascending: %v", o.Shards)
		}
	}
}

func TestCrossShardContention(t *testing.T) {
	// Two servers submit overlapping cross-shard batches in both shard
	// orders; canonical ascending lock order plus claim timeouts must
	// resolve any deadlock, and every batch commits.
	c := newTestCluster(t, Config{N: 3, Shards: 8})
	ka, kb := "left", "right"
	if shard.Of(ka, 8) == shard.Of(kb, 8) {
		t.Fatalf("test keys landed on one shard; pick different keys")
	}
	for i := 0; i < 4; i++ {
		if err := c.Submit(1, Set(ka, fmt.Sprintf("a%d", i)), Set(kb, fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := c.Submit(2, Set(kb, fmt.Sprintf("c%d", i)), Set(ka, fmt.Sprintf("d%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	finishRun(t, c)
	if got := len(c.Outcomes()); got != 8 {
		t.Fatalf("outcomes = %d", got)
	}
	for _, o := range c.Outcomes() {
		if o.Failed {
			t.Fatalf("cross-shard batch failed: %+v", o)
		}
	}
}

func TestShardGroupsPartialReplication(t *testing.T) {
	// GroupSize 3 of N=6: each shard lives on 3 servers only; commits land
	// on group members and convergence is checked per group.
	c := newTestCluster(t, Config{N: 6, Shards: 8, GroupSize: 3})
	for sh, g := range c.groups {
		if len(g) != 3 {
			t.Fatalf("shard %d group = %v", sh, g)
		}
	}
	want := submitMany(t, c, 2)
	finishRun(t, c)
	verifyReads(t, c, want)
	// A non-member must not hold the data.
	for k := range want {
		sh := shard.Of(k, c.shards)
		member := make(map[simnet.NodeID]bool)
		for _, id := range c.groups[sh] {
			member[id] = true
		}
		for _, id := range c.Nodes() {
			if member[id] {
				continue
			}
			if _, ok := c.Read(id, k); ok {
				t.Fatalf("non-member %d holds %q (shard %d group %v)", id, k, sh, c.groups[sh])
			}
		}
		break // one key suffices
	}
}

func TestShardedGridGeometry(t *testing.T) {
	c := newTestCluster(t, Config{N: 9, Shards: 4, Geometry: quorum.GeomGrid})
	want := submitMany(t, c, 2)
	finishRun(t, c)
	verifyReads(t, c, want)
}

func TestShardedTreeGeometry(t *testing.T) {
	c := newTestCluster(t, Config{N: 7, Shards: 2, Geometry: quorum.GeomTree})
	want := submitMany(t, c, 2)
	finishRun(t, c)
	verifyReads(t, c, want)
}

func TestShardConfigValidation(t *testing.T) {
	if _, err := newSimCluster(Config{N: 5, Geometry: "hex"}); err == nil {
		t.Fatal("unknown geometry accepted")
	}
	if _, err := newSimCluster(Config{N: 5, Geometry: quorum.GeomGrid, Votes: map[simnet.NodeID]int{1: 2, 2: 1, 3: 1, 4: 1, 5: 1}}); err == nil {
		t.Fatal("grid geometry with weighted votes accepted")
	}
	if _, err := newSimCluster(Config{N: 5, GroupSize: 3, Votes: map[simnet.NodeID]int{1: 2, 2: 1, 3: 1, 4: 1, 5: 1}}); err == nil {
		t.Fatal("weighted votes with partial replication accepted")
	}
}

func TestShardedQuorumRead(t *testing.T) {
	c := newTestCluster(t, Config{N: 5, Shards: 8, Geometry: quorum.GeomGrid})
	if err := c.Submit(1, Set("qr", "deep")); err != nil {
		t.Fatal(err)
	}
	finishRun(t, c)
	sh := shard.Of("qr", c.shards)
	home := c.groups[sh][0]
	v, ok, err := c.ReadQuorum(home, "qr", 30*time.Second)
	if err != nil || !ok || v.Data != "deep" {
		t.Fatalf("quorum read = %+v %v %v", v, ok, err)
	}
}

func TestShardedDeterministicRuns(t *testing.T) {
	run := func() []Outcome {
		c := newTestCluster(t, Config{N: 5, Shards: 16, Geometry: quorum.GeomGrid}, simEnv{seed: 7})
		for i := 1; i <= 5; i++ {
			id := simnet.NodeID(i)
			if err := c.Submit(id, Set(fmt.Sprintf("k%d", i), "v"), Set("shared", fmt.Sprintf("s%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.RunUntilDone(time.Minute); err != nil {
			t.Fatal(err)
		}
		return c.Outcomes()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("outcome counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if fmt.Sprintf("%+v", a[i]) != fmt.Sprintf("%+v", b[i]) {
			t.Fatalf("outcome %d differs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestShardedCrashRecovery(t *testing.T) {
	c := newTestCluster(t, Config{N: 5, Shards: 4})
	want := submitMany(t, c, 2)
	finishRun(t, c)
	c.Crash(3)
	// Commit more while node 3 is down.
	for i := 0; i < 4; i++ {
		k, v := fmt.Sprintf("late-%d", i), fmt.Sprintf("lv%d", i)
		if err := c.Submit(1, Set(k, v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	finishRun(t, c)
	c.Recover(3)
	c.Settle(5 * time.Second)
	if err := c.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	verifyReads(t, c, want)
}

func TestShardIsolationSequences(t *testing.T) {
	// The shard-isolation invariant: each shard's committed log carries its
	// own dense sequence numbers starting at 1, independent of commits on
	// other shards.
	c := newTestCluster(t, Config{N: 3, Shards: 4})
	want := submitMany(t, c, 6)
	finishRun(t, c)
	_ = want
	for sh := 0; sh < c.shards; sh++ {
		log := c.Server(c.groups[sh][0]).StoreOf(sh).Log()
		for i, u := range log {
			if u.Seq != uint64(i+1) {
				t.Fatalf("shard %d log[%d].Seq = %d", sh, i, u.Seq)
			}
			if shard.Of(u.Key, c.shards) != sh {
				t.Fatalf("shard %d holds foreign key %q", sh, u.Key)
			}
		}
	}
}

func TestShardedDurableRecovery(t *testing.T) {
	// Sharded journal: per-shard stores and locking state go through one
	// WAL per node; replay must route every record back to its shard.
	dur, _ := memDurability(wal.PolicyCommit)
	c := newTestCluster(t, Config{N: 3, Shards: 4, Durability: dur})
	want := submitMany(t, c, 3)
	finishRun(t, c)
	c.Crash(2)
	for i := 0; i < 3; i++ {
		k, v := fmt.Sprintf("post-%d", i), fmt.Sprintf("pv%d", i)
		if err := c.Submit(1, Set(k, v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	finishRun(t, c)
	c.Recover(2)
	// Replay is synchronous: node 2's own per-shard commits are back from
	// its WAL before any network event runs.
	recovered := 0
	for sh := 0; sh < c.shards; sh++ {
		recovered += len(c.Server(2).StoreOf(sh).Log())
	}
	if recovered != 9 {
		t.Fatalf("right after Recover node 2 has %d commits, want 9 from WAL", recovered)
	}
	c.Settle(5 * time.Second)
	if err := c.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	verifyReads(t, c, want)
}
