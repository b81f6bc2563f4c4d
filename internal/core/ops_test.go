package core

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/runtime"
)

func TestHealthQuorumReachability(t *testing.T) {
	c := newTestCluster(t, Config{N: 3, Shards: 2})

	h := c.Health()
	if !h.QuorumOK || h.Vantage != 1 || len(h.Shards) != 2 {
		t.Fatalf("healthy cluster: %+v", h)
	}
	for _, sh := range h.Shards {
		if !sh.QuorumOK || sh.Reachable != len(sh.Group) || len(sh.Unreachable) != 0 {
			t.Fatalf("healthy shard: %+v", sh)
		}
	}
	if got := c.Metrics().Value("marp.health.quorum_ok"); got != 1 {
		t.Fatalf("marp.health.quorum_ok = %v, want 1", got)
	}

	// Cut the vantage node off from the other two: no shard group can
	// assemble a write quorum from node 1's side of the split.
	c.PartitionNet([]runtime.NodeID{1}, []runtime.NodeID{2, 3})
	h = c.Health()
	if h.QuorumOK {
		t.Fatalf("minority vantage still claims quorum: %+v", h)
	}
	for _, sh := range h.Shards {
		if sh.QuorumOK || sh.Reachable != 1 || len(sh.Unreachable) != 2 {
			t.Fatalf("partitioned shard: %+v", sh)
		}
	}
	if got := c.Metrics().Value("marp.health.shards_degraded"); got != 2 {
		t.Fatalf("marp.health.shards_degraded = %v, want 2", got)
	}

	c.HealNet()
	if h = c.Health(); !h.QuorumOK {
		t.Fatalf("healed cluster still degraded: %+v", h)
	}

	// A crashed member counts as unreachable; with majority geometry on
	// N=3, losing one node keeps the quorum, losing two does not.
	c.Crash(3)
	if h = c.Health(); !h.QuorumOK {
		t.Fatalf("one crash of three broke quorum: %+v", h)
	}
	c.Crash(2)
	if h = c.Health(); h.QuorumOK {
		t.Fatalf("two crashes of three left quorum: %+v", h)
	}

	// All nodes down: no vantage, trivially degraded.
	c.Crash(1)
	if h = c.Health(); h.Vantage != runtime.None || h.QuorumOK {
		t.Fatalf("all-down health: %+v", h)
	}
}

// TestRegistryMirrorsClusterStats pins the collector wiring: a scrape
// after a real run must agree with the legacy Stats accessors it reads
// through, and the whole documented subsystem surface must be present.
func TestRegistryMirrorsClusterStats(t *testing.T) {
	c := newTestCluster(t, Config{N: 3})
	for i := 0; i < 4; i++ {
		if err := c.Submit(runtime.NodeID(i%3+1), Set("k"+string(rune('a'+i)), "v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.RunUntilDone(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Settle(2 * time.Second)

	snap := c.Metrics().Gather()
	checks := []struct {
		name string
		want float64
	}{
		{"marp.fabric.messages_sent", float64(c.NetStats().MessagesSent)},
		{"marp.fabric.bytes_sent", float64(c.NetStats().BytesSent)},
		{"marp.agent.migrations_completed", float64(c.Platform().Stats().MigrationsCompleted)},
		{"marp.wal.appends", float64(c.JournalStats().Appends)},
		{"marp.disk.syncs", float64(c.DiskStats().Syncs)},
		{"marp.reliable.retransmissions", float64(c.ReliableStats().Retransmissions)},
		{"marp.replica.commits", 4},
		{"marp.replica.outstanding", 0},
	}
	for _, ck := range checks {
		if got := snap.Value(ck.name); got != ck.want {
			t.Errorf("%s = %v, want %v", ck.name, got, ck.want)
		}
	}

	subsystems := map[string]bool{}
	for _, p := range snap {
		parts := strings.SplitN(p.Name, ".", 3)
		if len(parts) == 3 && parts[0] == "marp" {
			subsystems[parts[1]] = true
		}
	}
	for _, want := range []string{"wal", "disk", "reliable", "fabric", "agent", "replica", "shard", "health"} {
		if !subsystems[want] {
			t.Errorf("no metrics exported for subsystem %q (got %v)", want, subsystems)
		}
	}

	// The gone-set residue is reported per server, as the server holds it.
	if !snap.Has("marp.replica.gone_residue") {
		t.Error("marp.replica.gone_residue not exported")
	}
	for _, id := range c.Nodes() {
		if got, want := snap.Labeled("marp.replica.gone_residue", strconv.Itoa(int(id))), float64(len(c.Server(id).Gone())); got != want {
			t.Errorf("marp.replica.gone_residue{server=%d} = %v, want %v", id, got, want)
		}
	}

	// Shard-labelled commits at the representative replica cover every
	// committed update exactly once (single shard here).
	if got := snap.Labeled("marp.shard.commits", "0"); got != 4 {
		t.Errorf("marp.shard.commits{shard=0} = %v, want 4", got)
	}
}
