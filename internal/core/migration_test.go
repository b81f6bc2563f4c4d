package core

import (
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/simnet"
)

// wireSimnet is the simulated network claiming wire delivery, as the live
// fabric does: agents migrate as encoded state, and the cluster runs the
// reliable layer under it.
type wireSimnet struct{ *simnet.Network }

func (wireSimnet) WireDelivery() bool { return true }

// slowBack delays everything node 2 sends node 1, and nothing else.
type slowBack time.Duration

func (d slowBack) Sample(_ *simnet.Network, m simnet.Message) time.Duration {
	if m.From == 2 && m.To == 1 {
		return time.Duration(d)
	}
	return time.Millisecond
}

// TestSlowMigrationAckLeavesOneCopy: a wire migration whose
// acknowledgement reaches the origin only after the 300 ms that used to be
// its MigrationTimeout still completes — the origin never brings its copy
// back, so exactly one copy of the agent lives at any moment, and it
// commits once. The acknowledgement is the reliable window's; the
// migration fails only if the window gives the envelope up.
func TestSlowMigrationAckLeavesOneCopy(t *testing.T) {
	sim := des.New(5)
	net := simnet.New(sim, simnet.FullMesh(3), slowBack(400*time.Millisecond))
	c, err := NewCluster(sim, wireSimnet{net}, Config{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(1, Set("k", "v")); err != nil {
		t.Fatal(err)
	}
	hops := 0
	for steps := 0; steps < 100000 && sim.Step() && sim.Now().Duration() < 5*time.Second; steps++ {
		copies := 0
		for _, id := range c.Nodes() {
			copies += len(c.Platform().Place(id).Residents())
		}
		if copies > 1 {
			t.Fatalf("%d live copies of the agent at %v", copies, sim.Now())
		}
		hops = c.Platform().Stats().MigrationsStarted
	}
	if st := c.Platform().Stats(); st.MigrationsFailed != 0 {
		t.Fatalf("the origin re-activated its copy after the slow acknowledgement — two copies: %+v", st)
	}
	if hops == 0 {
		t.Fatal("the agent never migrated: the test has no teeth")
	}
	if outs := c.Outcomes(); len(outs) != 1 || outs[0].Failed {
		t.Fatalf("outcomes = %+v, want one commit", outs)
	}
	if err := c.Referee().Err(); err != nil {
		t.Fatal(err)
	}
}
