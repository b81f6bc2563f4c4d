package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/simnet"
)

// TestGoneSetStaysBoundedOverALongRun commits 3000 updates on one key and
// then weighs what a fresh agent carries and what each server holds: with
// the Updated List kept as watermarks plus a residue these depend on the
// number of homes and of agents in flight, not on the 3000. The explicit
// list made every one of them grow by an agent ID per commit.
func TestGoneSetStaysBoundedOverALongRun(t *testing.T) {
	const n, rounds = 3, 1000
	c := newTestCluster(t, Config{N: n}, simEnv{seed: 11})
	for r := 0; r < rounds; r++ {
		// One agent per home, all after the same key: every round is
		// contended, so agents finish out of dispatch order and the residue
		// is exercised, not just the watermark.
		for home := 1; home <= n; home++ {
			if err := c.Submit(simnet.NodeID(home), Set("k", fmt.Sprintf("v%d.%d", r, home))); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.RunUntilDone(time.Minute); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
	}
	c.Settle(time.Second)
	if err := c.Referee().Err(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Outcomes()); got != n*rounds {
		t.Fatalf("%d outcomes, want %d", got, n*rounds)
	}

	// None of these bounds knows about the 3000.
	const maxResidue, maxEncoded, maxModelled = 4 * n, 1024, 2048
	for _, id := range c.Nodes() {
		if got := len(c.Server(id).Gone()); got > maxResidue {
			t.Errorf("server %d holds %d gone agents individually, want <= %d", id, got, maxResidue)
		}
	}
	// A fresh agent, caught right after it visited its home server: it has
	// merged everything that server knows about who is gone.
	if err := c.Submit(1, Set("k", "last")); err != nil {
		t.Fatal(err)
	}
	if len(c.active) != 1 {
		t.Fatalf("%d active agents, want the fresh one", len(c.active))
	}
	for _, ua := range c.active {
		enc, err := ua.Freeze().Encode()
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) > maxEncoded {
			t.Errorf("fresh agent encodes to %d bytes, want <= %d", len(enc), maxEncoded)
		}
		if got := ua.WireSize(); got > maxModelled {
			t.Errorf("fresh agent's modelled size is %d bytes, want <= %d", got, maxModelled)
		}
	}
	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
}
