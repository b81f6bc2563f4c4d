package harness

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/workload"
)

// namedResiduals are the message kinds outside the paper's cost model that
// DESIGN.md §7 pays for by name. A kind that turns up beyond these needs its
// sentence there first — or it is a deletion.
var namedResiduals = map[string]bool{
	"rel-ack":    true, // reliable channels under loss
	"sync-req":   true, // anti-entropy: heal, recovery, sequence gaps
	"sync-reply": true,
	"abort":      true, // losing claims withdrawn
}

// TestMessageCensus extends TestMigrationBoundsHold from one message kind to
// all of them. On uncontended Figure 2 cells every message is one the
// paper's cost model predicts, kind for kind: the migrations are exactly the
// winners' visits less their homes (Theorem 3), an UPDATE to each visited
// server and an ACK back from it — as many of each as migrations — N−1
// COMMITs per update, and nothing else. A 16-shard churn cell then
// publishes the residual (run with -v to print it): only kinds DESIGN names,
// and anti-entropy a small share of them.
func TestMessageCensus(t *testing.T) {
	for _, n := range []int{3, 4, 5} {
		// A Figure 2 cell's requests, re-timed 100 ms apart. An update takes
		// a few milliseconds on the LAN preset, so no two agents are ever in
		// flight together: the cells are uncontended by construction, not by
		// the luck of a seed's arrival draws (seed 13's N=4 cell at its 100 ms
		// mean inter-arrival has a retry).
		cfg := RunConfig{Protocol: MARP, N: n, Seed: 13, Mean: 100 * time.Millisecond, RequestsPerServer: 12, Latency: LAN}
		cfg.fill()
		events, err := workload.Generate(cfg.workload())
		if err != nil {
			t.Fatal(err)
		}
		for i := range events {
			events[i].At = time.Duration(i) * 100 * time.Millisecond
		}
		res, err := runMARP(cfg, events)
		if err != nil {
			t.Fatal(err)
		}
		s := res.Summary
		if s.Retries != 0 || s.TieCount != 0 || s.Failures != 0 {
			t.Fatalf("N=%d: cell is contended (%d retries, %d ties, %d failures)", n, s.Retries, s.TieCount, s.Failures)
		}
		commits := s.Count
		rows := Census(res.Net, commits, n)
		t.Logf("\n%s", CensusTable(fmt.Sprintf("Figure 2 cell, N=%d", n), rows))
		for _, r := range rows {
			if r.Residual() {
				t.Errorf("N=%d: %s (%.2f per commit) on an uncontended cell", n, r.Kind, r.Msgs)
			} else if r.Msgs < r.Lo || r.Msgs > r.Hi {
				t.Errorf("N=%d: %s %.2f per commit outside the model's %.0f..%.0f", n, r.Kind, r.Msgs, r.Lo, r.Hi)
			}
		}
		migrations := 0
		for visits, count := range s.VisitDist {
			migrations += (visits - 1) * count
		}
		for _, k := range []string{"agent-migrate", "update", "agent-msg"} {
			if got := res.Net.ByKind[k]; got != migrations {
				t.Errorf("N=%d: %d %s messages, want the winners' %d visits beyond home", n, got, k, migrations)
			}
		}
		if got, want := res.Net.ByKind["commit"], (n-1)*commits; got != want {
			t.Errorf("N=%d: %d commit messages, want (N−1)·commits = %d", n, got, want)
		}
	}

	// The fault cell: A6's churn profile at 3% loss on 16 shards, 64 keys.
	res, err := runChaos(FigureOptions{Seed: 7, RequestsPerServer: 60}, 0,
		ChaosPoint{Loss: 0.03, Churn: true, Shards: 16, Keys: 64})
	if err != nil {
		t.Fatal(err)
	}
	commits := res.Summary.Count - res.Summary.Failures
	rows := Census(res.Net, commits, 5)
	t.Logf("\n%s", CensusTable("16-shard churn cell (3% loss, partition, loss burst, crash blip)", rows))
	var sync, excess float64
	for _, r := range rows {
		if !r.Residual() && r.Msgs > r.Hi {
			excess += r.Msgs - r.Hi
		}
		if r.Residual() && !namedResiduals[r.Kind] {
			t.Errorf("residual kind %s (%.2f per commit) has no reason in DESIGN.md §7", r.Kind, r.Msgs)
		}
		if r.Kind == "sync-req" || r.Kind == "sync-reply" {
			sync += r.Msgs
		}
	}
	// Above the model, the model kinds are re-sent frames: the reliable
	// layer counts a retransmission under its payload's kind, and a
	// regenerated agent migrates again.
	resent := float64(res.Reliable.Retransmissions+res.Regenerated) / float64(commits)
	t.Logf("model kinds above the model: %.2f per commit; retransmissions and regenerations %.2f", excess, resent)
	if excess > resent {
		t.Errorf("model kinds run %.2f per commit above the model, only %.2f of it re-sent", excess, resent)
	}
	// One exchange per peer, not one per shard per peer: 16 shards' worth
	// of requests would put anti-entropy above one message per commit.
	if sync > 0.3 {
		t.Errorf("anti-entropy costs %.2f messages per commit, want <= 0.3", sync)
	}
}
