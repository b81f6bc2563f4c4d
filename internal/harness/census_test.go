package harness

import (
	"fmt"
	"testing"
	"time"
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
// all of them. On the uncontended cells of Figure 2 every message is one the
// paper's cost model predicts, kind for kind: the migrations are exactly the
// winners' visits less their homes (Theorem 3), N−1 UPDATEs and COMMITs,
// between a majority and N−1 ACKs, and nothing else. A 16-shard churn cell
// then publishes the residual (run with -v to print it): only kinds DESIGN
// names, and anti-entropy a small share of them.
func TestMessageCensus(t *testing.T) {
	o := FigureOptions{Quick: true, Seed: 13, Means: []time.Duration{100 * time.Millisecond}, Servers: []int{3, 4, 5}}
	_, results, err := Figure2(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		n, s := res.Config.N, res.Summary
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
		if got := res.Net.ByKind["agent-migrate"]; got != migrations {
			t.Errorf("N=%d: %d migrations, want the winners' %d visits beyond home", n, got, migrations)
		}
		for _, k := range []string{"update", "commit"} {
			if got, want := res.Net.ByKind[k], (n-1)*commits; got != want {
				t.Errorf("N=%d: %d %s messages, want (N−1)·commits = %d", n, got, k, want)
			}
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
