package harness

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/desengine"
	"repro/internal/failure"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// propChurn returns one of four churn profiles over a workload of the given
// span. All of them keep node 1 up (so submissions homed there are never
// silently dropped at dispatch) and keep a mutually reachable majority —
// Validate re-proves both below, so a bug here fails loudly.
func propChurn(pick uint8, span time.Duration) failure.Schedule {
	switch pick % 4 {
	case 1:
		victim := simnet.NodeID(2 + int(pick)%4) // one of 2..5
		return failure.Blip(victim, span/4, span/3)
	case 2:
		// Node 1 in the majority side: its agents keep committing.
		return failure.PartitionWindow(span/5, span/2,
			[]simnet.NodeID{1, 2, 3}, []simnet.NodeID{4, 5})
	case 3:
		// Node 1 in the minority side: its agents must park and retry
		// until the heal restores a reachable majority.
		return failure.PartitionWindow(span/5, span/2,
			[]simnet.NodeID{1, 2}, []simnet.NodeID{3, 4, 5})
	}
	return nil
}

// TestPropertyLossyMajorityStillCommits is the ISSUE's liveness property: for
// any loss rate up to 30% and any valid churn schedule that preserves a
// connected majority, every submitted request commits and the replicas
// converge.
func TestPropertyLossyMajorityStillCommits(t *testing.T) {
	const n, requests = 5, 6
	prop := func(seed uint16, lossRaw, pick uint8) bool {
		loss := float64(lossRaw%31) / 100 // 0% .. 30%
		cl, err := desengine.New(desengine.Config{
			Seed:   int64(seed),
			Faults: simnet.NewFaultModel(int64(seed)+7, loss, 0.05),
			Cluster: core.Config{
				N:                  n,
				Reliable:           true,
				RetransmitBase:     10 * time.Millisecond,
				RetransmitAttempts: 12,
				RegenerateAgents:   true,
				MigrationTimeout:   60 * time.Millisecond,
				ClaimTimeout:       250 * time.Millisecond,
				RetryInterval:      120 * time.Millisecond,
			},
		})
		if err != nil {
			t.Log(err)
			return false
		}
		span := requests * 60 * time.Millisecond
		events := make([]workload.Event, requests)
		for i := range events {
			events[i] = workload.Event{At: time.Duration(i) * 60 * time.Millisecond, Home: 1, Key: "k", Value: string(rune('a' + i))}
		}
		sched := propChurn(pick, span)
		if err := sched.Validate(n, (n-1)/2); err != nil {
			t.Logf("generated schedule invalid: %v", err)
			return false
		}
		if err := runSimulated(cl, events, offerMARP(cl), sched, cl, 10*time.Second); err != nil {
			t.Logf("loss=%.2f pick=%d: %v", loss, pick%4, err)
			return false
		}
		if err := cl.Referee().Err(); err != nil {
			t.Logf("loss=%.2f pick=%d referee: %v", loss, pick%4, err)
			return false
		}
		outs := cl.Outcomes()
		if len(outs) != requests {
			t.Logf("loss=%.2f pick=%d: %d outcomes, want %d", loss, pick%4, len(outs), requests)
			return false
		}
		for _, o := range outs {
			if o.Failed {
				t.Logf("loss=%.2f pick=%d: outcome failed: %+v", loss, pick%4, o)
				return false
			}
		}
		if err := cl.CheckConvergence(); err != nil {
			t.Logf("loss=%.2f pick=%d convergence: %v", loss, pick%4, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	// quick's generator may not hit every churn shape; pin each one at the
	// 30% loss bound so all four are always exercised.
	for pick := uint8(0); pick < 4; pick++ {
		if !prop(99, 30, pick) {
			t.Fatalf("churn shape %d failed at the 30%% loss bound", pick)
		}
	}
}

// TestChaosDeterministicAcrossParallelism re-runs the full A6 grid with 1 and
// 8 sweep workers: identical tables and result structs, or the experiment is
// not reproducible.
func TestChaosDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("full A6 grid")
	}
	run := func(par int) (string, []ChaosResult) {
		tbl, res, err := Chaos(FigureOptions{Quick: true, Seed: 5, Parallelism: par})
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		return tbl.String(), res
	}
	t1, r1 := run(1)
	t8, r8 := run(8)
	if t1 != t8 {
		t.Fatalf("tables differ across parallelism:\n--- 1 worker ---\n%s--- 8 workers ---\n%s", t1, t8)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatalf("results differ across parallelism:\n%+v\n%+v", r1, r8)
	}
}

// TestChaosGridSmoke is the CI smoke: the quick A6 grid must drain, converge,
// and pass the referee at every cell (runChaos turns any violation into an
// error), and the lossy cells must show the recovery stack actually working.
func TestChaosGridSmoke(t *testing.T) {
	tbl, res, err := Chaos(FigureOptions{Quick: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(chaosGrid()) {
		t.Fatalf("%d results, want %d", len(res), len(chaosGrid()))
	}
	for _, r := range res {
		if !r.Converged {
			t.Fatalf("cell %+v did not converge", r.Point)
		}
		if r.Point.Loss == 0 && !r.Point.Churn {
			if r.Lost != 0 || r.Reliable.Retransmissions != 0 {
				t.Fatalf("clean cell saw faults: %+v", r)
			}
			continue
		}
		if r.Point.Loss >= 0.10 {
			if r.Lost == 0 {
				t.Fatalf("cell %+v: fault model ate no messages", r.Point)
			}
			if r.Reliable.Retransmissions == 0 {
				t.Fatalf("cell %+v: no retransmissions under loss", r.Point)
			}
			if r.Reliable.DuplicatesSuppressed == 0 {
				t.Fatalf("cell %+v: no duplicates suppressed", r.Point)
			}
		}
	}
	if tbl.String() == "" {
		t.Fatal("empty table")
	}
}
