package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/desengine"
	"repro/internal/failure"
	"repro/internal/metrics"
	"repro/internal/reliable"
	"repro/internal/simnet"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// ChaosPoint is one cell of the A6 grid: a message-loss rate crossed with a
// churn profile (partition window + loss burst + crash blip, or nothing).
// Shards and Keys shape a sharded cell outside the grid (the message
// census's churn cell); zero keeps A6's one locking list per server and the
// workload's default key space.
type ChaosPoint struct {
	Loss   float64
	Churn  bool
	Shards int
	Keys   int
}

// ChaosResult extends RunResult with the recovery-stack counters the A6
// experiment reports.
type ChaosResult struct {
	RunResult
	Point       ChaosPoint
	Reliable    reliable.Stats
	Regenerated int
	Lost        int // messages eaten by the fault model
	Duplicated  int // messages duplicated by the fault model
	Converged   bool
}

// chaosGrid is the A6 sweep: loss rate × churn.
func chaosGrid() []ChaosPoint {
	var grid []ChaosPoint
	for _, loss := range []float64{0, 0.10, 0.30} {
		for _, churn := range []bool{false, true} {
			grid = append(grid, ChaosPoint{Loss: loss, Churn: churn})
		}
	}
	return grid
}

// Chaos runs the A6 experiment: the full fault-model stack — per-message
// loss and duplication, a minority partition window, a loss burst, and a
// crash blip — against the reliable-delivery layer and agent regeneration.
// Every cell must drain, pass the referee's single-copy oracle, and
// reconverge; the table reports the recovery work that made that true.
func Chaos(o FigureOptions) (*metrics.Table, []ChaosResult, error) {
	o.fill()
	tbl := &metrics.Table{
		Title: "Ablation A6: chaos — message loss x partition churn",
		Note: "reliable delivery + agent regeneration on; churn = minority partition, " +
			"loss burst, and one crash blip; every cell must drain, converge, and pass the referee",
		Columns: []string{"loss", "churn", "committed", "failed", "lost", "retrans",
			"dup dropped", "gave up", "regen", "converged"},
	}
	grid := chaosGrid()
	all, err := sweep.Run(o.runner(), grid, func(i int, p ChaosPoint) (ChaosResult, error) {
		res, err := runChaos(o, i, p)
		if err != nil {
			return res, fmt.Errorf("loss=%.2f churn=%v: %w", p.Loss, p.Churn, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, res := range all {
		tbl.AddRow(
			fmt.Sprintf("%.0f%%", res.Point.Loss*100),
			fmt.Sprintf("%v", res.Point.Churn),
			fmt.Sprintf("%d", res.Summary.Count-res.Summary.Failures),
			fmt.Sprintf("%d", res.Summary.Failures),
			fmt.Sprintf("%d", res.Lost),
			fmt.Sprintf("%d", res.Reliable.Retransmissions),
			fmt.Sprintf("%d", res.Reliable.DuplicatesSuppressed),
			fmt.Sprintf("%d", res.Reliable.GaveUp),
			fmt.Sprintf("%d", res.Regenerated),
			fmt.Sprintf("%v", res.Converged))
	}
	return tbl, all, nil
}

// chaosSchedule builds the churn profile for one A6 cell over a workload of
// the given span: a minority partition for the middle third, a 20-percent
// loss burst overlapping it, and one crash blip afterwards. Node 1 is never
// crashed, so its submissions are never silently dropped at dispatch.
func chaosSchedule(span time.Duration) failure.Schedule {
	var s failure.Schedule
	s = append(s, failure.PartitionWindow(span/3, span/4,
		[]simnet.NodeID{1, 2, 3}, []simnet.NodeID{4, 5})...)
	s = append(s, failure.LossBurst(span/3, span/5, 0.20)...)
	s = append(s, failure.Blip(5, span*3/4, span/6+50*time.Millisecond)...)
	return s
}

func runChaos(o FigureOptions, point int, p ChaosPoint) (ChaosResult, error) {
	const n = 5
	var dup float64
	if p.Loss > 0 {
		dup = 0.05
	}
	faults := simnet.NewFaultModel(o.Seed+5000+int64(point), p.Loss, dup)
	cl, err := desengine.New(desengine.Config{
		Seed:   o.Seed,
		Faults: faults,
		Cluster: core.Config{
			N:        n,
			Shards:   p.Shards,
			Reliable: true,
			// At 30% loss a frame confirms with p≈0.49 per try; 12 attempts
			// drive the chance of an undelivered COMMIT below 1e-5 so a run
			// failing to converge points at a real bug, not sampling noise.
			RetransmitBase:     10 * time.Millisecond,
			RetransmitAttempts: 12,
			RegenerateAgents:   true,
			MigrationTimeout:   60 * time.Millisecond,
			ClaimTimeout:       250 * time.Millisecond,
			RetryInterval:      120 * time.Millisecond,
		},
	})
	if err != nil {
		return ChaosResult{}, err
	}
	events, err := workload.Generate(workload.Spec{
		Servers:           n,
		RequestsPerServer: o.RequestsPerServer,
		MeanInterarrival:  30 * time.Millisecond,
		Keys:              p.Keys,
		Seed:              o.Seed + 1000,
	})
	if err != nil {
		return ChaosResult{}, err
	}
	var sched failure.Schedule
	if p.Churn {
		sched = chaosSchedule(workload.Span(events))
		if err := sched.Validate(n, (n-1)/2); err != nil {
			return ChaosResult{}, err
		}
	}
	if err := runSimulated(cl, events, offerMARP(cl), sched, cl, 10*time.Second); err != nil {
		return ChaosResult{}, err
	}
	if err := cl.Referee().Err(); err != nil {
		return ChaosResult{}, err
	}
	if err := cl.CheckConvergence(); err != nil {
		return ChaosResult{}, fmt.Errorf("replicas diverged: %w", err)
	}
	// The chaos table's counters read through the registry's stable names
	// (what a live /metrics scrape exports); the full Net/Agents structs
	// keep feeding the generic RunResult summaries.
	snap := cl.Metrics().Gather()
	return ChaosResult{
		RunResult: marpResult(RunConfig{Protocol: MARP, N: n, Seed: o.Seed}, cl),
		Point:     p,
		Reliable: reliable.Stats{
			Retransmissions:      int(snap.Value("marp.reliable.retransmissions")),
			DuplicatesSuppressed: int(snap.Value("marp.reliable.duplicates_suppressed")),
			AcksSent:             int(snap.Value("marp.reliable.acks_sent")),
			GaveUp:               int(snap.Value("marp.reliable.gave_up")),
		},
		Regenerated: int(snap.Value("marp.replica.regenerated")),
		Lost:        int(snap.Value("marp.fabric.messages_lost")),
		Duplicated:  int(snap.Value("marp.fabric.messages_duplicated")),
		Converged:   true,
	}, nil
}
