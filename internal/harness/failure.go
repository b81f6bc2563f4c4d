package harness

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/desengine"
	"repro/internal/failure"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// newRand returns a seeded random source for harness-level choices (kept
// separate from the simulation's own source so sweeps stay reproducible).
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// FailureResult extends RunResult with failure-experiment bookkeeping.
type FailureResult struct {
	RunResult
	Crashes       int
	AgentsKilled  int
	ConvergedOK   bool
	CommittedSeqs uint64
}

// FailureInjection runs the A4 experiment: a workload with periodic server
// crash/recovery cycles (the paper's transient-failure environment, §2).
// It reports completion and convergence under churn.
func FailureInjection(o FigureOptions) (*metrics.Table, []FailureResult, error) {
	o.fill()
	tbl := &metrics.Table{
		Title:   "Ablation A4: transient server failures during the workload",
		Note:    "one crash/recovery cycle per listed server; agents on a crashing host die",
		Columns: []string{"crashed servers", "committed", "failed", "mean ATT (ms)", "converged"},
	}
	crashCounts := []int{0, 1, 2}
	all, err := sweep.Run(o.runner(), crashCounts, func(_ int, crashes int) (FailureResult, error) {
		res, err := runWithFailures(o, crashes)
		if err != nil {
			return res, fmt.Errorf("%d crashes: %w", crashes, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for i, res := range all {
		tbl.AddRow(fmt.Sprintf("%d", crashCounts[i]),
			fmt.Sprintf("%d", res.Summary.Count-res.Summary.Failures),
			fmt.Sprintf("%d", res.Summary.Failures),
			metrics.Ms(res.Summary.MeanATT),
			fmt.Sprintf("%v", res.ConvergedOK))
	}
	return tbl, all, nil
}

func runWithFailures(o FigureOptions, crashes int) (FailureResult, error) {
	const n = 5
	cl, err := desengine.New(desengine.Config{
		Seed: o.Seed,
		Cluster: core.Config{
			N:                n,
			MigrationTimeout: 30 * time.Millisecond,
		},
	})
	if err != nil {
		return FailureResult{}, err
	}
	events, err := workload.Generate(workload.Spec{
		Servers:           n,
		RequestsPerServer: o.RequestsPerServer,
		MeanInterarrival:  30 * time.Millisecond,
		Seed:              o.Seed + 1000,
	})
	if err != nil {
		return FailureResult{}, err
	}
	span := workload.Span(events)
	var sched failure.Schedule
	for i := 0; i < crashes; i++ {
		victim := simnet.NodeID(i + 2) // never crash server 1, varies per i
		at := span * time.Duration(i+1) / time.Duration(crashes+1)
		sched = append(sched, failure.Blip(victim, at, span/4+200*time.Millisecond)...)
	}
	if err := sched.Validate(n, (n-1)/2); err != nil {
		return FailureResult{}, err
	}
	if err := runSimulated(cl, events, offerMARP(cl), sched, cl, 10*time.Second); err != nil {
		return FailureResult{}, err
	}
	if err := cl.Referee().Err(); err != nil {
		return FailureResult{}, err
	}
	return FailureResult{
		RunResult:     marpResult(RunConfig{Protocol: MARP, N: n, Seed: o.Seed}, cl),
		Crashes:       crashes,
		AgentsKilled:  cl.Platform().Stats().AgentsKilled,
		ConvergedOK:   cl.CheckConvergence() == nil,
		CommittedSeqs: cl.Server(1).Store().LastSeq(),
	}, nil
}
