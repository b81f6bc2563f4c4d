// Package harness runs the paper's experiments end to end: it generates the
// workload, drives a MARP cluster or a message-passing baseline through it,
// verifies the correctness oracles, and aggregates the metrics into the
// exact series the paper's figures plot. Each exported Figure/Ablation
// function corresponds to one entry in DESIGN.md's per-experiment index.
package harness

import (
	"fmt"
	"time"

	"repro/internal/agent"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/desengine"
	"repro/internal/failure"
	"repro/internal/metrics"
	"repro/internal/quorum"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// Protocol names a replication protocol under test.
type Protocol string

// The protocols the harness can drive.
const (
	MARP          Protocol = "marp"
	MCV           Protocol = "mcv-mp"
	AvailableCopy Protocol = "available-copy"
	PrimaryCopy   Protocol = "primary-copy"
)

// LatencyPreset names a latency environment.
type LatencyPreset string

// The built-in latency environments.
const (
	LAN       LatencyPreset = "lan"       // sub-millisecond local network
	Prototype LatencyPreset = "prototype" // the paper's Aglets-on-LAN costs
	WAN       LatencyPreset = "wan"       // wide-area Internet
)

func (p LatencyPreset) model() (simnet.LatencyModel, error) {
	switch p {
	case LAN:
		return simnet.LAN(), nil
	case Prototype, "":
		return simnet.Prototype(), nil
	case WAN:
		return simnet.WAN(), nil
	default:
		return nil, fmt.Errorf("harness: unknown latency preset %q", p)
	}
}

// timers returns protocol timeouts proportionate to the preset's delays:
// a migration timeout just above the worst-case one-way latency, a claim
// timeout covering a round trip with margin, and retry/backoff periods that
// do not dwarf the network they run over.
func (p LatencyPreset) timers() (migration, claim, retry, backoff time.Duration) {
	switch p {
	case LAN:
		return 20 * time.Millisecond, 40 * time.Millisecond, 40 * time.Millisecond, 4 * time.Millisecond
	case WAN:
		return 400 * time.Millisecond, 800 * time.Millisecond, 800 * time.Millisecond, 120 * time.Millisecond
	default: // Prototype
		return 60 * time.Millisecond, 120 * time.Millisecond, 120 * time.Millisecond, 15 * time.Millisecond
	}
}

// RunConfig describes one experiment run (one point of a sweep).
type RunConfig struct {
	Protocol          Protocol
	N                 int
	Seed              int64
	Mean              time.Duration // mean request inter-arrival time per server
	RequestsPerServer int
	Latency           LatencyPreset
	Topology          *simnet.Topology // nil = full mesh
	// CostPerUnit, when positive, replaces the preset latency with a
	// cost-proportional model: one-way delay = CostPerUnit x topology
	// cost (+10% exponential jitter). This is what makes itinerary
	// ordering matter on a geo topology.
	CostPerUnit time.Duration

	// MARP-specific knobs.
	BatchSize          int
	DisableInfoSharing bool
	RandomItinerary    bool

	// Sharding knobs (A8). Zero values reproduce the unsharded protocol:
	// one locking list per server, majority quorums over all N replicas.
	Shards    int
	GroupSize int
	Geometry  quorum.Geometry

	// Workload shape.
	Keys     int
	RateSkew float64
}

func (c *RunConfig) fill() {
	if c.Protocol == "" {
		c.Protocol = MARP
	}
	if c.N == 0 {
		c.N = 5
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Mean == 0 {
		c.Mean = 50 * time.Millisecond
	}
	if c.RequestsPerServer == 0 {
		c.RequestsPerServer = 40
	}
	if c.BatchSize == 0 {
		c.BatchSize = 1
	}
}

// RunResult is the outcome of one experiment run.
type RunResult struct {
	Config  RunConfig
	Summary metrics.Summary
	Net     simnet.Stats
	Agents  agent.Stats // zero for baselines
	// Saturated is set when the offered load exceeded the protocol's
	// capacity and the run did not drain within the (generous) virtual
	// time budget. The summary then covers only the completed updates.
	// Write-all AvailableCopy saturates far earlier than the quorum
	// protocols — the very weakness that motivated voting schemes.
	Saturated bool
	// Makespan is the virtual time of the last COMMIT broadcast (MARP runs
	// only). Committed-updates / Makespan is the aggregate throughput A8
	// reports; being virtual time, it is deterministic at any parallelism.
	Makespan time.Duration
}

// CommitsPerSec returns the aggregate committed-update throughput over the
// run's virtual makespan.
func (r RunResult) CommitsPerSec() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	ok := r.Summary.Count - r.Summary.Failures
	return float64(ok) / r.Makespan.Seconds()
}

// MsgsPerUpdate returns the average number of network messages per
// successful update (agent migrations included for MARP).
func (r RunResult) MsgsPerUpdate() float64 {
	ok := r.Summary.Count - r.Summary.Failures
	if ok == 0 {
		return 0
	}
	return float64(r.Net.MessagesSent) / float64(ok)
}

// BytesPerUpdate returns the average bytes on the wire per successful update.
func (r RunResult) BytesPerUpdate() float64 {
	ok := r.Summary.Count - r.Summary.Failures
	if ok == 0 {
		return 0
	}
	return float64(r.Net.BytesSent) / float64(ok)
}

// Run executes one experiment run and verifies the correctness oracles.
func Run(cfg RunConfig) (RunResult, error) {
	cfg.fill()
	events, err := workload.Generate(cfg.workload())
	if err != nil {
		return RunResult{}, err
	}
	if cfg.Protocol == MARP {
		return runMARP(cfg, events)
	}
	return runBaseline(cfg, events)
}

func (c RunConfig) workload() workload.Spec {
	return workload.Spec{
		Servers:           c.N,
		RequestsPerServer: c.RequestsPerServer,
		MeanInterarrival:  c.Mean,
		RateSkew:          c.RateSkew,
		Keys:              c.Keys,
		Seed:              c.Seed + 1000,
	}
}

func (c RunConfig) latencyModel() (simnet.LatencyModel, error) {
	if c.CostPerUnit > 0 {
		return simnet.CostProportional(c.CostPerUnit, simnet.Exponential(0, c.CostPerUnit/10)), nil
	}
	return c.Latency.model()
}

// simulated is what the simulated driver needs of a system under test.
// *desengine.Cluster, *desengine.OptCluster and *baseline.System satisfy it
// as they stand.
type simulated interface {
	Sim() *des.Simulator
	RunUntilDone(maxVirtual time.Duration) error
	Settle(d time.Duration)
}

// runSimulated is the one way a simulated experiment runs: schedule the
// workload (offer fires for each event at its time), then the fault
// schedule against target, run the workload's span plus 1 ms, drain for up
// to 30 virtual minutes, settle. The simulator breaks timestamp ties by
// insertion order, so workload-before-faults is part of every recorded
// figure. The drain's error comes back untouched: a figure sweep calls it
// saturation, every other caller failure. Building the system, validating
// the schedule, the oracles and reading the result stay with the caller.
func runSimulated(sys simulated, events []workload.Event, offer func(workload.Event), faults failure.Schedule, target failure.Target, settle time.Duration) error {
	sim := sys.Sim()
	for _, ev := range events {
		ev := ev
		sim.After(ev.At, func() { offer(ev) })
	}
	faults.Apply(func(d time.Duration, fn func()) { sim.After(d, fn) }, target)
	sim.RunFor(workload.Span(events) + time.Millisecond)
	err := sys.RunUntilDone(30 * time.Minute)
	sys.Settle(settle)
	return err
}

// offerMARP is the workload's meaning on a MARP cluster: a read is a local
// lookup, an update a Set submitted at its home (a refused submit — the
// home is down — is the request's outcome, not the run's).
func offerMARP(cl *desengine.Cluster) func(workload.Event) {
	return func(ev workload.Event) {
		if ev.Read {
			cl.Read(ev.Home, ev.Key)
			return
		}
		_ = cl.Submit(ev.Home, core.Set(ev.Key, ev.Value))
	}
}

// marpSamples is the one MARP outcome → metrics.Sample conversion.
func marpSamples(outs []core.Outcome) []metrics.Sample {
	samples := make([]metrics.Sample, len(outs))
	for i, o := range outs {
		samples[i] = metrics.Sample{
			ALT:     o.LockLatency().Duration(),
			ATT:     o.TotalLatency().Duration(),
			Visits:  o.Visits,
			ByTie:   o.ByTie,
			Retries: o.Retries,
			Failed:  o.Failed,
			Shards:  o.Shards,
		}
	}
	return samples
}

// marpResult reads a finished simulated MARP run into a RunResult.
func marpResult(cfg RunConfig, cl *desengine.Cluster) RunResult {
	outs := cl.Outcomes()
	var makespan time.Duration
	for _, o := range outs {
		if !o.Failed && o.DoneAt.Duration() > makespan {
			makespan = o.DoneAt.Duration()
		}
	}
	return RunResult{
		Config:   cfg,
		Summary:  metrics.Summarize(marpSamples(outs)),
		Net:      cl.Network().Stats(),
		Agents:   cl.Platform().Stats(),
		Makespan: makespan,
	}
}

func runMARP(cfg RunConfig, events []workload.Event) (RunResult, error) {
	model, err := cfg.latencyModel()
	if err != nil {
		return RunResult{}, err
	}
	migration, claim, retry, backoff := cfg.Latency.timers()
	cl, err := desengine.New(desengine.Config{
		Seed:     cfg.Seed,
		Topology: cfg.Topology,
		Latency:  model,
		Cluster: core.Config{
			N:                  cfg.N,
			Shards:             cfg.Shards,
			GroupSize:          cfg.GroupSize,
			Geometry:           cfg.Geometry,
			BatchMaxRequests:   cfg.BatchSize,
			BatchMaxDelay:      batchDelay(cfg.BatchSize),
			MigrationTimeout:   migration,
			ClaimTimeout:       claim,
			RetryInterval:      retry,
			RetryBackoff:       backoff,
			DisableInfoSharing: cfg.DisableInfoSharing,
			RandomItinerary:    cfg.RandomItinerary,
		},
	})
	if err != nil {
		return RunResult{}, err
	}
	saturated := runSimulated(cl, events, offerMARP(cl), nil, nil, 5*time.Second) != nil
	if err := cl.Referee().Err(); err != nil {
		return RunResult{}, err
	}
	if !saturated {
		if err := cl.CheckConvergence(); err != nil {
			return RunResult{}, err
		}
	}
	res := marpResult(cfg, cl)
	res.Saturated = saturated
	return res, nil
}

func batchDelay(size int) time.Duration {
	if size <= 1 {
		return 0
	}
	return 20 * time.Millisecond
}

func runBaseline(cfg RunConfig, events []workload.Event) (RunResult, error) {
	model, err := cfg.latencyModel()
	if err != nil {
		return RunResult{}, err
	}
	var kind baseline.Kind
	switch cfg.Protocol {
	case MCV:
		kind = baseline.MCV
	case AvailableCopy:
		kind = baseline.AvailableCopy
	case PrimaryCopy:
		kind = baseline.PrimaryCopy
	default:
		return RunResult{}, fmt.Errorf("harness: unknown protocol %q", cfg.Protocol)
	}
	_, claim, _, backoff := cfg.Latency.timers()
	sys, err := baseline.New(baseline.Config{
		Kind:         kind,
		N:            cfg.N,
		Seed:         cfg.Seed,
		Topology:     cfg.Topology,
		Latency:      model,
		LockTimeout:  25 * claim,
		RetryBackoff: backoff,
	})
	if err != nil {
		return RunResult{}, err
	}
	saturated := runSimulated(sys, events, func(ev workload.Event) {
		if ev.Read {
			sys.Read(ev.Home, ev.Key)
			return
		}
		_ = sys.Submit(ev.Home, ev.Key, ev.Value)
	}, nil, nil, 5*time.Second) != nil
	if !saturated {
		if err := sys.CheckConvergence(); err != nil {
			return RunResult{}, err
		}
	}
	var samples []metrics.Sample
	for _, r := range sys.Results() {
		samples = append(samples, metrics.Sample{
			ALT:     r.LockLatency().Duration(),
			ATT:     r.TotalLatency().Duration(),
			Retries: r.Retries,
			Failed:  r.Failed,
		})
	}
	return RunResult{
		Config:    cfg,
		Summary:   metrics.Summarize(samples),
		Net:       sys.Network().Stats(),
		Saturated: saturated,
	}, nil
}

// runMARPWithReads runs a MARP cluster over a mixed read/update workload
// with the given read fraction (the A5 experiment): the MARP run, handed
// events a RunConfig cannot describe. A5 has no saturated rows; a run that
// does not drain fails.
func runMARPWithReads(o FigureOptions, readFraction float64) (RunResult, error) {
	cfg := RunConfig{
		Protocol: MARP, N: 5, Seed: o.Seed, Mean: 25 * time.Millisecond,
		RequestsPerServer: o.RequestsPerServer, Latency: o.Latency,
	}
	cfg.fill()
	spec := cfg.workload()
	spec.ReadFraction = readFraction
	events, err := workload.Generate(spec)
	if err != nil {
		return RunResult{}, err
	}
	res, err := runMARP(cfg, events)
	if err == nil && res.Saturated {
		err = fmt.Errorf("harness: the run did not drain in 30 virtual minutes")
	}
	return res, err
}
