package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	goruntime "runtime"
	"time"

	"repro/internal/core"
	"repro/internal/desengine"
	"repro/internal/failure"
	"repro/internal/optimistic"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// simRun is what one simulated run of a fixed schedule yields. Everything
// except setup and wall is a function of the seed alone.
type simRun struct {
	attempted, committed, failed int
	lat                          []float64 // ms virtual, per commit: ATT, or submit -> stable
	first                        []float64 // ms virtual: ALT, or submit -> tentative
	updateRound                  []float64 // ms virtual: LockAt -> DoneAt (MARP only)

	msgs, bytes, lost, steps int
	visits, retries, ties    int
	won3                     int // locks won after exactly 3 visits (PRK3)
	migrations, migFailed    int
	regenerated              int
	retransmits, dupDropped  int
	gaveUp                   int
	llDepth                  []float64 // Locking List depth, sampled
	growth                   float64   // bytes/commit, last quarter / first
	rollbacks, hops, aborts  int
	tentDepthMax             float64

	heap        uint64 // live heap with the finished cluster still reachable
	setup, wall time.Duration
	spans       []span
	traceCost   time.Duration // time spent building spans
}

// fingerprint folds every seed-determined number into one hash, for -check.
func (r *simRun) fingerprint() uint64 {
	h := fnv.New64a()
	fmt.Fprint(h, r.attempted, r.committed, r.failed, r.msgs, r.bytes, r.lost, r.steps,
		r.visits, r.retries, r.ties, r.migrations, r.regenerated, r.retransmits, r.rollbacks, r.hops)
	var b [8]byte
	for _, v := range r.lat {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// marpSim describes one MARP run on the simulator.
type marpSim struct {
	n, perServer int
	mean         time.Duration
	keys         int
	cluster      core.Config
	loss, dup    float64 // fault model; both zero = the paper's reliable channels
	churn        bool
}

// The LAN timers harness.Run pairs with simnet.LAN(): timeouts just above
// the sub-millisecond network they run over.
func lanTimers(c core.Config) core.Config {
	c.MigrationTimeout = 20 * time.Millisecond
	c.ClaimTimeout = 40 * time.Millisecond
	c.RetryInterval = 40 * time.Millisecond
	c.RetryBackoff = 4 * time.Millisecond
	return c
}

// desHotSim is the paper's contended setting: five servers, one key, LAN.
// 40 ms mean inter-arrival per server (~50% load): at 30 ms the p90 is set
// by seed-chaotic retry convoys and moved 15% between seeds on 8000 samples.
func desHotSim(scale float64) marpSim {
	return marpSim{n: 5, perServer: scaled(200, scale), mean: 40 * time.Millisecond, keys: 1,
		cluster: lanTimers(core.Config{N: 5})}
}

// desChurnSim is the fault workload: the A6 recovery stack (reliable
// delivery, agent regeneration) under 3% loss, 1.5% duplication and a churn
// round every two virtual seconds. 64 keys on 16 shards so a stalled agent
// blocks its shard, not the whole run.
func desChurnSim(scale float64) marpSim {
	return marpSim{n: 5, perServer: scaled(200, scale), mean: 30 * time.Millisecond, keys: 64,
		loss: 0.03, dup: 0.015, churn: true,
		cluster: core.Config{
			N: 5, Shards: 16,
			Reliable: true, RetransmitBase: 10 * time.Millisecond, RetransmitAttempts: 12,
			RegenerateAgents: true,
			MigrationTimeout: 60 * time.Millisecond, ClaimTimeout: 250 * time.Millisecond,
			RetryInterval: 120 * time.Millisecond,
		}}
}

func scaled(n int, scale float64) int {
	if m := int(float64(n) * scale); m >= 4 {
		return m
	}
	return 4
}

// churnSchedule is the A6 churn profile made periodic: every two seconds a
// 150 ms minority partition, then a 200 ms crash blip of node 5. Node 1 is
// never crashed. Short, repeated faults keep the delayed share of requests
// well under 10%, so commit_p90_ms sits in the one-retransmission cluster
// and not on the edge of a stall. A6's 20% loss burst is left out: with it 3
// of 40 seeds ended with replicas holding different updates at one sequence
// number (README.md, findings), and a workload must pass its gate on every
// seed.
func churnSchedule(span time.Duration) failure.Schedule {
	var s failure.Schedule
	for t := 500 * time.Millisecond; t+2*time.Second < span; t += 2 * time.Second {
		s = append(s, failure.PartitionWindow(t, 150*time.Millisecond,
			[]simnet.NodeID{1, 2, 3}, []simnet.NodeID{4, 5})...)
		s = append(s, failure.Blip(5, t+700*time.Millisecond, 200*time.Millisecond)...)
	}
	return s
}

func (p marpSim) events(seed int64) ([]workload.Event, error) {
	return workload.Generate(workload.Spec{
		Servers: p.n, RequestsPerServer: p.perServer,
		MeanInterarrival: p.mean, Keys: p.keys, Seed: seed + 1000,
	})
}

// run simulates the schedule generated from seed and checks every oracle.
func (p marpSim) run(seed int64, traced bool) (*simRun, error) {
	t0 := time.Now()
	events, err := p.events(seed)
	if err != nil {
		return nil, err
	}
	var faults *simnet.FaultModel
	if p.loss > 0 || p.dup > 0 {
		faults = simnet.NewFaultModel(seed+5000, p.loss, p.dup)
	}
	cl, err := desengine.New(desengine.Config{Seed: seed, Latency: simnet.LAN(), Faults: faults, Cluster: p.cluster})
	if err != nil {
		return nil, err
	}
	sim := cl.Sim()
	r := &simRun{attempted: len(events)}
	horizon := workload.Span(events)
	// One agent per accepted submit, numbered in dispatch order by the one
	// platform a simulated cluster has: vals[k] rides the agent with Seq k+1.
	var vals []string
	for _, ev := range events {
		ev := ev
		sim.After(ev.At, func() {
			// A client whose home is down fails over to the next replica,
			// as a real one does on a refused connection.
			home := ev.Home
			for cl.Network().Down(home) {
				home = home%simnet.NodeID(p.n) + 1
			}
			if err := cl.Submit(home, core.Set(ev.Key, ev.Value)); err != nil {
				r.failed++
				return
			}
			vals = append(vals, ev.Value)
		})
	}
	if p.churn {
		sched := churnSchedule(horizon)
		if err := sched.Validate(p.n, (p.n-1)/2); err != nil {
			return nil, err
		}
		sched.Apply(func(d time.Duration, fn func()) { sim.After(d, fn) }, cl)
	}
	shards := cl.Describe().Shards
	for t := 100 * time.Millisecond; t < horizon; t += 100 * time.Millisecond {
		sim.After(t, func() {
			depth := 0
			for _, id := range cl.Nodes() {
				for sh := 0; sh < shards; sh++ {
					depth += cl.Server(id).QueueLen(sh)
				}
			}
			r.llDepth = append(r.llDepth, float64(depth))
		})
	}
	var qBytes, qDone [5]int
	for q := 1; q <= 3; q++ {
		q := q
		sim.After(horizon*time.Duration(q)/4, func() {
			qBytes[q], qDone[q] = cl.Network().Stats().BytesSent, len(vals)-cl.Outstanding()
		})
	}
	r.setup = time.Since(t0)

	t1 := time.Now()
	sim.RunFor(horizon + time.Millisecond)
	qBytes[4], qDone[4] = cl.Network().Stats().BytesSent, len(vals)-cl.Outstanding()
	if err := cl.RunUntilDone(30 * time.Minute); err != nil {
		return nil, err
	}
	cl.Settle(10 * time.Second)
	if err := cl.Referee().Err(); err != nil {
		return nil, err
	}
	if err := cl.CheckConvergence(); err != nil {
		return nil, err
	}
	outs := cl.Outcomes()
	committed := make(map[string]bool, len(outs))
	for _, o := range outs {
		if !o.Failed {
			committed[vals[o.Agent.Seq-1]] = true
		}
	}
	var logs [][]string
	for sh := 0; sh < shards; sh++ {
		var log []string
		for _, u := range cl.Server(1).StoreOf(sh).Log() {
			log = append(log, u.Data)
		}
		logs = append(logs, log)
	}
	if err := exactlyOnce(committed, logs); err != nil {
		return nil, err
	}
	r.wall = time.Since(t1)
	r.heap = liveHeap()
	goruntime.KeepAlive(cl)

	for _, o := range outs {
		if o.Failed {
			r.failed += o.Requests
			continue
		}
		r.committed += o.Requests
		r.lat = append(r.lat, ms(o.TotalLatency().Duration()))
		r.first = append(r.first, ms(o.LockLatency().Duration()))
		r.updateRound = append(r.updateRound, ms(o.DoneAt.Sub(o.LockAt)))
		r.visits += o.Visits
		r.retries += o.Retries
		if o.ByTie {
			r.ties++
		}
		if o.Visits == 3 {
			r.won3++
		}
	}
	if traced {
		t := time.Now()
		for _, o := range outs {
			if !o.Failed {
				r.spans = appendOutcomeSpans(r.spans, o)
			}
		}
		r.traceCost = time.Since(t)
	}
	st := cl.Network().Stats()
	r.msgs, r.bytes, r.lost = st.MessagesSent, st.BytesSent, st.MessagesLost
	r.steps = int(sim.Steps())
	ag := cl.Platform().Stats()
	r.migrations, r.migFailed = ag.MigrationsStarted, ag.MigrationsFailed
	r.regenerated = cl.Regenerated()
	rel := cl.ReliableStats()
	r.retransmits, r.dupDropped, r.gaveUp = rel.Retransmissions, rel.DuplicatesSuppressed, rel.GaveUp
	first := ratio(float64(qBytes[1]), float64(qDone[1]))
	last := ratio(float64(qBytes[4]-qBytes[3]), float64(qDone[4]-qDone[3]))
	r.growth = ratio(last, first)
	return r, nil
}

// appendOutcomeSpans turns one finished agent into its virtual-time spans.
func appendOutcomeSpans(spans []span, o core.Outcome) []span {
	req := o.Agent.String()
	root := len(spans) + 1
	return append(spans,
		span{ID: root, Name: "client.commit", Req: req, Node: int(o.Home), Clock: "virtual",
			Start: int64(o.Dispatched), End: int64(o.DoneAt)},
		span{ID: root + 1, Parent: root, Name: "core.lock_phase", Req: req, Node: int(o.Home), Clock: "virtual",
			Start: int64(o.Dispatched), End: int64(o.LockAt)},
		span{ID: root + 2, Parent: root, Name: "core.update_round", Req: req, Node: int(o.Home), Clock: "virtual",
			Start: int64(o.LockAt), End: int64(o.DoneAt)},
	)
}

// exactlyOnce checks that the values in the replicas' logs, folded over
// every shard, are exactly the ones whose commit the client was told of:
// none lost, none twice, none the client believes failed.
func exactlyOnce(committed map[string]bool, logs [][]string) error {
	seen := make(map[string]bool, len(committed))
	for _, log := range logs {
		for _, v := range log {
			if !committed[v] {
				return fmt.Errorf("value %q is in the log but its request was not reported committed", v)
			}
			if seen[v] {
				return fmt.Errorf("value %q committed twice", v)
			}
			seen[v] = true
		}
	}
	if len(seen) != len(committed) {
		return fmt.Errorf("only %d of %d committed values are in the log", len(seen), len(committed))
	}
	return nil
}

// optSim is the optimistic tier on the WAN preset.
type optSim struct {
	n, perServer, keys int
	mean               time.Duration
}

func desOptimisticSim(scale float64) optSim {
	return optSim{n: 5, perServer: scaled(4000, scale), keys: 64, mean: 50 * time.Millisecond}
}

func (p optSim) events(seed int64) ([]workload.Event, error) {
	return workload.Generate(workload.Spec{
		Servers: p.n, RequestsPerServer: p.perServer,
		MeanInterarrival: p.mean, Keys: p.keys, Seed: seed + 1000,
	})
}

func (p optSim) run(seed int64, traced bool) (*simRun, error) {
	t0 := time.Now()
	events, err := p.events(seed)
	if err != nil {
		return nil, err
	}
	// 250 ms is the launch period the A10 harness pairs with simnet.WAN().
	cl, err := desengine.NewOptimistic(desengine.OptConfig{
		Seed: seed, Latency: simnet.WAN(),
		Cluster: optimistic.Config{N: p.n, GossipInterval: 250 * time.Millisecond},
	})
	if err != nil {
		return nil, err
	}
	sim := cl.Sim()
	r := &simRun{attempted: len(events)}
	horizon := workload.Span(events)
	byTxn := make(map[string]string, len(events))
	for _, ev := range events {
		ev := ev
		sim.After(ev.At, func() {
			txn, err := cl.Submit(ev.Home, ev.Key, ev.Value)
			if err != nil {
				r.failed++
				return
			}
			byTxn[txn] = ev.Value
		})
	}
	for t := time.Second; t < horizon; t += time.Second {
		sim.After(t, func() {
			if d := cl.Metrics().Value("marp.opt.tentative_depth"); d > r.tentDepthMax {
				r.tentDepthMax = d
			}
		})
	}
	r.setup = time.Since(t0)

	t1 := time.Now()
	sim.RunFor(horizon + time.Millisecond)
	if err := cl.RunUntilDone(30 * time.Minute); err != nil {
		return nil, err
	}
	cl.Settle(5 * time.Second)
	if err := cl.CheckConvergence(); err != nil {
		return nil, err
	}
	digest := ""
	for _, id := range cl.LocalNodes() {
		d, _, err := cl.StableDigest(id)
		if err != nil {
			return nil, err
		}
		if digest == "" {
			digest = d
		} else if d != digest {
			return nil, fmt.Errorf("node %d stable digest %s != %s", id, d, digest)
		}
	}
	outs := cl.Outcomes()
	committed := make(map[string]bool, len(outs))
	for _, o := range outs {
		if !o.Aborted && o.StableAt != 0 {
			committed[byTxn[o.Txn]] = true
		}
	}
	var logs [][]string
	for sh := 0; sh < cl.Shards(); sh++ {
		stable, err := cl.StableLog(1, sh)
		if err != nil {
			return nil, err
		}
		var log []string
		for _, u := range stable {
			log = append(log, u.Data)
		}
		logs = append(logs, log)
	}
	if err := exactlyOnce(committed, logs); err != nil {
		return nil, err
	}
	r.wall = time.Since(t1)
	r.heap = liveHeap()
	goruntime.KeepAlive(cl)

	for _, o := range outs {
		if o.Aborted || o.StableAt == 0 {
			r.failed++
			continue
		}
		r.committed++
		r.lat = append(r.lat, ms(o.StableAt.Sub(o.SubmittedAt)))
		r.first = append(r.first, ms(o.TentativeAt.Sub(o.SubmittedAt)))
	}
	if traced {
		t := time.Now()
		for _, o := range outs {
			if o.Aborted || o.StableAt == 0 {
				continue
			}
			root := len(r.spans) + 1
			r.spans = append(r.spans,
				span{ID: root, Name: "client.commit", Req: o.Txn, Node: int(o.Origin), Clock: "virtual",
					Start: int64(o.SubmittedAt), End: int64(o.StableAt)},
				span{ID: root + 1, Parent: root, Name: "opt.tentative", Req: o.Txn, Node: int(o.Origin), Clock: "virtual",
					Start: int64(o.SubmittedAt), End: int64(o.TentativeAt)},
				span{ID: root + 2, Parent: root, Name: "opt.stability_lag", Req: o.Txn, Node: int(o.Origin), Clock: "virtual",
					Start: int64(o.TentativeAt), End: int64(o.StableAt)})
		}
		r.traceCost = time.Since(t)
	}
	st := cl.Network().Stats()
	r.msgs, r.bytes, r.lost = st.MessagesSent, st.BytesSent, st.MessagesLost
	r.steps = int(sim.Steps())
	snap := cl.Metrics().Gather()
	// Rollbacks and hops are summed over the five replicas; promotions too,
	// so per-commit ratios divide by submissions, not by N x submissions.
	r.rollbacks = int(snap.Value("marp.opt.rollbacks"))
	r.hops = int(snap.Value("marp.opt.gossip_hops"))
	r.aborts = int(snap.Value("marp.opt.aborts"))
	return r, nil
}

// simulation is a DES workload: a fixed list of sub-seeded runs.
type simulation interface {
	run(seed int64, traced bool) (*simRun, error)
	events(seed int64) ([]workload.Event, error)
}

// desWorkload returns the simulation behind a des-* workload and how many
// sub-seeded runs make one pass. The pass is fixed work: its virtual-time
// numbers are exact for a seed. Pooling several sub-seeds is what makes them
// steady from one seed to the next.
func desWorkload(name string, scale float64) (simulation, int) {
	switch name {
	case "des-hot":
		return desHotSim(scale), 6
	case "des-churn":
		return desChurnSim(scale), 3
	default:
		return desOptimisticSim(scale), 1
	}
}

// subSeed spreads one benchmark seed into the seeds of a pass.
func subSeed(seed int64, i int) int64 { return seed*1000 + int64(i) }
