package harness

import (
	"fmt"
	"time"

	"repro/internal/desengine"
	"repro/internal/disk"
	"repro/internal/failure"
	"repro/internal/metrics"
	"repro/internal/optimistic"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
	"repro/internal/simnet"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// A10 is the optimistic-commitment showdown: the same workloads that drive
// the pessimistic A-series, run against internal/optimistic. The protocol
// trades MARP's lock-then-commit round trips for a tentative commit at
// LOCAL latency plus an asynchronous stability lag, so the experiment
// reports both numbers side by side — the ALT a client observes, and how
// long the update stays tentative before the deterministic election makes
// it immutable. Three tables:
//
//   - A10a (simulator): LAN and WAN, optimistic vs MARP and the two
//     message-passing baselines. The headline is the WAN row — MARP's ALT
//     carries ring visits over hundred-millisecond links while the
//     optimistic ALT stays local.
//   - A10b (simulator): a WAN loss grid. No retransmission layer exists or
//     is needed: every gossip round re-advertises and re-carries whatever
//     the destination still lacks, so loss stretches the stability lag and
//     nothing else. Every cell must converge to one digest-verified stable
//     prefix, and every cell to the same one.
//   - A10c (live engine): three replica processes over loopback TCP, MARP
//     vs optimistic, wall clock. Machine-dependent like A8's live table;
//     the shape — tentative ALT orders of magnitude under lock ALT — is
//     the result.

// Optimistic protocol name for A10 rows.
const OPT Protocol = "optimistic"

// optGossip returns the reconciliation launch period proportionate to the
// latency preset: a few one-way delays, so an agent generation is usually
// in flight without flooding the ring.
func (p LatencyPreset) optGossip() time.Duration {
	switch p {
	case LAN:
		return 25 * time.Millisecond
	case WAN:
		return 250 * time.Millisecond
	default: // Prototype
		return 60 * time.Millisecond
	}
}

// OptRunConfig describes one optimistic simulator run.
type OptRunConfig struct {
	N                 int
	Seed              int64
	Latency           LatencyPreset
	Loss              float64 // fault-model message loss (0 = reliable)
	RequestsPerServer int
	Mean              time.Duration
	Keys              int
	// Durable journals every replica on a Mem backend — required when the
	// run crashes nodes (Churn).
	Durable bool
	// Churn applies the A6 churn profile: minority partition window, loss
	// burst, one crash blip.
	Churn bool
}

// OptRunResult is one optimistic run's aggregation.
type OptRunResult struct {
	Committed    int           // submissions that reached the stable prefix
	Aborted      int           // election losers (0 without CAS guards)
	Refused      int           // submits rejected at the origin (replica down)
	TentativeALT time.Duration // mean submit -> tentative-commit latency
	StableLag    time.Duration // mean submit -> stable latency, at the origin
	Rollbacks    int           // tentative executions displaced by reordering
	GossipHops   int           // reconciliation-agent hops hosted
	MsgsPerUpd   float64       // fabric messages per stable update
	Lost         int           // messages eaten by the fault model
	Digest       string        // the converged stable-prefix digest (all replicas equal)

	stable []string // the committed transactions' IDs, in outcome order
}

// runOptimisticDES drives one optimistic cluster on the simulator through
// the standard workload generator and verifies the protocol's oracles:
// every submission elected, every replica converged on one digest-verified
// stable prefix.
func runOptimisticDES(cfg OptRunConfig) (OptRunResult, error) {
	model, err := cfg.Latency.model()
	if err != nil {
		return OptRunResult{}, err
	}
	var faults *simnet.FaultModel
	if cfg.Loss > 0 {
		faults = simnet.NewFaultModel(cfg.Seed+7000, cfg.Loss, 0.05)
	}
	ocfg := optimistic.Config{N: cfg.N, GossipInterval: cfg.Latency.optGossip()}
	if cfg.Durable {
		ocfg.Durability = &optimistic.DurabilityConfig{
			Backend: func(runtime.NodeID) disk.Backend { return disk.NewMem() },
		}
	}
	cl, err := desengine.NewOptimistic(desengine.OptConfig{
		Seed: cfg.Seed, Latency: model, Faults: faults, Cluster: ocfg,
	})
	if err != nil {
		return OptRunResult{}, err
	}
	events, err := workload.Generate(workload.Spec{
		Servers:           cfg.N,
		RequestsPerServer: cfg.RequestsPerServer,
		MeanInterarrival:  cfg.Mean,
		Keys:              cfg.Keys,
		Seed:              cfg.Seed + 1000,
	})
	if err != nil {
		return OptRunResult{}, err
	}
	var sched failure.Schedule
	if cfg.Churn {
		sched = chaosSchedule(workload.Span(events))
		if err := sched.Validate(cfg.N, (cfg.N-1)/2); err != nil {
			return OptRunResult{}, err
		}
	}
	// A down replica cannot host a tentative commit — that IS the protocol's
	// availability story, a local up replica — so submits during a crash
	// blip are refused and counted, not retried.
	refused := 0
	err = runSimulated(cl, events, func(ev workload.Event) {
		if ev.Read {
			_, _, _ = cl.Read(ev.Home, ev.Key, true)
			return
		}
		if _, err := cl.Submit(ev.Home, ev.Key, ev.Value); err != nil {
			refused++
		}
	}, sched, &optChaosTarget{cl: cl.Cluster}, 5*time.Second)
	if err != nil {
		return OptRunResult{}, err
	}
	if err := cl.CheckConvergence(); err != nil {
		return OptRunResult{}, err
	}
	res := OptRunResult{Refused: refused}
	// Digest-verified convergence: CheckConvergence compared the logs
	// entry by entry; the digests make the verdict independently checkable
	// (the same fold `marpctl digest` reports).
	for _, id := range cl.LocalNodes() {
		d, _, err := cl.StableDigest(id)
		if err != nil {
			return OptRunResult{}, err
		}
		if res.Digest == "" {
			res.Digest = d
		} else if d != res.Digest {
			return OptRunResult{}, fmt.Errorf("node %d stable digest %s != %s", id, d, res.Digest)
		}
	}
	var tentSum, lagSum time.Duration
	for _, o := range cl.Outcomes() {
		if o.Aborted {
			res.Aborted++
			continue
		}
		if o.StableAt == 0 {
			return OptRunResult{}, fmt.Errorf("%s drained while still tentative", o.Txn)
		}
		res.Committed++
		res.stable = append(res.stable, o.Txn)
		tentSum += o.TentativeAt.Sub(o.SubmittedAt)
		lagSum += o.StableAt.Sub(o.SubmittedAt)
	}
	if res.Committed > 0 {
		res.TentativeALT = tentSum / time.Duration(res.Committed)
		res.StableLag = lagSum / time.Duration(res.Committed)
	}
	snap := cl.Metrics().Gather()
	res.Rollbacks = int(snap.Value("marp.opt.rollbacks"))
	res.GossipHops = int(snap.Value("marp.opt.gossip_hops"))
	res.Lost = int(snap.Value("marp.fabric.messages_lost"))
	if res.Committed > 0 {
		res.MsgsPerUpd = snap.Value("marp.fabric.messages_sent") / float64(res.Committed)
	}
	return res, nil
}

// optChaosTarget adapts the optimistic cluster to failure.ChaosTarget:
// the schedule's hooks return nothing, the cluster's Crash/Recover return
// errors, and in a validated DES run those errors are programming mistakes
// (the harness always journals churned runs), so they fail fast.
type optChaosTarget struct{ cl *optimistic.Cluster }

func (t *optChaosTarget) Crash(id simnet.NodeID) {
	if err := t.cl.Crash(id); err != nil {
		panic("harness: " + err.Error())
	}
}

func (t *optChaosTarget) Recover(id simnet.NodeID) {
	if err := t.cl.Recover(id); err != nil {
		panic("harness: " + err.Error())
	}
}

func (t *optChaosTarget) PartitionNet(groups ...[]simnet.NodeID) { t.cl.PartitionNet(groups...) }
func (t *optChaosTarget) HealNet()                               { t.cl.HealNet() }
func (t *optChaosTarget) SetLoss(p float64)                      { t.cl.SetLoss(p) }

// a10Protocols is the A10a row order within each environment.
var a10Protocols = []Protocol{MARP, MCV, PrimaryCopy, OPT}

// optShowdownDES builds A10a.
func optShowdownDES(o FigureOptions) (*metrics.Table, error) {
	o.fill()
	tbl := &metrics.Table{
		Title: "Ablation A10a: optimistic asynchronous commitment vs MARP (simulator)",
		Note: fmt.Sprintf("N=5, %d requests/server, 50ms mean inter-arrival, single key; "+
			"optimistic ALT is the tentative commit (local, no network wait), stable lag is submit->election; "+
			"MARP/baseline ALT carries their locking round trips", o.RequestsPerServer),
		Columns: []string{"env", "protocol", "ALT (ms)", "stable/ATT (ms)", "msgs/update", "rollbacks"},
	}
	for _, env := range []LatencyPreset{LAN, WAN} {
		for _, p := range a10Protocols {
			if p == OPT {
				res, err := runOptimisticDES(OptRunConfig{
					N: 5, Seed: o.Seed, Latency: env,
					RequestsPerServer: o.RequestsPerServer, Mean: 50 * time.Millisecond,
				})
				if err != nil {
					return nil, fmt.Errorf("a10a %s optimistic: %w", env, err)
				}
				tbl.AddRow(string(env), string(OPT),
					metrics.Ms(res.TentativeALT), metrics.Ms(res.StableLag),
					fmt.Sprintf("%.1f", res.MsgsPerUpd), fmt.Sprintf("%d", res.Rollbacks))
				continue
			}
			res, err := Run(RunConfig{
				Protocol: p, N: 5, Seed: o.Seed, Mean: 50 * time.Millisecond,
				RequestsPerServer: o.RequestsPerServer, Latency: env,
			})
			if err != nil {
				return nil, fmt.Errorf("a10a %s %s: %w", env, p, err)
			}
			tbl.AddRow(string(env), string(p),
				metrics.Ms(res.Summary.MeanALT), metrics.Ms(res.Summary.MeanATT),
				fmt.Sprintf("%.1f", res.MsgsPerUpdate()), "-")
		}
	}
	return tbl, nil
}

// optLossDES builds A10b.
func optLossDES(o FigureOptions) (*metrics.Table, error) {
	o.fill()
	tbl := &metrics.Table{
		Title: "Ablation A10b: optimistic commitment under WAN message loss (simulator)",
		Note: "no retransmission layer: each gossip round re-advertises and re-carries what the " +
			"destination lacks, so loss stretches the stability lag, not the commit set; the digest " +
			"is the cell's converged stable prefix, held identically by all 5 replicas, and the same " +
			"in every row: hybrid-clock stamps make the stable order the submit order, whatever the " +
			"gossip interleaving",
		Columns: []string{"loss", "committed", "stable lag (ms)", "rollbacks", "gossip hops", "lost", "stable digest"},
	}
	// One seed for all rows: the workload is identical, so the committed
	// and digest columns demonstrate the claim directly — loss moves the
	// lag, never the commit set or its order.
	var digest string
	for _, loss := range []float64{0, 0.10, 0.30} {
		res, err := runOptimisticDES(OptRunConfig{
			N: 5, Seed: o.Seed, Latency: WAN, Loss: loss,
			RequestsPerServer: o.RequestsPerServer, Mean: 50 * time.Millisecond,
		})
		if err != nil {
			return nil, fmt.Errorf("a10b loss=%.2f: %w", loss, err)
		}
		if digest == "" {
			digest = res.Digest
		} else if res.Digest != digest {
			return nil, fmt.Errorf("a10b loss=%.2f: stable digest %s, the lossless run's is %s", loss, res.Digest, digest)
		}
		tbl.AddRow(
			fmt.Sprintf("%.0f%%", loss*100),
			fmt.Sprintf("%d", res.Committed),
			metrics.Ms(res.StableLag),
			fmt.Sprintf("%d", res.Rollbacks),
			fmt.Sprintf("%d", res.GossipHops),
			fmt.Sprintf("%d", res.Lost),
			res.Digest)
	}
	return tbl, nil
}

// --- A10c: the live-engine half ------------------------------------------

const a10LiveServers = 3

// optShowdownLive builds A10c: MARP and optimistic, each as three replica
// processes in this process wired through real TCP sockets, wall clock.
func optShowdownLive(o FigureOptions) (*metrics.Table, error) {
	o.fill()
	reqs := 12
	if o.Quick {
		reqs = 6
	}
	tbl := &metrics.Table{
		Title: "Ablation A10c (live): optimistic vs MARP on the TCP engine (wall clock)",
		Note: fmt.Sprintf("N=%d in-process replicas over loopback TCP, %d requests/server; "+
			"optimistic ALT is the client-observed tentative commit, stable lag is submit->election; "+
			"wall clock and machine-dependent", a10LiveServers, reqs),
		Columns: []string{"protocol", "ALT (ms)", "stable/ATT (ms)", "converged"},
	}
	alt, att, err := a10LiveMARP(o.Seed, reqs)
	if err != nil {
		return nil, fmt.Errorf("a10c marp: %w", err)
	}
	tbl.AddRow(string(MARP), metrics.Ms(alt), metrics.Ms(att), "yes")
	optALT, optLag, err := a10LiveOptimistic(o.Seed, reqs)
	if err != nil {
		return nil, fmt.Errorf("a10c optimistic: %w", err)
	}
	tbl.AddRow(string(OPT), metrics.Ms(optALT), metrics.Ms(optLag), "yes (digest-verified)")
	// The WAN acceptance bound lives in a10_test.go; the live half's bound
	// is structural: a tentative commit never waits on the network, so even
	// over loopback it must undercut the locking ALT.
	if optALT >= alt {
		return nil, fmt.Errorf("a10c: optimistic tentative ALT %v did not beat MARP ALT %v", optALT, alt)
	}
	return tbl, nil
}

// a10Events is the A10c workload, the same for both protocols.
func a10Events(seed int64, reqs int) ([]workload.Event, error) {
	return workload.Generate(workload.Spec{
		Servers: a10LiveServers, RequestsPerServer: reqs,
		MeanInterarrival: time.Millisecond, Seed: seed + 1000,
	})
}

// a10LiveMARP runs the MARP cell of A10c and returns mean ALT and ATT.
func a10LiveMARP(seed int64, reqs int) (time.Duration, time.Duration, error) {
	nodes, err := live.StartCluster(a10LiveServers, func(id runtime.NodeID, addrs map[runtime.NodeID]string) (*live.Node, error) {
		return live.StartNode(live.NodeConfig{Self: id, Addrs: addrs, Seed: seed + int64(id)})
	})
	if err != nil {
		return 0, 0, err
	}
	defer closeAll(nodes)
	events, err := a10Events(seed, reqs)
	if err != nil {
		return 0, 0, err
	}
	sum, _, err := runLiveMARP(nodes, events)
	return sum.MeanALT, sum.MeanATT, err
}

// submitOptimistic submits one workload event on its home's actor loop.
func submitOptimistic(node *live.OptNode, ev workload.Event) error {
	var err error
	if !node.Eng.Do(func() { _, err = node.Cluster.Submit(ev.Home, ev.Key, ev.Value) }) {
		return fmt.Errorf("engine closed during submit")
	}
	return err
}

// runLiveOptimistic drives a live optimistic cluster through events —
// through submit, so a caller can time the client's view of each — waits
// until every node holds all of them stable, and returns every node's
// outcomes (each records its own submissions) once the stable-prefix
// digests agree across the processes.
func runLiveOptimistic(nodes []*live.OptNode, events []workload.Event, submit func(*live.OptNode, workload.Event) error) ([]optimistic.Outcome, error) {
	expect := uint64(len(events))
	_, err := runLive(nodes, events, submit, func(cl *optimistic.Cluster) error {
		return cl.RunUntilStable(2*time.Minute, expect)
	})
	if err != nil {
		return nil, err
	}
	var outs []optimistic.Outcome
	var digest string
	var bad error
	err = onLoops(nodes, func(id runtime.NodeID, cl *optimistic.Cluster) {
		d, _, derr := cl.StableDigest(id)
		switch {
		case derr != nil:
			bad = derr
		case digest == "":
			digest = d
		case d != digest:
			bad = fmt.Errorf("node %d stable digest %s != %s", id, d, digest)
		}
		outs = append(outs, cl.Outcomes()...)
	})
	if err == nil {
		err = bad
	}
	return outs, err
}

// a10LiveOptimistic runs the optimistic cell of A10c: mean client-observed
// tentative ALT and mean stability lag, with cross-process digest
// verification.
func a10LiveOptimistic(seed int64, reqs int) (time.Duration, time.Duration, error) {
	nodes, err := live.StartCluster(a10LiveServers, func(id runtime.NodeID, addrs map[runtime.NodeID]string) (*live.OptNode, error) {
		return live.StartOptNode(live.OptNodeConfig{
			Self: id, Addrs: addrs, Seed: seed + int64(id),
			GossipInterval: LAN.optGossip(),
		})
	})
	if err != nil {
		return 0, 0, err
	}
	defer closeAll(nodes)
	events, err := a10Events(seed, reqs)
	if err != nil {
		return 0, 0, err
	}
	var altSum time.Duration
	outs, err := runLiveOptimistic(nodes, events, func(node *live.OptNode, ev workload.Event) error {
		start := time.Now()
		err := submitOptimistic(node, ev)
		altSum += time.Since(start)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	if len(outs) == 0 {
		return 0, 0, fmt.Errorf("no updates stabilized")
	}
	var lagSum time.Duration
	for _, o := range outs {
		if o.Aborted || o.StableAt == 0 {
			return 0, 0, fmt.Errorf("%s not stable after drain", o.Txn)
		}
		lagSum += o.StableAt.Sub(o.SubmittedAt)
	}
	return altSum / time.Duration(len(events)), lagSum / time.Duration(len(outs)), nil
}

// Optimistic runs the A10 experiment: the two simulator tables, then the
// live-engine table.
func Optimistic(o FigureOptions) ([]*metrics.Table, error) {
	a, err := optShowdownDES(o)
	if err != nil {
		return nil, err
	}
	b, err := optLossDES(o)
	if err != nil {
		return nil, err
	}
	c, err := optShowdownLive(o)
	if err != nil {
		return nil, err
	}
	return []*metrics.Table{a, b, c}, nil
}

// OptChaosResult is one cell of the optimistic chaos grid.
type OptChaosResult struct {
	Point ChaosPoint
	OptRunResult
}

// ChaosOptimistic runs the optimistic protocol through the A6 loss x churn
// grid. The pessimistic protocol needs its reliable-delivery and agent-
// regeneration stack to survive this grid; the optimistic protocol brings
// no extra machinery — the periodic gossip IS the retransmission path —
// and every cell must still end with one digest-verified stable prefix on
// every replica.
func ChaosOptimistic(o FigureOptions) (*metrics.Table, []OptChaosResult, error) {
	o.fill()
	tbl := &metrics.Table{
		Title: "Ablation A6-opt: optimistic commitment through the chaos grid",
		Note: "same loss x churn grid as A6 (minority partition, loss burst, crash blip), " +
			"Mem-journaled replicas; no reliable-delivery layer — gossip rounds re-carry losses; " +
			"a refused submit is one homed at the crashed replica during the blip (a down replica " +
			"cannot host a tentative commit); every cell must converge to one digest-verified " +
			"stable prefix",
		Columns: []string{"loss", "churn", "committed", "refused", "stable lag (ms)", "rollbacks", "lost", "stable digest"},
	}
	grid := chaosGrid()
	all, err := sweep.Run(o.runner(), grid, func(i int, p ChaosPoint) (OptChaosResult, error) {
		res, err := runOptimisticDES(OptRunConfig{
			N: 5, Seed: o.Seed + int64(i), Latency: LAN, Loss: p.Loss,
			RequestsPerServer: o.RequestsPerServer, Mean: 30 * time.Millisecond,
			Durable: true, Churn: p.Churn,
		})
		if err != nil {
			return OptChaosResult{}, fmt.Errorf("optimistic loss=%.2f churn=%v: %w", p.Loss, p.Churn, err)
		}
		return OptChaosResult{Point: p, OptRunResult: res}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for _, res := range all {
		tbl.AddRow(
			fmt.Sprintf("%.0f%%", res.Point.Loss*100),
			fmt.Sprintf("%v", res.Point.Churn),
			fmt.Sprintf("%d", res.Committed),
			fmt.Sprintf("%d", res.Refused),
			metrics.Ms(res.StableLag),
			fmt.Sprintf("%d", res.Rollbacks),
			fmt.Sprintf("%d", res.Lost),
			res.Digest)
	}
	return tbl, all, nil
}
