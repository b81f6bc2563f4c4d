package core_test

// The deployed shape on the simulator: one cluster per replica, each
// hosting only its own as a marpd process does, on a network that claims
// wire delivery (desengine.NewProcesses).

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/desengine"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/workload"
)

func assemble(t *testing.T, cfg desengine.Config) *desengine.Processes {
	t.Helper()
	p, err := desengine.NewProcesses(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// commit submits one update at home and runs until home's process has
// recorded its outcome, then lets the last COMMITs land.
func commit(t *testing.T, p *desengine.Processes, home runtime.NodeID, r core.Request) {
	t.Helper()
	c := p.Cluster(home)
	if err := c.Submit(home, r); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Settle(100 * time.Millisecond)
}

// converged checks the processes agree on every shard and returns shard
// sh's log as its lowest group member holds it.
func converged(t *testing.T, p *desengine.Processes, sh int) []store.Update {
	t.Helper()
	if err := p.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	id := p.Cluster(1).Quorums()[sh].Nodes()[0]
	return p.Cluster(id).Server(id).StoreOf(sh).Log()
}

// TestReportCarriesTheHomeCommit: an agent that commits away from its home
// sends the home one message, the outcome report with the home's COMMIT in
// it, so a commit on three replicas costs two COMMITs and no report of its
// own, and every home ends up holding every update once, in the order the
// others hold them. (A report delivered twice changes nothing:
// TestReportAppliedTwiceChangesNothing.)
func TestReportCarriesTheHomeCommit(t *testing.T) {
	tr := trace.New(0)
	p := assemble(t, desengine.Config{Seed: 11, Latency: simnet.Constant(time.Millisecond), Cluster: core.Config{N: 3, Trace: tr}})
	const rounds = 3
	for i := 0; i < rounds; i++ {
		for home := runtime.NodeID(1); home <= 3; home++ {
			commit(t, p, home, core.Append("k", fmt.Sprintf("%d.%d,", home, i)))
		}
	}
	commits := 3 * rounds
	for id := runtime.NodeID(1); id <= 3; id++ {
		c := p.Cluster(id)
		outs := c.Outcomes()
		if len(outs) != rounds || c.Outstanding() != 0 {
			t.Fatalf("node %d recorded %d outcomes with %d outstanding, want %d and 0", id, len(outs), c.Outstanding(), rounds)
		}
		for _, o := range outs {
			if o.Failed || o.Home != id {
				t.Fatalf("node %d recorded %+v", id, o)
			}
		}
	}
	// A report leaves wherever an agent commits away from its home.
	reports := 0
	for _, e := range tr.Filter(trace.CommitSent) {
		if !strings.HasPrefix(e.Actor, fmt.Sprintf("A%d.", e.Node)) {
			reports++
		}
	}
	if reports != commits {
		t.Fatalf("%d reports for %d commits: some agent finished at home, and this test has no teeth", reports, commits)
	}
	st := p.Network().Stats()
	if st.ByKind["outcome"] != 0 {
		t.Errorf("%d plain outcome reports, want every report to carry its home's COMMIT", st.ByKind["outcome"])
	}
	if got, want := st.ByKind["commit"], 2*commits; got != want {
		t.Errorf("%d commit messages, want (N−1)·%d commits = %d", got, commits, want)
	}
	log := converged(t, p, 0)
	if len(log) != commits {
		t.Fatalf("the replicas hold %d updates, want %d", len(log), commits)
	}
	for i, u := range log {
		if u.Seq != uint64(i+1) {
			t.Fatalf("log[%d] has seq %d", i, u.Seq)
		}
	}
	for home := runtime.NodeID(1); home <= 3; home++ {
		c := p.Cluster(home)
		for _, o := range c.Outcomes() {
			if !c.Server(home).IsGone(o.Agent) {
				t.Errorf("home %d does not hold its agent %s gone", home, o.Agent)
			}
		}
	}
}

// TestReportToAHomeOutsideTheGroup: a home that replicates none of the
// agent's shards is no COMMIT target, so it gets a plain report and every
// group member other than the one the agent finished at gets a COMMIT of
// its own, as before reports carried COMMITs.
func TestReportToAHomeOutsideTheGroup(t *testing.T) {
	const n, shards, size = 4, 4, 3
	p := assemble(t, desengine.Config{Seed: 11, Latency: simnet.Constant(time.Millisecond), Cluster: core.Config{N: n, Shards: shards, GroupSize: size}})
	sh, home := -1, runtime.None
	for s, q := range p.Cluster(1).Quorums() {
		for id := runtime.NodeID(1); id <= n && sh < 0; id++ {
			if !slices.Contains(q.Nodes(), id) {
				sh, home = s, id
			}
		}
	}
	if sh < 0 {
		t.Fatal("every shard is replicated everywhere")
	}
	var keys []string
	for i := 0; len(keys) < 3; i++ {
		if k := fmt.Sprintf("k%d", i); shard.Of(k, shards) == sh {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		commit(t, p, home, core.Set(k, "v"))
	}
	commits := len(keys)
	st := p.Network().Stats()
	if got := st.ByKind["outcome"]; got != commits {
		t.Errorf("%d plain reports, want one per commit (%d)", got, commits)
	}
	if got, want := st.ByKind["commit"], (size-1)*commits; got != want {
		t.Errorf("%d commit messages, want (group size − 1)·%d = %d", got, commits, want)
	}
	c := p.Cluster(home)
	if outs := c.Outcomes(); len(outs) != commits || c.Outstanding() != 0 {
		t.Fatalf("home %d recorded %d outcomes with %d outstanding", home, len(outs), c.Outstanding())
	}
	if log := converged(t, p, sh); len(log) != commits {
		t.Fatalf("shard %d's group holds %d updates, want %d", sh, len(log), commits)
	}
}

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
	p := assemble(t, desengine.Config{Seed: 5, Latency: slowBack(400 * time.Millisecond), Cluster: core.Config{N: 3}})
	if err := p.Cluster(1).Submit(1, core.Set("k", "v")); err != nil {
		t.Fatal(err)
	}
	sim := p.Sim()
	hops, failed := 0, 0
	for steps := 0; steps < 100000 && sim.Step() && sim.Now().Duration() < 5*time.Second; steps++ {
		copies := 0
		hops, failed = 0, 0
		for id := runtime.NodeID(1); id <= 3; id++ {
			pf := p.Cluster(id).Platform()
			copies += len(pf.Place(id).Residents())
			hops += pf.Stats().MigrationsStarted
			failed += pf.Stats().MigrationsFailed
		}
		if copies > 1 {
			t.Fatalf("%d live copies of the agent at %v", copies, sim.Now())
		}
	}
	if failed != 0 {
		t.Fatalf("the origin re-activated its copy after the slow acknowledgement — two copies: %d failed migrations", failed)
	}
	if hops == 0 {
		t.Fatal("the agent never migrated: the test has no teeth")
	}
	if outs := p.Cluster(1).Outcomes(); len(outs) != 1 || outs[0].Failed {
		t.Fatalf("outcomes = %+v, want one commit", outs)
	}
	if err := p.Referee().Err(); err != nil {
		t.Fatal(err)
	}
}

// TestOpenLoopAcksRideTheTraffic is the census of the standalone
// acknowledgements an open loop costs on a wire fabric: three processes,
// sixteen shards, 64 keys, Poisson writes at a 30 ms mean per home for ten
// seconds on a ~150 µs link. A commit's last frames (its COMMITs, the
// report that carries the home's) find reverse traffic only when a later
// commit crosses the same link, which at this rate is tens of milliseconds
// away: a 10 ms hold sent a rel-ack for about every commit, the wire
// policy's 40 ms about one for every four, and the measured timeout allows
// the hold, so nothing is retransmitted.
func TestOpenLoopAcksRideTheTraffic(t *testing.T) {
	const (
		n, shards, keys = 3, 16, 64
		mean            = 30 * time.Millisecond
		window          = 10 * time.Second
	)
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			p := assemble(t, desengine.Config{
				Seed: seed, Latency: simnet.Exponential(100*time.Microsecond, 50*time.Microsecond),
				Cluster: core.Config{N: n, Shards: shards},
			})
			sim := p.Sim()
			evs, err := workload.Generate(workload.Spec{
				Servers: n, RequestsPerServer: 2 * int(window/mean), Keys: keys, MeanInterarrival: mean, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			requests := 0
			for _, ev := range evs {
				if ev.At >= window {
					break
				}
				requests++
				home, r := runtime.NodeID(ev.Home), core.Set(ev.Key, ev.Value)
				sim.At(runtime.Time(ev.At), func() {
					if err := p.Cluster(home).Submit(home, r); err != nil {
						t.Error(err)
					}
				})
			}
			sim.RunUntil(runtime.Time(window))
			idle := func() bool {
				return p.Cluster(1).Outstanding()+p.Cluster(2).Outstanding()+p.Cluster(3).Outstanding() == 0
			}
			if err := sim.Wait(time.Minute, idle); err != nil {
				t.Fatal(err)
			}
			sim.RunFor(time.Second) // the last acknowledgements
			commits, retx := 0, 0
			for id := runtime.NodeID(1); id <= n; id++ {
				c := p.Cluster(id)
				for _, o := range c.Outcomes() {
					if o.Failed {
						t.Fatalf("agent %s failed", o.Agent)
					}
					commits += o.Requests
				}
				retx += c.ReliableStats().Retransmissions
			}
			if commits != requests {
				t.Fatalf("%d of %d requests committed", commits, requests)
			}
			if err := p.CheckConvergence(); err != nil {
				t.Fatal(err)
			}
			st := p.Network().Stats()
			acks := float64(st.ByKind["rel-ack"]) / float64(commits)
			t.Logf("%d commits: %.3f rel-ack and %.3f frames per commit, %d retransmissions",
				commits, acks, float64(st.MessagesSent)/float64(commits), retx)
			if acks > 0.35 {
				t.Errorf("%.3f standalone acknowledgements per commit, want at most 0.35", acks)
			}
			if retx != 0 {
				t.Errorf("%d retransmissions, want none: the timeout allows the hold", retx)
			}
		})
	}
}
