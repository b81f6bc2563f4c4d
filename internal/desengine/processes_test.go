package desengine

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/reliable"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/wal"
)

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func assemble(t *testing.T, cfg Config) *Processes {
	t.Helper()
	p, err := NewProcesses(cfg)
	must(t, err)
	return p
}

// round submits perNode writes at each home, keys tagged tag, and runs
// until every home has recorded its own, giving each the live tests' 30 s.
func round(t *testing.T, p *Processes, tag string, perNode int, homes ...runtime.NodeID) {
	t.Helper()
	for _, home := range homes {
		for k := 1; k <= perNode; k++ {
			must(t, p.Cluster(home).Submit(home, core.Set(fmt.Sprintf("%s-k%d-%d", tag, home, k), "v")))
		}
	}
	for _, home := range homes {
		if err := p.Cluster(home).RunUntilDone(30 * time.Second); err != nil {
			t.Fatalf("node %d: %v", home, err)
		}
	}
}

// localLog is node id's replica's commit log, every shard's in turn.
func localLog(p *Processes, id runtime.NodeID) []store.Update {
	srv := p.Cluster(id).Server(id)
	var log []store.Update
	for sh := 0; sh < srv.Shards(); sh++ {
		log = append(log, srv.StoreOf(sh).Log()...)
	}
	return log
}

// waitConverged runs until every replica holds the same want commits, and
// checks the referee.
func waitConverged(t *testing.T, p *Processes, want int, d time.Duration) {
	t.Helper()
	same := func() bool {
		for id := range p.procs {
			if !slices.Equal(localLog(p, runtime.NodeID(id+1)), localLog(p, 1)) {
				return false
			}
		}
		return len(localLog(p, 1)) == want
	}
	if err := p.Sim().Wait(d, same); err != nil {
		for id := range p.procs {
			t.Logf("replica %d: %d commits", id+1, len(localLog(p, runtime.NodeID(id+1))))
		}
		t.Fatalf("replicas did not converge on %d commits within %v: %v", want, d, err)
	}
	must(t, p.CheckConvergence())
}

// TestPartitionAndHeal: a minority replica is cut off, the majority keeps
// committing under the reliable layer's retransmissions, and healing lets
// anti-entropy repair the minority to the identical log. The policy (25 ms
// Base, 8 transmissions) is the live test's; the round-2 agents' lock
// latency is ROADMAP item 26's convoy.
func TestPartitionAndHeal(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			const n = 3
			p := assemble(t, Config{Seed: seed, Cluster: core.Config{
				N:                  n,
				RetransmitBase:     25 * time.Millisecond,
				RetransmitAttempts: 8,
				ClaimTimeout:       600 * time.Millisecond,
				RetryInterval:      300 * time.Millisecond,
				RegenerateAgents:   true,
			}})
			round(t, p, "r1", 1, 1, 2, 3)
			waitConverged(t, p, n, 10*time.Second)

			// Split {1,2} | {3}: the majority side still commits, the
			// minority sees neither commit, and the cut shows as drops.
			p.Network().Partition([]runtime.NodeID{1, 2}, []runtime.NodeID{3})
			dropped := p.Network().Stats().MessagesDropped
			round(t, p, "r2", 1, 1, 2)
			for home := runtime.NodeID(1); home <= 2; home++ {
				outs := p.Cluster(home).Outcomes()
				t.Logf("round 2 at home %d: locked %v after dispatch", home, outs[len(outs)-1].LockLatency())
			}
			if got := len(localLog(p, 3)); got != n {
				t.Fatalf("partitioned replica holds %d commits, want %d (pre-split only)", got, n)
			}
			if p.Network().Stats().MessagesDropped == dropped {
				t.Fatal("no frames dropped — the partition never filtered anything")
			}

			p.Heal()
			waitConverged(t, p, n+2, 20*time.Second)
		})
	}
}

// memDisks gives every node a disk.Mem, which Kill power-cuts.
func memDisks() *core.DurabilityConfig {
	return &core.DurabilityConfig{Backend: func(runtime.NodeID) disk.Backend { return disk.NewMem() }, Policy: wal.PolicyCommit}
}

// TestRestartRecoversFromDisk: of three durable replicas one is killed,
// misses a round of commits, and comes back over the same disk. It replays
// its own commits before any peer has said a word, pulls the missed round
// via anti-entropy, and keeps winning locks (its new agent IDs must not
// collide with its own persisted gone set).
func TestRestartRecoversFromDisk(t *testing.T) {
	const n, perNode = 3, 2
	p := assemble(t, Config{Seed: 1, Cluster: core.Config{N: n, Durability: memDisks()}})
	round(t, p, "r1", perNode, 1, 2, 3)
	waitConverged(t, p, n*perNode, 10*time.Second)

	p.Kill(3)
	round(t, p, "r2", 1, 1, 2)
	must(t, p.Restart(3))
	if got := len(localLog(p, 3)); got < n*perNode {
		t.Fatalf("right after restart the log has %d commits, want >= %d from the WAL", got, n*perNode)
	}
	round(t, p, "r2", 1, 3)
	waitConverged(t, p, n*perNode+3, 15*time.Second)
}

// TestRestartWithoutDataDir restarts a volatile replica: nothing on disk
// tells the new process what its predecessor minted, and its engine clock
// starts at zero again, while the peers hold a gone-set watermark for its
// home that reaches up to the old process's last agents. Agents born on
// that clock would lie under the watermark and be refused as "gone"; a
// process starts above the absolute clock (the wall clock, live), which a
// restart does not rewind.
func TestRestartWithoutDataDir(t *testing.T) {
	const n, perNode = 3, 3
	p := assemble(t, Config{Seed: 1, Cluster: core.Config{N: n}})
	round(t, p, "r1", perNode, 1, 2, 3)
	round(t, p, "r2", perNode, 1, 2, 3) // node 3's second round carries its first round's watermark around
	waitConverged(t, p, 2*n*perNode, 10*time.Second)
	var held agent.Mark
	for _, w := range p.Cluster(1).Server(1).Watermarks() {
		if w.Home == 3 {
			held = w.Upto
		}
	}
	if held == (agent.Mark{}) {
		t.Fatal("node 1 holds no watermark for home 3; the test has no teeth")
	}

	p.Kill(3)
	round(t, p, "down", 2, 1, 2)
	must(t, p.Restart(3))
	// The new agent queues at its own replica first.
	must(t, p.Cluster(3).Submit(3, core.Set("r3-k3", "v")))
	var born []agent.ID
	if err := p.Sim().Wait(time.Second, func() bool { born = p.Cluster(3).Server(3).Queue(); return len(born) > 0 }); err != nil || len(born) != 1 {
		t.Fatalf("node 3's queue holds %v, want the one new agent", born)
	}
	if !held.Before(agent.After(born[0])) {
		t.Errorf("new agent %+v was born under the watermark %+v its home's old run left behind", born[0], held)
	}
	if err := p.Cluster(3).RunUntilDone(30 * time.Second); err != nil {
		t.Errorf("the restarted node's agent did not finish: %v", err)
	}
	if outs := p.Cluster(3).Outcomes(); len(outs) != 1 || outs[0].Failed || outs[0].Agent != born[0] {
		t.Fatalf("outcomes after restart = %+v, want one commit by %+v", outs, born[0])
	}
	// The empty replica catches up through the sync its first commit's
	// sequence gap starts.
	waitConverged(t, p, 2*n*perNode+4+1, 15*time.Second)
}

// TestKillRunsNothing: a process killed with timers armed — an agent
// parked at home to retry, another's migration frame to be retransmitted —
// runs none of them once a new process is up under its ID: the old one
// regenerates no agent, starts no migration and sends no frame.
func TestKillRunsNothing(t *testing.T) {
	tr := trace.New(0)
	p := assemble(t, Config{Seed: 1, Cluster: core.Config{N: 3, RegenerateAgents: true, Trace: tr}})
	p.Network().Partition([]runtime.NodeID{1, 2}, []runtime.NodeID{3})
	must(t, p.Cluster(3).Submit(3, core.Set("a", "v")))
	p.Sim().RunFor(time.Second)
	must(t, p.Cluster(3).Submit(3, core.Set("b", "v")))
	armed := func() bool { // by what node 3's agents did last
		last := map[string]trace.Type{}
		for _, e := range tr.Events() {
			if e.Node == 3 && strings.HasPrefix(e.Actor, "A3.") {
				last[e.Actor] = e.Type
			}
		}
		did := map[trace.Type]bool{}
		for _, typ := range last {
			did[typ] = true
		}
		return did[trace.AgentParked] && did[trace.AgentMigrate]
	}
	if err := p.Sim().Wait(time.Minute, armed); err != nil {
		t.Fatalf("node 3 never had a parked agent and a migration in flight at once: %v", err)
	}
	old := p.Cluster(3)
	if len(old.Platform().Place(3).Residents()) == 0 || old.ReliableStats().Retransmissions == 0 {
		t.Fatal("nothing armed at node 3: the test has no teeth")
	}

	p.Kill(3)
	type state struct {
		platform    agent.Stats
		regenerated int
		reliable    reliable.Stats
		outcomes    []core.Outcome
	}
	snap := func() state {
		return state{old.Platform().Stats(), old.Regenerated(), old.ReliableStats(), old.Outcomes()}
	}
	killed, sent := snap(), p.Network().Stats().MessagesSent
	p.Sim().RunFor(10 * time.Millisecond)
	must(t, p.Restart(3))
	p.Sim().RunFor(5 * time.Second)
	if now := snap(); !reflect.DeepEqual(now, killed) {
		t.Errorf("the killed incarnation ran on: %+v, was %+v at the kill", now, killed)
	}
	// The peers are idle and the new process is empty: nothing else sends.
	if got := p.Network().Stats().MessagesSent - sent; got != 0 {
		t.Errorf("%d frames left node 3 after the kill", got)
	}

	p.Heal() // the new process is a working replica
	round(t, p, "c", 1, 3)
	waitConverged(t, p, 1, 5*time.Second)
}

// TestProcessesAreDeterministic: one script — commits, a {1,2}|{3}
// partition, heal, a kill and restart of durable node 3 — run twice at one
// seed gives every process the same outcomes, every replica the same logs
// and the network the same counters.
func TestProcessesAreDeterministic(t *testing.T) {
	run := func() (outcomes [][]core.Outcome, logs [][]store.Update, net runtime.NetStats) {
		p := assemble(t, Config{Seed: 7, Cluster: core.Config{N: 3, Shards: 4, Durability: memDisks(), RegenerateAgents: true}})
		round(t, p, "r1", 4, 1, 2, 3)
		p.Network().Partition([]runtime.NodeID{1, 2}, []runtime.NodeID{3})
		round(t, p, "r2", 4, 1, 2)
		p.Heal()
		p.Kill(3)
		round(t, p, "r3", 4, 1, 2)
		must(t, p.Restart(3))
		round(t, p, "r4", 4, 1, 2, 3)
		waitConverged(t, p, 40, 20*time.Second)
		for id := runtime.NodeID(1); id <= 3; id++ {
			outcomes = append(outcomes, p.Cluster(id).Outcomes())
			logs = append(logs, localLog(p, id))
		}
		return outcomes, logs, p.Network().Stats()
	}
	o1, l1, n1 := run()
	o2, l2, n2 := run()
	if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(l1, l2) || !reflect.DeepEqual(n1, n2) {
		t.Fatalf("two runs at one seed differ:\n%+v %+v %+v\n%+v %+v %+v", o1, l1, n1, o2, l2, n2)
	}
}

// TestFirstWriteLeavesAtOnce: a home saves up its dispatch tokens from its
// first submission on, not from its process's start, so a write submitted
// the instant the processes start locks no later after dispatch than the
// same write submitted 10 ms in.
func TestFirstWriteLeavesAtOnce(t *testing.T) {
	lock := func(at time.Duration) time.Duration {
		p := assemble(t, Config{Seed: 1, Cluster: core.Config{N: 3}})
		p.Sim().RunFor(at)
		round(t, p, "w", 1, 1)
		outs := p.Cluster(1).Outcomes()
		return outs[len(outs)-1].LockLatency().Duration()
	}
	early, late := lock(0), lock(10*time.Millisecond)
	t.Logf("a write at t=0 locks %v after dispatch, at t=10ms %v", early, late)
	if early > late {
		t.Fatalf("a write at t=0 locks %v after dispatch, later than the same write at t=10ms (%v)", early, late)
	}
}

// TestRestartRefusesOldReports: a home killed a few milliseconds after its
// agents finished still has their reports in flight — a receiver holds its
// acknowledgement up to the wire policy's 40 ms, so the senders retransmit
// them to whatever process answers at the address next. The restarted home
// dispatched none of those agents: it applies what the reports carry for
// its replica but books no outcome for them, and its outstanding count never
// goes below zero.
func TestRestartRefusesOldReports(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			p := assemble(t, Config{Seed: seed, Cluster: core.Config{N: 3}})
			round(t, p, "r1", 1, 1, 2, 3)
			must(t, p.Cluster(3).Submit(3, core.Set("late", "v")))
			p.Sim().RunFor(3 * time.Millisecond)
			p.Kill(3)
			p.Sim().RunFor(5 * time.Millisecond)
			must(t, p.Restart(3))
			fresh := p.Cluster(3)
			p.Sim().RunFor(5 * time.Second)
			if n := fresh.Outstanding(); n != 0 {
				t.Errorf("the restarted home counts %d agents outstanding, want 0", n)
			}
			if outs := fresh.Outcomes(); len(outs) != 0 {
				t.Errorf("the restarted home booked %d outcomes of agents it never dispatched: %+v", len(outs), outs)
			}
			must(t, fresh.Submit(3, core.Set("after", "v")))
			if err := fresh.RunUntilDone(30 * time.Second); err != nil {
				t.Fatal(err)
			}
			if outs := fresh.Outcomes(); len(outs) != 1 || outs[0].Failed || outs[0].Agent.Seq != 1 {
				t.Fatalf("outcomes after one write = %+v, want its one commit", outs)
			}
		})
	}
}
