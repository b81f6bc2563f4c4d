package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/des"
	"repro/internal/replica"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/wire"
)

// processes is a multi-process deployment on the simulator: one cluster
// per replica, each hosting only its own (Config.Local) as a marpd process
// does, on one simulated wire fabric. Node id's cluster is at index id-1.
type processes struct {
	net *simnet.Network
	cl  []*Cluster
	ref *Referee // every process's grants, one Theorem 2 oracle
}

func newProcesses(t *testing.T, cfg Config) *processes {
	t.Helper()
	return newProcessesOn(t, des.New(11), simnet.Constant(time.Millisecond), cfg)
}

// newProcessesOn is newProcesses on a given simulator and link latency.
func newProcessesOn(t *testing.T, sim *des.Simulator, latency simnet.LatencyModel, cfg Config) *processes {
	t.Helper()
	p := &processes{net: simnet.New(sim, simnet.FullMesh(cfg.N), latency)}
	for id := 1; id <= cfg.N; id++ {
		pc := cfg
		pc.Local = []runtime.NodeID{runtime.NodeID(id)}
		pc.OnGrant = func(server runtime.NodeID, shrd int, txn agent.ID) { p.ref.OnGrant(server, shrd, txn) }
		c, err := NewCluster(sim, wireSimnet{p.net}, pc)
		if err != nil {
			t.Fatal(err)
		}
		if p.ref == nil {
			p.ref = NewShardedReferee(c.assigns, sim.Now)
		}
		p.cl = append(p.cl, c)
	}
	return p
}

// commit submits one update at home and runs until home's cluster has
// recorded its outcome, then lets the last COMMITs land.
func (p *processes) commit(t *testing.T, home runtime.NodeID, r Request) {
	t.Helper()
	c := p.cl[home-1]
	if err := c.Submit(home, r); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Settle(100 * time.Millisecond)
}

// converged checks every shard's group members across the processes hold
// one update log, and returns shard sh's.
func (p *processes) converged(t *testing.T, sh int) []store.Update {
	t.Helper()
	for _, c := range p.cl {
		if err := c.CheckConvergence(); err != nil {
			t.Fatal(err)
		}
	}
	var ref []store.Update
	for i, id := range p.cl[0].groups[sh] {
		log := p.cl[id-1].Server(id).StoreOf(sh).Log()
		if i == 0 {
			ref = log
		} else if !slices.Equal(log, ref) {
			t.Fatalf("shard %d: server %d's log %v differs from server %d's %v", sh, id, log, p.cl[0].groups[sh][0], ref)
		}
	}
	if err := p.ref.Err(); err != nil {
		t.Fatal(err)
	}
	return ref
}

// twiceReports sends every outcome report twice, each as a frame of its
// own, so the home receives it twice whatever the reliable layer
// suppresses.
type twiceReports struct {
	runtime.Fabric
	sent int
}

func (f *twiceReports) Send(m runtime.Message) {
	f.Fabric.Send(m)
	if _, ok := m.Payload.(*OutcomeMsg); ok {
		f.Fabric.Send(m)
		f.sent++
	}
}

// TestReportCarriesTheHomeCommit: an agent that commits away from its home
// sends the home one message, the outcome report with the home's COMMIT in
// it, so a commit on three replicas costs two COMMITs and no report of its
// own. Every report here is delivered twice: the second copy applies
// nothing and records nothing, and every home ends up holding every update
// once, in the order the others hold them.
func TestReportCarriesTheHomeCommit(t *testing.T) {
	p := newProcesses(t, Config{N: 3})
	var dup []*twiceReports
	for _, c := range p.cl {
		f := &twiceReports{Fabric: c.fabric}
		c.fabric = f
		dup = append(dup, f)
	}
	const rounds = 3
	for i := 0; i < rounds; i++ {
		for home := runtime.NodeID(1); home <= 3; home++ {
			p.commit(t, home, Append("k", fmt.Sprintf("%d.%d,", home, i)))
		}
	}
	commits, reports := 3*rounds, 0
	for i, c := range p.cl {
		outs := c.Outcomes()
		if len(outs) != rounds || c.Outstanding() != 0 {
			t.Fatalf("node %d recorded %d outcomes with %d outstanding, want %d and 0", i+1, len(outs), c.Outstanding(), rounds)
		}
		for _, o := range outs {
			if o.Failed || o.Home != runtime.NodeID(i+1) {
				t.Fatalf("node %d recorded %+v", i+1, o)
			}
		}
		reports += dup[i].sent
	}
	if reports != commits {
		t.Fatalf("%d reports for %d commits: some agent finished at home, and this test has no teeth", reports, commits)
	}
	st := p.net.Stats()
	if st.ByKind["outcome"] != 0 {
		t.Errorf("%d plain outcome reports, want every report to carry its home's COMMIT", st.ByKind["outcome"])
	}
	// Every report went twice, and each copy is the home's COMMIT.
	if got, want := st.ByKind["commit"], 2*commits+reports; got != want {
		t.Errorf("%d commit messages, want (N−1)·%d commits + %d duplicate reports = %d", got, commits, reports, want)
	}
	log := p.converged(t, 0)
	if len(log) != commits {
		t.Fatalf("the replicas hold %d updates, want %d", len(log), commits)
	}
	for i, u := range log {
		if u.Seq != uint64(i+1) {
			t.Fatalf("log[%d] has seq %d", i, u.Seq)
		}
	}
	for i, c := range p.cl {
		home := runtime.NodeID(i + 1)
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
	p := newProcesses(t, Config{N: n, Shards: shards, GroupSize: size})
	sh, home := -1, runtime.None
	for s, g := range p.cl[0].groups {
		for id := runtime.NodeID(1); id <= n && sh < 0; id++ {
			if !slices.Contains(g, id) {
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
		p.commit(t, home, Set(k, "v"))
	}
	commits := len(keys)
	st := p.net.Stats()
	if got := st.ByKind["outcome"]; got != commits {
		t.Errorf("%d plain reports, want one per commit (%d)", got, commits)
	}
	if got, want := st.ByKind["commit"], (size-1)*commits; got != want {
		t.Errorf("%d commit messages, want (group size − 1)·%d = %d", got, commits, want)
	}
	c := p.cl[home-1]
	if outs := c.Outcomes(); len(outs) != commits || c.Outstanding() != 0 {
		t.Fatalf("home %d recorded %d outcomes with %d outstanding", home, len(outs), c.Outstanding())
	}
	if log := p.converged(t, sh); len(log) != commits {
		t.Fatalf("shard %d's group holds %d updates, want %d", sh, len(log), commits)
	}
}

// TestReportRoundTrip: the wire carries a report's COMMIT as its updates
// alone, and the decoder restores the rest from the outcome — the home from
// the agent's ID, the COMMIT's transaction from the agent. A plain report
// decodes without one.
func TestReportRoundTrip(t *testing.T) {
	id := agentID(3)
	commit := &replica.CommitMsg{Txn: id, Origin: 2, Updates: []store.Update{{TxnID: id.String(), Key: "k", Data: "v", Seq: 1, Stamp: 5}}}
	for _, sent := range []*OutcomeMsg{
		{Outcome: Outcome{Agent: id, Home: id.Home, Requests: 1, DoneAt: 5, Shards: []int{0}}, Commit: commit},
		{Outcome: Outcome{Agent: id, Home: id.Home, Requests: 1, DoneAt: 5, Shards: []int{0}}},
	} {
		buf, err := wire.AppendMessage(nil, sent)
		if err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(buf)
		v, err := wire.DecodeMessage(r)
		if err == nil {
			err = r.Finish()
		}
		if err != nil {
			t.Fatal(err)
		}
		got := v.(*OutcomeMsg)
		if got.Outcome.Home != id.Home || got.Outcome.Agent != id || got.Outcome.DoneAt != 5 {
			t.Fatalf("outcome %+v", got.Outcome)
		}
		if (got.Commit == nil) != (sent.Commit == nil) {
			t.Fatalf("sent COMMIT %v, got %v", sent.Commit, got.Commit)
		}
		if got.Commit != nil && (got.Commit.Txn != id || !slices.Equal(got.Commit.Updates, commit.Updates)) {
			t.Fatalf("carried COMMIT %+v", got.Commit)
		}
		if got.Kind() != sent.Kind() {
			t.Fatalf("kind %s, sent %s", got.Kind(), sent.Kind())
		}
	}
}
