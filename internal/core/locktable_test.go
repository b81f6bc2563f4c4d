package core

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/wire"
)

func snap(server int, version uint64, ids ...agent.ID) replica.QueueSnapshot {
	return replica.QueueSnapshot{
		Server:  simnet.NodeID(server),
		Version: version,
		Queue:   ids,
	}
}

func agentID(n int) agent.ID {
	return agent.ID{Home: simnet.NodeID(n), Born: int64(n), Seq: uint64(n)}
}

func TestLockTableHeadFiltering(t *testing.T) {
	lt := NewLockTable(3)
	a, b := agentID(1), agentID(2)
	lt.MergeSnapshot(snap(1, 1, a, b))
	if h, ok := lt.Head(1); !ok || h != a {
		t.Fatalf("head = %v %v", h, ok)
	}
	lt.MarkGone(a)
	if h, ok := lt.Head(1); !ok || h != b {
		t.Fatalf("head after gone = %v %v", h, ok)
	}
	lt.MarkGone(b)
	if _, ok := lt.Head(1); ok {
		t.Fatal("head of fully-gone queue")
	}
	if _, ok := lt.Head(2); ok {
		t.Fatal("head of unknown server")
	}
}

func TestLockTableMergeKeepsFreshest(t *testing.T) {
	lt := NewLockTable(3)
	a, b := agentID(1), agentID(2)
	lt.MergeSnapshot(snap(1, 5, a))
	lt.MergeSnapshot(snap(1, 3, b)) // older: ignored
	if h, _ := lt.Head(1); h != a {
		t.Fatalf("head = %v", h)
	}
	lt.MergeSnapshot(snap(1, 7, b))
	if h, _ := lt.Head(1); h != b {
		t.Fatalf("head = %v", h)
	}
	// Higher epoch beats higher version.
	withEpoch := snap(1, 1, a)
	withEpoch.Epoch = 2
	lt.MergeSnapshot(withEpoch)
	if h, _ := lt.Head(1); h != a {
		t.Fatalf("head = %v", h)
	}
}

func TestLockTableRevTracksMutations(t *testing.T) {
	lt := NewLockTable(3)
	r0 := lt.Rev()
	lt.MergeSnapshot(snap(1, 1, agentID(1)))
	if lt.Rev() == r0 {
		t.Fatal("rev unchanged after merge")
	}
	r1 := lt.Rev()
	lt.MergeSnapshot(snap(1, 1, agentID(1))) // not newer
	if lt.Rev() != r1 {
		t.Fatal("rev changed on rejected merge")
	}
	lt.MarkGone(agentID(9))
	if lt.Rev() == r1 {
		t.Fatal("rev unchanged after MarkGone")
	}
	r2 := lt.Rev()
	lt.MarkGone(agentID(9)) // already gone
	if lt.Rev() != r2 {
		t.Fatal("rev changed on duplicate MarkGone")
	}
}

func TestLockTableForgetTombstone(t *testing.T) {
	lt := NewLockTable(3)
	lt.MergeSnapshot(snap(1, 5, agentID(1)))
	lt.Forget(1)
	if _, ok := lt.Head(1); ok {
		t.Fatal("head survives Forget")
	}
	// Same or older info must not resurrect.
	lt.MergeSnapshot(snap(1, 5, agentID(1)))
	lt.MergeSnapshot(snap(1, 4, agentID(1)))
	if _, ok := lt.Snapshot(1); ok {
		t.Fatal("stale snapshot resurrected after Forget")
	}
	// Strictly newer info is accepted again.
	lt.MergeSnapshot(snap(1, 6, agentID(2)))
	if h, ok := lt.Head(1); !ok || h != agentID(2) {
		t.Fatalf("fresh snapshot rejected: %v %v", h, ok)
	}
	// Forgetting an unknown server is a no-op.
	rev := lt.Rev()
	lt.Forget(99)
	if lt.Rev() != rev {
		t.Fatal("Forget of unknown server mutated table")
	}
}

func TestLockTableDecideMajority(t *testing.T) {
	lt := NewLockTable(5)
	me, other := agentID(1), agentID(2)
	lt.MergeSnapshot(snap(1, 1, me))
	lt.MergeSnapshot(snap(2, 1, me))
	d := lt.Decide(me)
	if d.Found {
		t.Fatalf("decided with 2/5 tops: %+v", d)
	}
	if d.SelfTops != 2 {
		t.Fatalf("SelfTops = %d", d.SelfTops)
	}
	lt.MergeSnapshot(snap(3, 1, me, other))
	d = lt.Decide(me)
	if !d.Found || d.Winner != me || d.ByTie || d.TopCount != 3 {
		t.Fatalf("decision = %+v", d)
	}
}

func TestLockTableDecideOtherWins(t *testing.T) {
	lt := NewLockTable(3)
	me, other := agentID(2), agentID(1)
	lt.MergeSnapshot(snap(1, 1, other, me))
	lt.MergeSnapshot(snap(2, 1, other, me))
	d := lt.Decide(me)
	if !d.Found || d.Winner != other {
		t.Fatalf("decision = %+v", d)
	}
}

func TestLockTableDecideTieByID(t *testing.T) {
	lt := NewLockTable(5)
	a, b, c := agentID(1), agentID(2), agentID(3)
	// Heads: a, a, b, b, c — nobody can reach 3.
	lt.MergeSnapshot(snap(1, 1, a, b))
	lt.MergeSnapshot(snap(2, 1, a, c))
	lt.MergeSnapshot(snap(3, 1, b, a))
	lt.MergeSnapshot(snap(4, 1, b, c))
	lt.MergeSnapshot(snap(5, 1, c, a))
	d := lt.Decide(b)
	if !d.Found || !d.ByTie {
		t.Fatalf("decision = %+v", d)
	}
	if d.Winner != a {
		t.Fatalf("tie winner = %v, want lowest ID %v", d.Winner, a)
	}
	if d.TopCount != 2 {
		t.Fatalf("TopCount = %d", d.TopCount)
	}
}

func TestLockTableDecideEarlyTie(t *testing.T) {
	// Paper's S + (N - M*S) < N/2 condition with partial knowledge:
	// N=5, heads known for 4 servers split 2-2, one unknown server.
	// best(2) + unclaimed(1) = 3 = majority: still possible, no decision.
	lt := NewLockTable(5)
	a, b := agentID(1), agentID(2)
	lt.MergeSnapshot(snap(1, 1, a))
	lt.MergeSnapshot(snap(2, 1, a))
	lt.MergeSnapshot(snap(3, 1, b))
	lt.MergeSnapshot(snap(4, 1, b))
	if d := lt.Decide(a); d.Found {
		t.Fatalf("decided while a majority is still reachable: %+v", d)
	}
	// N=7 with heads 3-3 known on 6 servers and 1 unknown: best(3)+1 = 4
	// = majority of 7 -> still possible. But 2-2-2 with 1 unknown: 2+1=3
	// < 4 -> tie decided early.
	lt7 := NewLockTable(7)
	c := agentID(3)
	lt7.MergeSnapshot(snap(1, 1, a))
	lt7.MergeSnapshot(snap(2, 1, a))
	lt7.MergeSnapshot(snap(3, 1, b))
	lt7.MergeSnapshot(snap(4, 1, b))
	lt7.MergeSnapshot(snap(5, 1, c))
	lt7.MergeSnapshot(snap(6, 1, c))
	d := lt7.Decide(a)
	if !d.Found || !d.ByTie || d.Winner != a {
		t.Fatalf("early tie not decided: %+v", d)
	}
}

func TestLockTableDecideEmpty(t *testing.T) {
	lt := NewLockTable(5)
	if d := lt.Decide(agentID(1)); d.Found {
		t.Fatalf("decision on empty table: %+v", d)
	}
}

func TestLockTableRank(t *testing.T) {
	lt := NewLockTable(3)
	a, b, c := agentID(1), agentID(2), agentID(3)
	lt.MergeSnapshot(snap(1, 1, a, b, c))
	lt.MarkGone(a)
	if r := lt.Rank(1, b); r != 1 {
		t.Fatalf("rank b = %d", r)
	}
	if r := lt.Rank(1, c); r != 2 {
		t.Fatalf("rank c = %d", r)
	}
	if r := lt.Rank(1, agentID(9)); r != 0 {
		t.Fatalf("rank missing = %d", r)
	}
	if r := lt.Rank(2, b); r != 0 {
		t.Fatalf("rank unknown server = %d", r)
	}
}

func TestLockTableNeedRevisit(t *testing.T) {
	lt := NewLockTable(3)
	me := agentID(1)
	visit := replica.LockInfo{Locals: []replica.QueueSnapshot{snap(1, 3, agentID(2), me)}}
	lt.MergeInfo(visit, true)
	if got := lt.NeedRevisit(me); len(got) != 0 {
		t.Fatalf("revisit = %v", got)
	}
	// Fresher snapshot without our entry (server recovered after a crash).
	fresh := snap(1, 1, agentID(2))
	fresh.Epoch = 1
	lt.MergeSnapshot(fresh)
	got := lt.NeedRevisit(me)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("revisit = %v", got)
	}
	// A stale snapshot (older than the visit) must not trigger revisit:
	// merge refuses it anyway, so the state is unchanged.
	lt2 := NewLockTable(3)
	lt2.MergeInfo(visit, true)
	lt2.MergeSnapshot(snap(1, 2, agentID(2))) // version 2 < visit version 3
	if got := lt2.NeedRevisit(me); len(got) != 0 {
		t.Fatalf("revisit on stale info = %v", got)
	}
}

func TestLockTableExportAndEvidence(t *testing.T) {
	lt := NewLockTable(3)
	s := snap(1, 4, agentID(1))
	s.HeadVersion = 2
	lt.MergeSnapshot(s)
	exp := lt.Export()
	if len(exp) != 1 || exp[0].Server != 1 || exp[0].Version != 4 {
		t.Fatalf("export = %+v", exp)
	}
	ev := lt.Evidence()
	if ev[1] != 2 {
		t.Fatalf("evidence = %v", ev)
	}
}

func TestLockTableVisitedAndGoneList(t *testing.T) {
	lt := NewLockTable(3)
	lt.MergeInfo(replica.LockInfo{Locals: []replica.QueueSnapshot{snap(2, 1, agentID(1))}}, true)
	if !lt.Visited(2) || lt.Visited(1) {
		t.Fatal("Visited wrong")
	}
	lt.MarkGone(agentID(3), agentID(2))
	if gl := lt.Gone().IDs(); len(gl) != 2 || !gl[0].Less(gl[1]) {
		t.Fatalf("gone residue = %v", gl)
	}
	if !lt.IsGone(agentID(3)) || lt.IsGone(agentID(4)) {
		t.Fatal("IsGone wrong")
	}
}

// TestPublishedLockingStateNeverChanges: a server's Locking List and gone
// set are handed out without copies — to a LockInfo, on into a lock table,
// its Export, a frozen agent, and a lock table thawed from decoded bytes.
// Every way the server then changes them (an append, a removal, a residue
// insert, a watermark raised in place, one that filters the residue) and a
// second decode into the same state must leave every holder's view as it
// was; so must a ranking's tentative adds to a table's own gone set.
func TestPublishedLockingStateNeverChanges(t *testing.T) {
	c := newTestCluster(t, Config{N: 3})
	srv := c.Server(1)
	a, b, x, z := agentID(2), agentID(3), agentID(4), agentID(6)
	for _, id := range []agent.ID{a, b, x} {
		srv.VisitAndLock(id, nil, nil, nil)
		c.Server(2).VisitAndLock(id, nil, nil, nil)
	}
	y := agentID(5)
	for _, id := range []agent.ID{y, agentID(7), agentID(8)} {
		srv.OnAgentDeath(id) // a residue with room to insert in place
	}
	home9 := agent.Watermark{Home: 9, Upto: agent.After(agentID(9)), Count: 1}
	srv.AdvanceWatermark(home9)

	type holder struct {
		what, was string
		view      func() string
	}
	var holders []holder
	hold := func(what string, view func() string) { holders = append(holders, holder{what, view(), view}) }
	infoView := func(info replica.LockInfo) func() string {
		return func() string { return fmt.Sprint(info.Locals, info.Marks, info.Gone) }
	}
	ua := newUpdateAgent(c.Cluster, 1, []Request{Set("k", "v")})
	info := srv.RefreshInfo(nil)
	ua.lt.MergeInfo(info, true)
	exp := ua.lt.Export()
	frozen := ua.Freeze()
	var into WireState
	if err := DecodeWireStateInto(&into, wire.NewReader(AppendWireState(nil, &frozen))); err != nil {
		t.Fatal(err)
	}
	thawed := Thaw(c.Cluster, into)
	hold("LockInfo", infoView(info))
	hold("lock table", func() string { return fmt.Sprint(ua.lt.Export(), ua.lt.Gone().IDs()) })
	hold("Export", func() string { return fmt.Sprint(exp) })
	hold("frozen agent", func() string { return fmt.Sprint(frozen.Snapshots, frozen.Marks, frozen.Gone) })
	hold("thawed agent", func() string { return fmt.Sprint(thawed.lt.Export(), thawed.lt.Gone().IDs()) })
	if want := fmt.Sprint([]agent.ID{a, b, x}); !strings.Contains(holders[0].was, want) {
		t.Fatalf("LockInfo %s does not hold the queue %s", holders[0].was, want)
	}

	// Each change comes right after a fresh hand-out: the first write after
	// one is the one that must copy.
	for _, step := range []struct {
		what   string
		mutate func()
	}{
		{"append", func() { srv.VisitAndLock(z, nil, nil, nil) }},
		{"removal and residue insert", func() { srv.OnAgentDeath(a) }},
		{"watermark raised in place", func() {
			home9.Upto, home9.Count = agent.After(agentID(10)), 2
			srv.AdvanceWatermark(home9)
		}},
		{"watermark filtering the residue", func() {
			srv.AdvanceWatermark(agent.Watermark{Home: y.Home, Upto: agent.After(y)})
		}},
	} {
		hold("LockInfo before the "+step.what, infoView(srv.RefreshInfo(nil)))
		step.mutate()
	}
	again := ua.Freeze()
	again.Snapshots = []replica.QueueSnapshot{srv.RefreshInfo(nil).Locals[0]} // same length, other IDs
	if err := DecodeWireStateInto(&into, wire.NewReader(AppendWireState(nil, &again))); err != nil {
		t.Fatal(err)
	}
	if got := srv.QueueOf(0); fmt.Sprint(got) != fmt.Sprint([]agent.ID{b, x, z}) {
		t.Fatalf("server LL = %v", got)
	}
	for _, h := range holders {
		if now := h.view(); now != h.was {
			t.Errorf("%s changed: %s, was %s", h.what, now, h.was)
		}
	}

	lt := NewLockTable(3)
	lt.MergeInfo(c.Server(2).RefreshInfo(nil), false)
	lt.MergeInfo(info, false) // a heads two lists of three; the residue has room
	gone := fmt.Sprint(lt.Gone().IDs())
	if got := lt.Ranking(a, 3); len(got) < 2 {
		t.Fatalf("ranking = %v", got)
	}
	if after := fmt.Sprint(lt.Gone().IDs()); after != gone {
		t.Fatalf("ranking changed the gone residue: %s, was %s", after, gone)
	}
}

// TestVisitAllocatesAConstant: what a visit allocates — the server's
// VisitAndLock and the agent's MergeInfo, with the agent leaving its
// snapshots behind as OnArrive does, then the priority calculation — does
// not grow with the depth of the Locking Lists or the size of the gone
// residue, in objects or in bytes: the snapshots and the residue are handed
// over, not copied. Nor does it exceed maxVisitAllocs objects: the lists a
// visit walks are sorted slices, and Decide fills scratch the table owns.
func TestVisitAllocatesAConstant(t *testing.T) {
	const maxVisitAllocs = 4
	cost := func(depth, residue int) (allocs, bytes float64) {
		c := newTestCluster(t, Config{N: 3})
		self := agentID(1)
		for i := 0; i < depth; i++ {
			id := agent.ID{Home: 2, Born: int64(10 + i), Seq: uint64(10 + i)}
			c.Server(1).VisitAndLock(id, nil, nil, nil)
			c.Server(2).VisitAndLock(id, nil, nil, nil)
		}
		for i := 0; i < residue; i++ {
			c.Server(1).OnAgentDeath(agent.ID{Home: 3, Born: int64(1000 + i), Seq: uint64(1000 + i)})
		}
		lt := NewLockTable(3)
		lt.MergeInfo(c.Server(2).VisitAndLock(self, nil, nil, lt.Gone()), true)
		visit := func() {
			lt.MergeInfo(c.Server(1).VisitAndLock(self, nil, lt.lend(), lt.Gone()), true)
			lt.Decide(self)
		}
		visit() // the first visit enqueues; the ones measured find the agent queued
		allocs = testing.AllocsPerRun(100, visit)
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		for i := 0; i < 100; i++ {
			visit()
		}
		goruntime.ReadMemStats(&m1)
		return allocs, float64(m1.TotalAlloc-m0.TotalAlloc) / 100
	}
	baseAllocs, baseBytes := cost(8, 8)
	if baseAllocs > maxVisitAllocs {
		t.Errorf("LL depth 8, residue 8: a visit allocates %.1f objects, want at most %d", baseAllocs, maxVisitAllocs)
	}
	for _, tc := range []struct{ depth, residue int }{{64, 8}, {8, 64}} {
		allocs, bytes := cost(tc.depth, tc.residue)
		if allocs != baseAllocs || bytes > baseBytes+64 {
			t.Errorf("LL depth %d, residue %d: a visit allocates %.1f objects, %.0f bytes; at depth 8, residue 8: %.1f, %.0f",
				tc.depth, tc.residue, allocs, bytes, baseAllocs, baseBytes)
		}
	}
	t.Logf("a visit allocates %.1f objects, %.0f bytes", baseAllocs, baseBytes)
}
