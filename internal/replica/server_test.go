package replica

import (
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/des"
	"repro/internal/simnet"
	"repro/internal/store"
)

// stubAgent is a no-op behavior used to occupy places and count local events.
type stubAgent struct {
	events int
}

func (a *stubAgent) OnArrive(*agent.Context)                       {}
func (a *stubAgent) OnMigrateFailed(*agent.Context, simnet.NodeID) {}
func (a *stubAgent) OnMessage(*agent.Context, simnet.NodeID, any)  {}
func (a *stubAgent) OnLocalEvent(ctx *agent.Context, ev any)       { a.events++ }

type fixture struct {
	sim      *des.Simulator
	net      *simnet.Network
	platform *agent.Platform
	servers  map[simnet.NodeID]*Server
}

func newFixture(t *testing.T, n int, cfg Config) *fixture {
	t.Helper()
	sim := des.New(31)
	net := simnet.New(sim, simnet.FullMesh(n), simnet.Constant(2*time.Millisecond))
	platform := agent.NewPlatform(sim, net, agent.Config{DeathNoticeDelay: 5 * time.Millisecond})
	peers := make([]simnet.NodeID, n)
	for i := range peers {
		peers[i] = simnet.NodeID(i + 1)
	}
	f := &fixture{sim: sim, net: net, platform: platform, servers: make(map[simnet.NodeID]*Server)}
	for _, id := range peers {
		f.servers[id] = New(sim, id, peers, net, platform, cfg)
	}
	return f
}

func aid(home int, seq uint64) agent.ID {
	return agent.ID{Home: simnet.NodeID(home), Born: int64(seq), Seq: seq}
}

func TestVisitAndLockEnqueues(t *testing.T) {
	f := newFixture(t, 3, Config{})
	s := f.servers[1]
	a, b := aid(1, 1), aid(2, 2)
	info := s.VisitAndLock(a, nil, nil, nil)
	if len(info.Locals[0].Queue) != 1 || info.Locals[0].Queue[0] != a {
		t.Fatalf("queue = %v", info.Locals[0].Queue)
	}
	info = s.VisitAndLock(b, nil, nil, nil)
	if len(info.Locals[0].Queue) != 2 || info.Locals[0].Queue[1] != b {
		t.Fatalf("queue = %v", info.Locals[0].Queue)
	}
	// Re-visiting must not duplicate the entry.
	info = s.VisitAndLock(a, nil, nil, nil)
	if len(info.Locals[0].Queue) != 2 {
		t.Fatalf("duplicate enqueue: %v", info.Locals[0].Queue)
	}
	if info.Costs[2] != 1 || info.Costs[3] != 1 {
		t.Fatalf("costs = %v", info.Costs)
	}
	if _, self := info.Costs[1]; self {
		t.Fatal("costs include self")
	}
}

func TestHeadVersionOnlyOnHeadChange(t *testing.T) {
	f := newFixture(t, 2, Config{})
	s := f.servers[1]
	i1 := s.VisitAndLock(aid(1, 1), nil, nil, nil)
	hv := i1.Locals[0].HeadVersion
	i2 := s.VisitAndLock(aid(2, 2), nil, nil, nil)
	if i2.Locals[0].HeadVersion != hv {
		t.Fatal("tail append changed head version")
	}
	if i2.Locals[0].Version == i1.Locals[0].Version {
		t.Fatal("tail append did not change version")
	}
}

func remoteOf(info LockInfo, server simnet.NodeID) (QueueSnapshot, bool) {
	for _, r := range info.Remote {
		if r.Server == server {
			return r, true
		}
	}
	return QueueSnapshot{}, false
}

func TestInfoSharing(t *testing.T) {
	f := newFixture(t, 3, Config{})
	s := f.servers[1]
	snapOld := QueueSnapshot{Server: 2, Version: 1, Queue: []agent.ID{aid(1, 1)}}
	snapNew := QueueSnapshot{Server: 2, Version: 5, Queue: []agent.ID{aid(2, 2)}}
	s.VisitAndLock(aid(3, 3), nil, []QueueSnapshot{snapNew}, nil)
	info := s.VisitAndLock(aid(4, 4), nil, []QueueSnapshot{snapOld}, nil)
	got, ok := remoteOf(info, 2)
	if !ok || got.Version != 5 {
		t.Fatalf("cache = %+v", info.Remote)
	}
	// Snapshots about the server itself are ignored.
	info = s.VisitAndLock(aid(5, 5), nil, []QueueSnapshot{{Server: 1, Version: 99}}, nil)
	if _, ok := remoteOf(info, 1); ok {
		t.Fatal("server cached a snapshot about itself")
	}
}

func TestInfoSharingDisabled(t *testing.T) {
	f := newFixture(t, 3, Config{DisableInfoSharing: true})
	s := f.servers[1]
	snap := QueueSnapshot{Server: 2, Version: 5, Queue: []agent.ID{aid(2, 2)}}
	info := s.VisitAndLock(aid(3, 3), nil, []QueueSnapshot{snap}, nil)
	if info.Remote != nil {
		t.Fatalf("remote info returned with sharing disabled: %+v", info.Remote)
	}
}

func TestKnownGoneEvictsAndBlocksEnqueue(t *testing.T) {
	f := newFixture(t, 2, Config{})
	s := f.servers[1]
	a, b := aid(1, 1), aid(2, 2)
	s.VisitAndLock(a, nil, nil, nil)
	s.VisitAndLock(b, nil, nil, nil)
	info := s.VisitAndLock(aid(3, 3), nil, nil, goneSet(a))
	if len(info.Locals[0].Queue) != 2 || info.Locals[0].Queue[0] != b {
		t.Fatalf("queue after eviction = %v", info.Locals[0].Queue)
	}
	// A gone agent can never re-enqueue.
	info = s.VisitAndLock(a, nil, nil, nil)
	for _, e := range info.Locals[0].Queue {
		if e == a {
			t.Fatal("gone agent re-enqueued")
		}
	}
}

// TestWatermarkEvictsReleasesAndStillRefuses: a watermark learnt from a
// visiting agent does what the explicit entries it replaced did — evicts the
// covered agents' Locking List entries (this server never saw their COMMIT),
// releases a grant one of them held, keeps refusing to enqueue them and
// NACKs their claims as "gone" — and is handed on to the next visitor.
func TestWatermarkEvictsReleasesAndStillRefuses(t *testing.T) {
	f := newFixture(t, 2, Config{})
	s := f.servers[1]
	a, b, c := aid(2, 1), aid(2, 2), aid(2, 3)
	s.VisitAndLock(a, nil, nil, nil)
	s.VisitAndLock(b, nil, nil, nil)
	s.VisitAndLock(c, nil, nil, nil)
	if ack := s.HandleUpdateLocal(claim(a, 1, "x")); !ack.OK {
		t.Fatalf("head claim refused: %+v", ack)
	}
	known := &agent.GoneSet{}
	known.Raise(agent.Watermark{Home: 2, Upto: agent.After(b), Count: 2}) // a and b are gone
	info := s.VisitAndLock(aid(1, 9), nil, nil, known)
	if q := info.Locals[0].Queue; len(q) != 2 || q[0] != c {
		t.Fatalf("queue after the watermark = %v, want c then the visitor", q)
	}
	if !s.Granted().IsZero() {
		t.Fatal("grant of a covered agent not released")
	}
	if len(info.Marks) != 1 || !info.Marks[0].Covers(a) || len(info.Gone) != 0 {
		t.Fatalf("handed on marks=%+v residue=%v", info.Marks, info.Gone)
	}
	for _, e := range s.VisitAndLock(a, nil, nil, nil).Locals[0].Queue {
		if e == a {
			t.Fatal("agent under the watermark re-enqueued")
		}
	}
	if ack := s.HandleUpdateLocal(claim(b, 1, "x")); ack.OK || ack.Reason != "gone" {
		t.Fatalf("claim of an agent under the watermark: %+v", ack)
	}
	// An explicit entry the watermark now covers is dropped, not kept twice.
	if s.IsGone(c) || len(s.Gone()) != 0 {
		t.Fatalf("c gone=%v residue=%v", s.IsGone(c), s.Gone())
	}
}

// TestWatermarkOverKnownAgentsWakesNobody: a watermark that covers only
// agents this server already held as gone replaces their residue entries and
// tells residents nothing, as re-delivering the explicit entries would not
// have; one that covers an agent the server had not heard of wakes them.
func TestWatermarkOverKnownAgentsWakesNobody(t *testing.T) {
	f := newFixture(t, 2, Config{})
	s := f.servers[1]
	a, b, c := aid(2, 1), aid(2, 2), aid(2, 3)
	s.VisitAndLock(aid(1, 8), nil, nil, goneSet(a, b)) // the head: later visitors change no head
	stub := &stubAgent{}
	f.platform.Spawn(1, stub)

	known := &agent.GoneSet{}
	known.Raise(agent.Watermark{Home: 2, Upto: agent.After(b), Count: 2})
	s.VisitAndLock(aid(1, 9), nil, nil, known)
	if stub.events != 0 {
		t.Fatalf("a watermark over two known agents raised %d notifications", stub.events)
	}
	if len(s.Gone()) != 0 || !s.IsGone(a) || !s.IsGone(b) {
		t.Fatalf("residue %v, a gone %v, b gone %v", s.Gone(), s.IsGone(a), s.IsGone(b))
	}
	known.Raise(agent.Watermark{Home: 2, Upto: agent.After(c), Count: 3})
	s.VisitAndLock(aid(1, 10), nil, nil, known)
	if stub.events == 0 || !s.IsGone(c) {
		t.Fatalf("a watermark over an unheard-of agent: %d notifications, gone %v", stub.events, s.IsGone(c))
	}
}

// goneSet is the gone set a visiting agent would carry, holding ids.
func goneSet(ids ...agent.ID) *agent.GoneSet {
	g := &agent.GoneSet{}
	g.Merge(nil, ids)
	return g
}

func claim(txn agent.ID, origin simnet.NodeID, keys ...string) *UpdateMsg {
	return &UpdateMsg{Txn: txn, Origin: origin, Keys: keys}
}

func TestHandleUpdateHeadAcks(t *testing.T) {
	f := newFixture(t, 2, Config{})
	s := f.servers[1]
	a := aid(1, 1)
	s.VisitAndLock(a, nil, nil, nil)
	ack := s.HandleUpdateLocal(claim(a, 1, "x"))
	if !ack.OK {
		t.Fatalf("head claim nacked: %+v", ack)
	}
	if s.Granted() != a {
		t.Fatal("grant not installed")
	}
}

func TestHandleUpdateValidation(t *testing.T) {
	f := newFixture(t, 2, Config{})
	s := f.servers[1]
	a, b := aid(1, 1), aid(2, 2)

	// Not enqueued.
	if ack := s.HandleUpdateLocal(claim(a, 1, "x")); ack.OK || ack.Reason != "not-enqueued" {
		t.Fatalf("ack = %+v", ack)
	}
	s.VisitAndLock(a, nil, nil, nil)
	s.VisitAndLock(b, nil, nil, nil)

	// Not head, no tie evidence.
	if ack := s.HandleUpdateLocal(claim(b, 2, "x")); ack.OK || ack.Reason != "not-head" {
		t.Fatalf("ack = %+v", ack)
	}
	if ack := s.HandleUpdateLocal(claim(b, 2, "x")); ack.Info == nil {
		t.Fatal("NACK carried no fresh lock info")
	}

	// Head claim grants; then the server is busy for everyone else.
	if ack := s.HandleUpdateLocal(claim(a, 1, "x")); !ack.OK {
		t.Fatalf("ack = %+v", ack)
	}
	if ack := s.HandleUpdateLocal(claim(b, 2, "x")); ack.OK || ack.Reason != "busy" {
		t.Fatalf("ack = %+v", ack)
	}
	// Re-claim by the grant holder stays OK (idempotent).
	if ack := s.HandleUpdateLocal(claim(a, 1, "x")); !ack.OK {
		t.Fatalf("re-claim = %+v", ack)
	}
}

func TestHandleUpdateTieEvidence(t *testing.T) {
	f := newFixture(t, 2, Config{})
	s := f.servers[1]
	a, b := aid(1, 1), aid(2, 2)
	infoA := s.VisitAndLock(a, nil, nil, nil)
	s.VisitAndLock(b, nil, nil, nil) // tail append: head version unchanged

	m := claim(b, 2, "x")
	m.ByTie = true
	m.Evidence = map[simnet.NodeID]uint64{1: infoA.Locals[0].HeadVersion}
	if ack := s.HandleUpdateLocal(m); !ack.OK {
		t.Fatalf("valid tie claim nacked: %+v", ack)
	}
	s.HandleAbortLocal(&AbortMsg{Txn: b})

	// Stale evidence after a head change.
	s.OnAgentDeath(a) // head evicted -> head version bumps
	m2 := claim(b, 2, "x")
	m2.ByTie = true
	m2.Evidence = map[simnet.NodeID]uint64{1: infoA.Locals[0].HeadVersion}
	ack := s.HandleUpdateLocal(m2)
	// b is now head, so it wins as head regardless of evidence.
	if !ack.OK {
		t.Fatalf("head claim after eviction nacked: %+v", ack)
	}
}

func TestTieClaimsArbitratedByGrantOrder(t *testing.T) {
	// Two tie claimants with divergent (possibly stale) views: the grant
	// goes to whichever claim arrives first; the second is refused until
	// the first commits or aborts. This is the safety net that makes
	// stale lock tables harmless (DESIGN.md, protocol fortification).
	f := newFixture(t, 2, Config{})
	s := f.servers[1]
	b, c := aid(2, 2), aid(3, 3)
	s.VisitAndLock(b, nil, nil, nil)
	s.VisitAndLock(c, nil, nil, nil)

	mc := claim(c, 2, "x")
	mc.ByTie = true
	if ack := s.HandleUpdateLocal(mc); !ack.OK {
		t.Fatalf("first tie claim refused: %+v", ack)
	}
	mb := claim(b, 2, "x")
	mb.ByTie = true
	if ack := s.HandleUpdateLocal(mb); ack.OK || ack.Reason != "busy" {
		t.Fatalf("second tie claim not refused: %+v", ack)
	}
	s.HandleAbortLocal(&AbortMsg{Txn: c})
	if ack := s.HandleUpdateLocal(mb); !ack.OK {
		t.Fatalf("tie claim after release refused: %+v", ack)
	}
}

func TestCommitAppliesReleasesAndRecords(t *testing.T) {
	f := newFixture(t, 2, Config{})
	s := f.servers[1]
	a, b := aid(1, 1), aid(2, 2)
	s.VisitAndLock(a, nil, nil, nil)
	s.VisitAndLock(b, nil, nil, nil)
	stub := &stubAgent{}
	f.platform.Spawn(1, stub)

	ack := s.HandleUpdateLocal(claim(a, 1, "x"))
	if !ack.OK {
		t.Fatal("claim failed")
	}
	s.HandleCommitLocal(&CommitMsg{
		Txn:     a,
		Origin:  1,
		Updates: []store.Update{{TxnID: a.String(), Key: "x", Data: "v1", Seq: 1, Stamp: 10}},
	})
	if v, ok := s.LocalRead("x"); !ok || v.Data != "v1" {
		t.Fatalf("read = %+v %v", v, ok)
	}
	q := s.Queue()
	if len(q) != 1 || q[0] != b {
		t.Fatalf("queue after commit = %v", q)
	}
	if !s.Granted().IsZero() {
		t.Fatal("grant not released")
	}
	gone := s.Gone()
	if len(gone) != 1 || gone[0] != a {
		t.Fatalf("gone = %v", gone)
	}
	if stub.events == 0 {
		t.Fatal("residents not notified of commit")
	}
}

func TestAbortReleasesGrantOnly(t *testing.T) {
	f := newFixture(t, 2, Config{})
	s := f.servers[1]
	a := aid(1, 1)
	s.VisitAndLock(a, nil, nil, nil)
	s.HandleUpdateLocal(claim(a, 1, "x"))
	s.HandleAbortLocal(&AbortMsg{Txn: a})
	if !s.Granted().IsZero() {
		t.Fatal("grant survived abort")
	}
	if len(s.Queue()) != 1 {
		t.Fatal("abort removed the queue entry")
	}
	// Aborting a non-holder is a no-op.
	s.HandleUpdateLocal(claim(a, 1, "x"))
	s.HandleAbortLocal(&AbortMsg{Txn: aid(9, 9)})
	if s.Granted() != a {
		t.Fatal("unrelated abort cleared grant")
	}
}

func TestCommitGapTriggersSyncAndBacklog(t *testing.T) {
	f := newFixture(t, 2, Config{})
	s1, s2 := f.servers[1], f.servers[2]
	// s1 has updates 1 and 2; s2 only learns about 2 -> gap -> sync from s1.
	u1 := store.Update{TxnID: "t1", Key: "x", Data: "a", Seq: 1, Stamp: 1}
	u2 := store.Update{TxnID: "t2", Key: "x", Data: "b", Seq: 2, Stamp: 2}
	if err := s1.Store().ApplyCommitted(u1); err != nil {
		t.Fatal(err)
	}
	if err := s1.Store().ApplyCommitted(u2); err != nil {
		t.Fatal(err)
	}
	s2.Deliver(simnet.Message{From: 1, To: 2, Payload: &CommitMsg{Txn: aid(9, 9), Origin: 1, Updates: []store.Update{u2}}})
	if s2.Store().LastSeq() != 0 {
		t.Fatal("gapped update applied immediately")
	}
	for f.sim.Step() {
	}
	if s2.Store().LastSeq() != 2 {
		t.Fatalf("after sync LastSeq = %d, want 2", s2.Store().LastSeq())
	}
	if v, _ := s2.LocalRead("x"); v.Data != "b" {
		t.Fatalf("read = %+v", v)
	}
}

func TestCrashClearsVolatileKeepsStore(t *testing.T) {
	f := newFixture(t, 3, Config{})
	s := f.servers[1]
	a := aid(1, 1)
	s.VisitAndLock(a, nil, nil, nil)
	s.HandleUpdateLocal(claim(a, 1, "x"))
	if err := s.Store().ApplyCommitted(store.Update{TxnID: "t", Key: "x", Data: "v", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	s.Crash()
	if !s.Down() || len(s.Queue()) != 0 || !s.Granted().IsZero() {
		t.Fatal("volatile state survived crash")
	}
	if v, ok := s.LocalRead("x"); !ok || v.Data != "v" {
		t.Fatal("stable store lost on crash")
	}
	// A down server ignores deliveries.
	s.Deliver(simnet.Message{From: 2, To: 1, Payload: &CommitMsg{Txn: aid(2, 2), Origin: 2,
		Updates: []store.Update{{TxnID: "t2", Key: "y", Data: "w", Seq: 2}}}})
	if s.Store().LastSeq() != 1 {
		t.Fatal("down server applied an update")
	}
}

func TestRecoverSyncsFromPeers(t *testing.T) {
	f := newFixture(t, 3, Config{})
	s1, s2 := f.servers[1], f.servers[2]
	for i := 1; i <= 4; i++ {
		u := store.Update{TxnID: "t", Key: "x", Data: "v", Seq: uint64(i), Stamp: int64(i)}
		u.TxnID = u.TxnID + string(rune('0'+i))
		if err := s2.Store().ApplyCommitted(u); err != nil {
			t.Fatal(err)
		}
		if err := f.servers[3].Store().ApplyCommitted(u); err != nil {
			t.Fatal(err)
		}
	}
	s1.Crash()
	f.net.SetDown(1, true)
	f.sim.RunFor(10 * time.Millisecond)
	f.net.SetDown(1, false)
	s1.Recover()
	for f.sim.Step() {
	}
	if s1.Store().LastSeq() != 4 {
		t.Fatalf("recovered LastSeq = %d, want 4", s1.Store().LastSeq())
	}
	if s1.snapshot(0).Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", s1.snapshot(0).Epoch)
	}
}

func TestOnAgentDeathReleasesEverything(t *testing.T) {
	f := newFixture(t, 2, Config{})
	s := f.servers[1]
	a, b := aid(1, 1), aid(2, 2)
	s.VisitAndLock(a, nil, nil, nil)
	s.VisitAndLock(b, nil, nil, nil)
	s.HandleUpdateLocal(claim(a, 1, "x"))
	stub := &stubAgent{}
	f.platform.Spawn(1, stub)
	s.OnAgentDeath(a)
	if len(s.Queue()) != 1 || s.Queue()[0] != b {
		t.Fatalf("queue = %v", s.Queue())
	}
	if !s.Granted().IsZero() {
		t.Fatal("dead agent's grant survived")
	}
	if stub.events == 0 {
		t.Fatal("death eviction did not notify residents")
	}
	// Idempotent.
	s.OnAgentDeath(a)
}

func TestQueueSnapshotNewer(t *testing.T) {
	a := QueueSnapshot{Epoch: 0, Version: 5}
	b := QueueSnapshot{Epoch: 0, Version: 6}
	c := QueueSnapshot{Epoch: 1, Version: 1}
	if !b.Newer(a) || a.Newer(b) {
		t.Fatal("version ordering")
	}
	if !c.Newer(b) {
		t.Fatal("epoch dominates version")
	}
}

func TestUpdateAckRoundTripOverNetwork(t *testing.T) {
	f := newFixture(t, 2, Config{})
	s2 := f.servers[2]
	a := aid(1, 1)
	s2.VisitAndLock(a, nil, nil, nil)

	// Spawn an agent at node 1 to receive the ack.
	var got *AckMsg
	recv := &msgAgent{onMsg: func(payload any) { got = payload.(*AckMsg) }}
	ctx := f.platform.Spawn(1, recv)
	// Claims carry the real agent ID; enqueue it at server 2 first.
	s2.VisitAndLock(ctx.ID(), nil, nil, goneSet(a))
	m := claim(ctx.ID(), 1, "x")
	f.net.Send(simnet.Message{From: 1, To: 2, Payload: m})
	for f.sim.Step() {
	}
	if got == nil || !got.OK {
		t.Fatalf("ack = %+v", got)
	}
}

type msgAgent struct {
	onMsg func(any)
}

func (m *msgAgent) OnArrive(*agent.Context)                       {}
func (m *msgAgent) OnMigrateFailed(*agent.Context, simnet.NodeID) {}
func (m *msgAgent) OnMessage(ctx *agent.Context, from simnet.NodeID, payload any) {
	if m.onMsg != nil {
		m.onMsg(payload)
	}
}
func (m *msgAgent) OnLocalEvent(*agent.Context, any) {}

func TestStaleAbortCannotReleaseNewerGrant(t *testing.T) {
	// A long-delayed abort for claim attempt 1 arrives after the same
	// transaction re-acquired the grant with attempt 2: the grant must
	// survive, or an ack-majority would no longer imply a grant-majority.
	f := newFixture(t, 2, Config{})
	s := f.servers[1]
	a := aid(1, 1)
	s.VisitAndLock(a, nil, nil, nil)
	m1 := claim(a, 1, "x")
	m1.Attempt = 1
	if ack := s.HandleUpdateLocal(m1); !ack.OK {
		t.Fatalf("attempt 1 claim: %+v", ack)
	}
	// Attempt 1 aborted and attempt 2 granted...
	s.HandleAbortLocal(&AbortMsg{Txn: a, Attempt: 1})
	m2 := claim(a, 1, "x")
	m2.Attempt = 2
	if ack := s.HandleUpdateLocal(m2); !ack.OK {
		t.Fatalf("attempt 2 claim: %+v", ack)
	}
	// ...then the stray attempt-1 abort finally lands.
	s.HandleAbortLocal(&AbortMsg{Txn: a, Attempt: 1})
	if s.Granted() != a {
		t.Fatal("stale abort released the newer grant")
	}
	// A current-attempt abort still releases.
	s.HandleAbortLocal(&AbortMsg{Txn: a, Attempt: 2})
	if !s.Granted().IsZero() {
		t.Fatal("current abort did not release")
	}
}
