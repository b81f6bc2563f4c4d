package replica

import (
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/durable"
	"repro/internal/runtime"
	"repro/internal/simnet"
	"repro/internal/store"
)

// durableServer is a single durable replica on its own Mem disk, with the
// crash/restart choreography the cluster layer normally performs.
type durableServer struct {
	sim *des.Simulator
	net *simnet.Network
	mem *disk.Mem
	j   *durable.Journal
	s   *Server
}

func newDurableServer(t *testing.T) *durableServer {
	t.Helper()
	sim := des.New(7)
	net := simnet.New(sim, simnet.FullMesh(1), simnet.Constant(time.Millisecond))
	platform := agent.NewPlatform(sim, net, agent.Config{})
	mem := disk.NewMem()
	j, st, err := durable.Open(mem, durable.Options{})
	if err != nil || st != nil {
		t.Fatalf("fresh Open = %v, %v", err, st)
	}
	s := New(sim, 1, []runtime.NodeID{1}, net, platform, Config{Journal: j})
	return &durableServer{sim: sim, net: net, mem: mem, j: j, s: s}
}

// crashRestart power-cuts the node and brings it back from its disk.
func (d *durableServer) crashRestart(t *testing.T) *durable.State {
	t.Helper()
	d.s.Crash()
	d.j.Kill()
	d.mem.Crash()
	j, st, err := durable.Open(d.mem, durable.Options{})
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	d.j = j
	d.s.Restart(j, st)
	return st
}

func upd(seq int, key, data string) store.Update {
	return store.Update{TxnID: "txn-" + key + data, Key: key, Data: data, Seq: uint64(seq), Stamp: int64(seq)}
}

func TestRestartDoesNotReapplyCommittedUpdate(t *testing.T) {
	d := newDurableServer(t)
	a := aid(1, 1)
	d.s.VisitAndLock(a, nil, nil, nil)
	ack := d.s.HandleUpdateLocal(&UpdateMsg{Txn: a, Attempt: 1, Origin: 1, Keys: []string{"k"}})
	if !ack.OK {
		t.Fatalf("claim nacked: %s", ack.Reason)
	}
	commit := &CommitMsg{Txn: a, Origin: 1, Updates: []store.Update{upd(1, "k", "v1")}}
	d.s.HandleCommitLocal(commit)
	if d.s.Store().LastSeq() != 1 {
		t.Fatalf("LastSeq = %d", d.s.Store().LastSeq())
	}
	epochBefore := d.s.snapshot(0).Epoch

	d.crashRestart(t)

	// Invariant 11: the committed update came back off this node's own disk.
	if got := d.s.Store().LastSeq(); got != 1 {
		t.Fatalf("after restart LastSeq = %d, want 1", got)
	}
	if v, ok := d.s.LocalRead("k"); !ok || v.Data != "v1" {
		t.Fatalf("after restart read k = %+v %v", v, ok)
	}
	if got := d.s.snapshot(0).Epoch; got <= epochBefore {
		t.Fatalf("epoch %d not bumped past %d", got, epochBefore)
	}
	// A retransmitted COMMIT straddling the crash is idempotent.
	d.s.HandleCommitLocal(commit)
	if got := len(d.s.Store().Log()); got != 1 {
		t.Fatalf("duplicate commit grew the log to %d", got)
	}
}

func TestRestartDoesNotRegrantReleasedLock(t *testing.T) {
	d := newDurableServer(t)
	a := aid(1, 1)
	d.s.VisitAndLock(a, nil, nil, nil)
	if ack := d.s.HandleUpdateLocal(&UpdateMsg{Txn: a, Attempt: 1, Origin: 1, Keys: []string{"k"}}); !ack.OK {
		t.Fatalf("claim nacked: %s", ack.Reason)
	}
	// COMMIT releases the grant and marks the agent gone.
	d.s.HandleCommitLocal(&CommitMsg{Txn: a, Origin: 1, Updates: []store.Update{upd(1, "k", "v")}})
	if !d.s.Granted().IsZero() {
		t.Fatal("grant not released by commit")
	}

	d.crashRestart(t)

	if got := d.s.Granted(); !got.IsZero() {
		t.Fatalf("restart re-granted released lock to %v", got)
	}
	// The finished agent stays gone: its re-claim is refused.
	if ack := d.s.HandleUpdateLocal(&UpdateMsg{Txn: a, Attempt: 2, Origin: 1, Keys: []string{"k"}}); ack.OK {
		t.Fatal("gone agent re-acquired the lock after restart")
	}
}

func TestRestartRestoresUnreleasedGrant(t *testing.T) {
	d := newDurableServer(t)
	a, b := aid(1, 1), aid(2, 2)
	d.s.VisitAndLock(a, nil, nil, nil)
	if ack := d.s.HandleUpdateLocal(&UpdateMsg{Txn: a, Attempt: 1, Origin: 1, Keys: []string{"k"}}); !ack.OK {
		t.Fatalf("claim nacked: %s", ack.Reason)
	}

	d.crashRestart(t)

	// The grant was never released, so it comes back: conservative for
	// Theorem 2 — a competitor must keep getting nacks...
	if got := d.s.Granted(); got != a {
		t.Fatalf("after restart grant = %v, want %v", got, a)
	}
	d.s.VisitAndLock(b, nil, nil, nil)
	if ack := d.s.HandleUpdateLocal(&UpdateMsg{Txn: b, Attempt: 1, Origin: 1, Keys: []string{"k"}}); ack.OK {
		t.Fatal("competitor claimed a restored grant")
	}
	// ...until the holder's own abort (or gone-propagation) clears it.
	d.s.HandleAbortLocal(&AbortMsg{Txn: a, Attempt: 1})
	if !d.s.Granted().IsZero() {
		t.Fatal("abort did not release the restored grant")
	}
}

// TestSyncReplyDuplicatedReordered exercises the recovery-log pull under
// the deliveries a lossy retransmitting network can produce: replies that
// arrive out of order, contain overlapping ranges, and repeat. The store's
// sequence discipline must assemble exactly the committed prefix.
func TestSyncReplyDuplicatedReordered(t *testing.T) {
	d := newDurableServer(t)
	u1, u2, u3 := upd(1, "a", "1"), upd(2, "b", "2"), upd(3, "a", "3")

	// A reply starting past the horizon is useless and must be dropped.
	d.s.Deliver(runtime.Message{From: 2, To: 1, Payload: &SyncReply{From: 2, Sections: []SyncSection{{Updates: []store.Update{u2, u3}}}}})
	if got := d.s.Store().LastSeq(); got != 0 {
		t.Fatalf("gap reply applied: LastSeq = %d", got)
	}
	// A complete reply lands everything.
	d.s.Deliver(runtime.Message{From: 3, To: 1, Payload: &SyncReply{From: 3, Sections: []SyncSection{{Updates: []store.Update{u1, u2, u3}}}}})
	if got := d.s.Store().LastSeq(); got != 3 {
		t.Fatalf("LastSeq = %d, want 3", got)
	}
	// Duplicates (a retransmitted reply) are idempotent.
	d.s.Deliver(runtime.Message{From: 3, To: 1, Payload: &SyncReply{From: 3, Sections: []SyncSection{{Updates: []store.Update{u1, u2, u3}}}}})
	d.s.Deliver(runtime.Message{From: 2, To: 1, Payload: &SyncReply{From: 2, Sections: []SyncSection{{Updates: []store.Update{u2, u3}}}}})
	if got := len(d.s.Store().Log()); got != 3 {
		t.Fatalf("duplicated replies grew the log to %d", got)
	}

	// Everything the sync pulled was journaled: a crash right now loses
	// none of it.
	d.crashRestart(t)
	log := d.s.Store().Log()
	if len(log) != 3 || log[0] != u1 || log[1] != u2 || log[2] != u3 {
		t.Fatalf("after restart log = %+v", log)
	}
}

func TestGracefulCloseThenReopen(t *testing.T) {
	d := newDurableServer(t)
	d.s.VisitAndLock(aid(1, 1), nil, nil, nil)
	d.s.HandleCommitLocal(&CommitMsg{Txn: aid(1, 1), Origin: 1, Updates: []store.Update{upd(1, "k", "v")}})
	// Graceful shutdown: Close syncs, so even unbarriered records survive.
	if err := d.j.Close(); err != nil {
		t.Fatal(err)
	}
	d.s.Store().SetJournal(nil)
	j, st, err := durable.Open(d.mem, durable.Options{})
	if err != nil || st == nil {
		t.Fatalf("reopen: %v, %v", err, st)
	}
	defer j.Close()
	if len(st.Store.Log) != 1 || len(st.Gone) != 1 {
		t.Fatalf("state = %d updates, %d gone", len(st.Store.Log), len(st.Gone))
	}
}
