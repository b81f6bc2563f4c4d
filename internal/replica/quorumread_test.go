package replica

import (
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/wire"
)

func TestQuorumReadCollectsLatest(t *testing.T) {
	f := newFixture(t, 5, Config{})
	// Stagger replica states: servers 1-3 have seq 2, servers 4-5 only seq 1.
	u1 := store.Update{TxnID: "t1", Key: "x", Data: "old", Seq: 1, Stamp: 1}
	u2 := store.Update{TxnID: "t2", Key: "x", Data: "new", Seq: 2, Stamp: 2}
	for i := 1; i <= 5; i++ {
		if err := f.servers[simnet.NodeID(i)].Store().ApplyCommitted(u1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 3; i++ {
		if err := f.servers[simnet.NodeID(i)].Store().ApplyCommitted(u2); err != nil {
			t.Fatal(err)
		}
	}
	// Coordinate from a STALE server: the quorum must surface "new".
	var got store.Value
	var found bool
	f.servers[5].QuorumRead("x", func(v store.Value, ok bool) { got, found = v, ok })
	for f.sim.Step() {
	}
	if !found || got.Data != "new" || got.Version.Seq != 2 {
		t.Fatalf("quorum read = %+v %v", got, found)
	}
}

func TestQuorumReadLocalShortCircuit(t *testing.T) {
	// N=1: the local copy alone is the majority; no messages needed.
	f := newFixture(t, 1, Config{})
	if err := f.servers[1].Store().ApplyCommitted(store.Update{TxnID: "t", Key: "k", Data: "v", Seq: 1}); err != nil {
		t.Fatal(err)
	}
	called := false
	f.servers[1].QuorumRead("k", func(v store.Value, ok bool) {
		called = true
		if !ok || v.Data != "v" {
			t.Fatalf("value = %+v %v", v, ok)
		}
	})
	if !called {
		t.Fatal("single-node quorum read did not resolve synchronously")
	}
	if f.net.Stats().MessagesSent != 0 {
		t.Fatal("single-node quorum read sent messages")
	}
}

func TestQuorumReadMissingEverywhere(t *testing.T) {
	f := newFixture(t, 3, Config{})
	var found bool
	resolved := false
	f.servers[2].QuorumRead("ghost", func(v store.Value, ok bool) { found, resolved = ok, true })
	for f.sim.Step() {
	}
	if !resolved || found {
		t.Fatalf("resolved=%v found=%v", resolved, found)
	}
}

func TestQuorumReadStallsWithoutMajority(t *testing.T) {
	f := newFixture(t, 5, Config{})
	f.net.SetDown(3, true)
	f.net.SetDown(4, true)
	f.net.SetDown(5, true)
	resolved := false
	f.servers[1].QuorumRead("x", func(store.Value, bool) { resolved = true })
	f.sim.RunFor(10 * time.Second)
	if resolved {
		t.Fatal("quorum read resolved with a majority down")
	}
}

func TestAccessors(t *testing.T) {
	f := newFixture(t, 3, Config{})
	s := f.servers[2]
	if s.ID() != 2 {
		t.Fatalf("ID = %d", s.ID())
	}
	if s.Place() == nil || s.Place().Node() != 2 {
		t.Fatal("Place wrong")
	}
	peers := s.Peers()
	if len(peers) != 2 || peers[0] != 1 || peers[1] != 3 {
		t.Fatalf("Peers = %v", peers)
	}
	info := s.RefreshInfo(nil)
	if info.Locals[0].Server != 2 || info.LastSeq != 0 {
		t.Fatalf("RefreshInfo = %+v", info)
	}
}

func TestMessageKindsAndSizes(t *testing.T) {
	msgs := []interface{ Kind() string }{
		&UpdateMsg{Keys: []string{"a", "b"}, Evidence: map[simnet.NodeID]uint64{1: 1}},
		&AckMsg{Values: []KeyValue{{Key: "a"}}, Info: &LockInfo{}},
		&AckMsg{},
		&CommitMsg{Updates: make([]store.Update, 3)},
		&AbortMsg{},
		&SyncRequest{},
		&SyncReply{Sections: []SyncSection{{Updates: make([]store.Update, 2)}}, Gone: []agent.ID{aid(1, 1)}},
		&ReadReq{},
		&ReadRep{},
	}
	seen := make(map[string]bool)
	for _, m := range msgs {
		if m.Kind() == "" {
			t.Fatalf("%T has empty kind", m)
		}
		if wire.Size(m) <= 0 {
			t.Fatalf("%T has no wire encoding", m)
		}
		seen[m.Kind()] = true
	}
	if len(seen) < 8 {
		t.Fatalf("kinds not distinct: %v", seen)
	}
	// What a message costs grows with its content.
	small := wire.Size(&CommitMsg{})
	big := wire.Size(&CommitMsg{Updates: make([]store.Update, 5)})
	if big <= small {
		t.Fatal("CommitMsg size does not grow with updates")
	}
}
