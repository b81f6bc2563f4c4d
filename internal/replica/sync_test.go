package replica

import (
	"reflect"
	"testing"

	"repro/internal/agent"
	"repro/internal/des"
	"repro/internal/runtime"
	"repro/internal/store"
)

// sendLog is a fabric that records what is sent over it and delivers
// nothing.
type sendLog struct{ sent []runtime.Message }

func (l *sendLog) Attach(runtime.NodeID, runtime.Handler)      {}
func (l *sendLog) Send(m runtime.Message)                      { l.sent = append(l.sent, m) }
func (l *sendLog) Cost(runtime.NodeID, runtime.NodeID) float64 { return 1 }
func (l *sendLog) Down(runtime.NodeID) bool                    { return false }

// TestGappedCommitAsksItsOriginOnce: a COMMIT whose updates open sequence
// gaps on two shards sends its origin one request naming both, and the
// reply's two sections fill both gaps and drain both backlogs.
func TestGappedCommitAsksItsOriginOnce(t *testing.T) {
	const shards = 8
	sim := des.New(1)
	net := &sendLog{}
	s := New(sim, 1, []runtime.NodeID{1, 2, 3}, net, agent.NewPlatform(sim, net, agent.Config{}), Config{Shards: shards})
	ka, kb, sa, sb := keysOnTwoShards(shards)

	// Both updates are the second on their shard: this replica missed the
	// first of each.
	s.Deliver(runtime.Message{From: 2, To: 1, Payload: &CommitMsg{Txn: aid(2, 2), Origin: 2,
		Updates: []store.Update{upd(2, ka, "a2"), upd(2, kb, "b2")}}})
	var reqs []*SyncRequest
	for _, m := range net.sent {
		if r, ok := m.Payload.(*SyncRequest); ok {
			if m.To != 2 {
				t.Fatalf("gap request went to %d, not the origin", m.To)
			}
			reqs = append(reqs, r)
		}
	}
	if len(reqs) != 1 {
		t.Fatalf("%d sync requests for one COMMIT, want 1", len(reqs))
	}
	if want := []SyncSince{{Shard: sa}, {Shard: sb}}; !reflect.DeepEqual(reqs[0].Shards, want) {
		t.Fatalf("request names %+v, want %+v", reqs[0].Shards, want)
	}

	s.Deliver(runtime.Message{From: 2, To: 1, Payload: &SyncReply{From: 2, Sections: []SyncSection{
		{Shard: sa, Updates: []store.Update{upd(1, ka, "a1")}},
		{Shard: sb, Updates: []store.Update{upd(1, kb, "b1")}},
	}}})
	for _, sh := range []int{sa, sb} {
		if got := s.StoreOf(sh).LastSeq(); got != 2 {
			t.Errorf("shard %d at seq %d after the reply, want 2 (backlog drained)", sh, got)
		}
		if n := len(s.shards[sh].backlog); n != 0 {
			t.Errorf("shard %d still holds %d backlogged updates", sh, n)
		}
	}
}
