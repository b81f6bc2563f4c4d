package replica

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/des"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/simnet"
	"repro/internal/store"
)

// wireSim is the simulated network claiming wire delivery, as the live
// fabric does.
type wireSim struct{ *simnet.Network }

func (wireSim) WireDelivery() bool { return true }

// OnSettled takes the platform's settlement hook; no agent migrates here.
func (wireSim) OnSettled(func(runtime.Message, bool)) {}

// wakeupProbe is a resident that records every LLChanged it is handed,
// labelled with the step of the script that raised it.
type wakeupProbe struct {
	step string
	seen []string
}

func (p *wakeupProbe) OnArrive(*agent.Context)                        {}
func (p *wakeupProbe) OnMigrateFailed(*agent.Context, runtime.NodeID) {}
func (p *wakeupProbe) OnMessage(*agent.Context, runtime.NodeID, any)  {}
func (p *wakeupProbe) OnLocalEvent(_ *agent.Context, ev any) {
	if ch, ok := ev.(LLChanged); ok {
		p.seen = append(p.seen, fmt.Sprintf("%s: %+v", p.step, ch))
	}
}

// keysOnTwoShards returns two keys that hash to different shards, with
// their shards, in ascending shard order.
func keysOnTwoShards(shards int) (ka, kb string, sa, sb int) {
	ka, kb = "a", "b"
	for i := 0; shard.Of(kb, shards) == shard.Of(ka, shards); i++ {
		kb = fmt.Sprintf("b%d", i)
	}
	sa, sb = shard.Of(ka, shards), shard.Of(kb, shards)
	if sa > sb {
		return kb, ka, sb, sa
	}
	return ka, kb, sa, sb
}

// wakeups runs one script against server 1 of a four-shard, three-replica
// system — visits on two shards, a COMMIT on one, a sync reply on the other
// and an agent death — and returns what a resident probe was told.
func wakeups(t *testing.T, wire bool) []string {
	t.Helper()
	const shards = 4
	sim := des.New(31)
	net := simnet.New(sim, simnet.FullMesh(3), simnet.Constant(2*time.Millisecond))
	var fab runtime.Fabric = net
	if wire {
		fab = wireSim{net}
	}
	platform := agent.NewPlatform(sim, fab, agent.Config{})
	s := New(sim, 1, []runtime.NodeID{1, 2, 3}, fab, platform, Config{Shards: shards})
	p := &wakeupProbe{}
	platform.Spawn(1, p)
	ka, kb, sa, sb := keysOnTwoShards(shards)
	a, b, c := aid(1, 1), aid(2, 2), aid(3, 3)

	p.step = "a heads shard A"
	s.VisitAndLock(a, []int{sa}, nil, nil)
	p.step = "b heads shard B"
	s.VisitAndLock(b, []int{sb}, nil, nil)
	p.step = "c queues behind a"
	s.VisitAndLock(c, []int{sa}, nil, nil)
	p.step = "a commits on shard A"
	if ack := s.HandleUpdateLocal(&UpdateMsg{Txn: a, Origin: 1, Keys: []string{ka}, Shards: []int{sa}}); !ack.OK {
		t.Fatalf("head claim refused: %+v", ack)
	}
	s.HandleCommitLocal(&CommitMsg{Txn: a, Origin: 1, Updates: []store.Update{upd(1, ka, "a1")}})
	p.step = "a sync reply fills shard B"
	s.Deliver(runtime.Message{From: 2, To: 1, Payload: &SyncReply{From: 2, Sections: []SyncSection{
		{Shard: sb, Updates: []store.Update{upd(1, kb, "b1")}},
	}}})
	p.step = "b dies"
	s.OnAgentDeath(b)
	for sim.Step() {
	}
	return p.seen
}

// TestWakeupsDoNotDependOnTheFabric: a server raises the same wake-ups, in
// the same order and with the same content, whether or not its fabric
// serializes what it carries — one rule on both engines (DESIGN.md
// invariant 10).
func TestWakeupsDoNotDependOnTheFabric(t *testing.T) {
	plain, wired := wakeups(t, false), wakeups(t, true)
	if !reflect.DeepEqual(plain, wired) {
		t.Fatalf("wake-ups depend on the fabric:\nsimulated %q\nwire      %q", plain, wired)
	}
	// Every step but the tail append changes what a parked agent decides.
	want := []string{"a heads shard A", "b heads shard B", "a commits on shard A", "a sync reply fills shard B", "b dies"}
	if len(plain) != len(want) {
		t.Fatalf("wake-ups %q, want one for each of %q", plain, want)
	}
	for i, step := range want {
		if got := fmt.Sprintf("%s: %+v", step, LLChanged{Server: 1}); plain[i] != got {
			t.Fatalf("wake-up %d = %q, want %q", i, plain[i], got)
		}
	}
}
