package simnet

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/des"
)

type rec struct {
	msgs []Message
}

func (r *rec) Deliver(m Message) { r.msgs = append(r.msgs, m) }

func pair(t *testing.T, lat LatencyModel) (*des.Simulator, *Network, *rec, *rec) {
	t.Helper()
	sim := des.New(11)
	net := New(sim, FullMesh(2), lat)
	a, b := &rec{}, &rec{}
	net.Attach(1, a)
	net.Attach(2, b)
	return sim, net, a, b
}

func TestDeliverBasic(t *testing.T) {
	sim, net, _, b := pair(t, Constant(5*time.Millisecond))
	net.Send(Message{From: 1, To: 2, Payload: "hi", Size: 10})
	sim.Run()
	if len(b.msgs) != 1 || b.msgs[0].Payload != "hi" {
		t.Fatalf("b.msgs = %+v", b.msgs)
	}
	if sim.Now().Duration() != 5*time.Millisecond {
		t.Fatalf("delivery time %v, want 5ms", sim.Now())
	}
}

func TestStatsAccounting(t *testing.T) {
	// No codec carries kinded, so every send declares its size and is
	// charged exactly that.
	sim, net, _, _ := pair(t, Constant(time.Millisecond))
	net.Send(Message{From: 1, To: 2, Payload: kinded("lock"), Size: 100})
	net.Send(Message{From: 2, To: 1, Payload: kinded("ack"), Size: 20})
	net.Send(Message{From: 1, To: 2, Payload: kinded("lock"), Size: 100})
	sim.Run()
	s := net.Stats()
	if s.MessagesSent != 3 || s.MessagesDelivered != 3 || s.BytesSent != 220 {
		t.Fatalf("stats = %+v", s)
	}
	if s.ByKind["lock"] != 2 || s.ByKind["ack"] != 1 {
		t.Fatalf("by kind = %v", s.ByKind)
	}
	net.ResetStats()
	if net.Stats().MessagesSent != 0 {
		t.Fatal("ResetStats did not reset")
	}
}

type kinded string

func (k kinded) Kind() string { return string(k) }

func TestDownNodeDropsMessages(t *testing.T) {
	sim, net, _, b := pair(t, Constant(time.Millisecond))
	net.SetDown(2, true)
	net.Send(Message{From: 1, To: 2, Payload: 1})
	sim.Run()
	if len(b.msgs) != 0 {
		t.Fatal("message delivered to down node")
	}
	if net.Stats().MessagesDropped != 1 {
		t.Fatalf("dropped = %d, want 1", net.Stats().MessagesDropped)
	}
	net.SetDown(2, false)
	net.Send(Message{From: 1, To: 2, Payload: 2})
	sim.Run()
	if len(b.msgs) != 1 {
		t.Fatal("message not delivered after recovery")
	}
}

func TestDownSenderDrops(t *testing.T) {
	sim, net, _, b := pair(t, Constant(time.Millisecond))
	net.SetDown(1, true)
	net.Send(Message{From: 1, To: 2, Payload: 1})
	sim.Run()
	if len(b.msgs) != 0 {
		t.Fatal("down sender's message delivered")
	}
}

func TestCrashWhileInFlight(t *testing.T) {
	sim, net, _, b := pair(t, Constant(10*time.Millisecond))
	net.Send(Message{From: 1, To: 2, Payload: 1})
	sim.After(time.Millisecond, func() { net.SetDown(2, true) })
	sim.Run()
	if len(b.msgs) != 0 {
		t.Fatal("message delivered to node that crashed while it was in flight")
	}
}

func TestPartition(t *testing.T) {
	sim := des.New(1)
	net := New(sim, FullMesh(4), Constant(time.Millisecond))
	recs := make([]*rec, 5)
	for i := 1; i <= 4; i++ {
		recs[i] = &rec{}
		net.Attach(NodeID(i), recs[i])
	}
	net.Partition([]NodeID{1, 2}, []NodeID{3, 4})
	net.Send(Message{From: 1, To: 2, Payload: "same-side"})
	net.Send(Message{From: 1, To: 3, Payload: "cross"})
	sim.Run()
	if len(recs[2].msgs) != 1 {
		t.Fatal("same-partition message lost")
	}
	if len(recs[3].msgs) != 0 {
		t.Fatal("cross-partition message delivered")
	}
	net.Heal()
	net.Send(Message{From: 1, To: 3, Payload: "after-heal"})
	sim.Run()
	if len(recs[3].msgs) != 1 {
		t.Fatal("message lost after heal")
	}
	if !net.Reachable(1, 3) {
		t.Fatal("Reachable false after heal")
	}
}

func TestUnattachedDestinationDropped(t *testing.T) {
	sim := des.New(1)
	net := New(sim, FullMesh(3), Constant(time.Millisecond))
	net.Attach(1, &rec{})
	net.Send(Message{From: 1, To: 3, Payload: 1})
	sim.Run()
	if net.Stats().MessagesDropped != 1 {
		t.Fatal("message to unattached node not dropped")
	}
}

func TestSendUnsetEndpointsPanics(t *testing.T) {
	sim := des.New(1)
	net := New(sim, FullMesh(2), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.Send(Message{From: 1, To: None})
}

func TestNodesSorted(t *testing.T) {
	sim := des.New(1)
	net := New(sim, FullMesh(5), nil)
	for _, id := range []NodeID{3, 1, 5, 2, 4} {
		net.Attach(id, &rec{})
	}
	got := net.Nodes()
	for i, want := range []NodeID{1, 2, 3, 4, 5} {
		if got[i] != want {
			t.Fatalf("Nodes() = %v", got)
		}
	}
}

func TestUniformLatencyInRange(t *testing.T) {
	sim := des.New(3)
	net := New(sim, FullMesh(2), Uniform(2*time.Millisecond, 8*time.Millisecond))
	var times []time.Duration
	net.Attach(1, &rec{})
	net.Attach(2, HandlerFunc(func(Message) { times = append(times, sim.Now().Duration()) }))
	for i := 0; i < 50; i++ {
		net.Send(Message{From: 1, To: 2, Payload: i})
	}
	sim.Run()
	if len(times) != 50 {
		t.Fatalf("delivered %d", len(times))
	}
	for _, d := range times {
		if d < 2*time.Millisecond || d > 8*time.Millisecond {
			t.Fatalf("latency %v out of range", d)
		}
	}
}

func TestExponentialLatencyPositiveAndBounded(t *testing.T) {
	sim := des.New(3)
	net := New(sim, FullMesh(2), Exponential(10*time.Millisecond, 5*time.Millisecond))
	model := Exponential(10*time.Millisecond, 5*time.Millisecond)
	for i := 0; i < 200; i++ {
		d := model.Sample(net, Message{From: 1, To: 2})
		if d < 10*time.Millisecond {
			t.Fatalf("latency %v below base", d)
		}
		if d > 10*time.Millisecond+50*time.Millisecond {
			t.Fatalf("latency %v above truncation bound", d)
		}
	}
}

func TestCostProportionalLatency(t *testing.T) {
	sim := des.New(1)
	topo := NewTopology([][]float64{{0, 2}, {2, 0}})
	net := New(sim, topo, nil)
	model := CostProportional(10*time.Millisecond, nil)
	d := model.Sample(net, Message{From: 1, To: 2})
	if d != 20*time.Millisecond {
		t.Fatalf("cost latency = %v, want 20ms", d)
	}
}

func TestTopologyCost(t *testing.T) {
	topo := Ring(5)
	if topo.Cost(1, 2) != 1 || topo.Cost(1, 4) != 2 || topo.Cost(1, 1) != 0 {
		t.Fatalf("ring costs wrong: %v %v %v", topo.Cost(1, 2), topo.Cost(1, 4), topo.Cost(1, 1))
	}
	if c := topo.Cost(1, 99); c == 0 {
		t.Fatal("out-of-range cost should be +Inf")
	}
	ids := topo.NodeIDs()
	if len(ids) != 5 || ids[0] != 1 || ids[4] != 5 {
		t.Fatalf("NodeIDs = %v", ids)
	}
}

func TestRandomGeoSymmetric(t *testing.T) {
	topo := RandomGeo(6, rand.New(rand.NewSource(9)))
	for i := 1; i <= 6; i++ {
		for j := 1; j <= 6; j++ {
			a, b := topo.Cost(NodeID(i), NodeID(j)), topo.Cost(NodeID(j), NodeID(i))
			if a != b {
				t.Fatalf("asymmetric cost (%d,%d): %v vs %v", i, j, a, b)
			}
			if i == j && a != 0 {
				t.Fatalf("self cost (%d) = %v", i, a)
			}
		}
	}
}

func TestBadCostMatrixPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTopology([][]float64{{0, 1}, {1}})
}

// Property: with a constant latency model, message delivery preserves
// per-(sender,receiver) FIFO order.
func TestPropertyFIFOPerChannel(t *testing.T) {
	f := func(payloads []uint8) bool {
		sim := des.New(5)
		net := New(sim, FullMesh(2), Constant(3*time.Millisecond))
		var got []uint8
		net.Attach(1, &rec{})
		net.Attach(2, HandlerFunc(func(m Message) { got = append(got, m.Payload.(uint8)) }))
		for _, p := range payloads {
			net.Send(Message{From: 1, To: 2, Payload: p})
		}
		sim.Run()
		if len(got) != len(payloads) {
			return false
		}
		for i := range got {
			if got[i] != payloads[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPresetsProducePlausibleDelays(t *testing.T) {
	sim := des.New(5)
	net := New(sim, FullMesh(2), nil)
	msg := Message{From: 1, To: 2}
	for _, tc := range []struct {
		name     string
		model    LatencyModel
		min, max time.Duration
	}{
		{"lan", LAN(), 500 * time.Microsecond, 4 * time.Millisecond},
		{"prototype", Prototype(), 3 * time.Millisecond, 20 * time.Millisecond},
		{"wan", WAN(), 40 * time.Millisecond, 200 * time.Millisecond},
	} {
		for i := 0; i < 100; i++ {
			d := tc.model.Sample(net, msg)
			if d < tc.min || d > tc.max {
				t.Fatalf("%s latency %v outside [%v, %v]", tc.name, d, tc.min, tc.max)
			}
		}
	}
}

func TestUniformDegenerateAndSwapped(t *testing.T) {
	sim := des.New(5)
	net := New(sim, FullMesh(2), nil)
	msg := Message{From: 1, To: 2}
	same := Uniform(3*time.Millisecond, 3*time.Millisecond)
	if d := same.Sample(net, msg); d != 3*time.Millisecond {
		t.Fatalf("degenerate uniform = %v", d)
	}
	swapped := Uniform(8*time.Millisecond, 2*time.Millisecond)
	for i := 0; i < 50; i++ {
		d := swapped.Sample(net, msg)
		if d < 2*time.Millisecond || d > 8*time.Millisecond {
			t.Fatalf("swapped-bounds uniform = %v", d)
		}
	}
}

func TestNetworkAccessors(t *testing.T) {
	sim := des.New(1)
	topo := Ring(4)
	net := New(sim, topo, nil)
	if net.Topology() != topo {
		t.Fatal("Topology accessor")
	}
	if net.Sim() != sim {
		t.Fatal("Sim accessor")
	}
	if topo.Len() != 4 {
		t.Fatalf("Len = %d", topo.Len())
	}
	if net.Down(1) {
		t.Fatal("fresh node down")
	}
	net.SetDown(1, true)
	if !net.Down(1) {
		t.Fatal("SetDown ignored")
	}
	if net.Cost(2, 4) != topo.Cost(2, 4) {
		t.Fatal("Cost delegation")
	}
}

func TestAttachZeroPanics(t *testing.T) {
	sim := des.New(1)
	net := New(sim, FullMesh(2), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	net.Attach(None, &rec{})
}

func BenchmarkSendDeliver(b *testing.B) {
	sim := des.New(1)
	net := New(sim, FullMesh(2), Constant(time.Millisecond))
	delivered := 0
	net.Attach(1, &rec{})
	net.Attach(2, HandlerFunc(func(Message) { delivered++ }))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Send(Message{From: 1, To: 2, Payload: i, Size: 64})
		sim.Step()
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}
