package simnet

import (
	"testing"
	"time"

	"repro/internal/des"
)

// faultPair builds a 2-node network with a fault model attached.
func faultPair(t *testing.T, f *FaultModel) (*des.Simulator, *Network, *rec) {
	t.Helper()
	sim, net, _, b := pair(t, Constant(time.Millisecond))
	net.SetFaults(f)
	return sim, net, b
}

func TestFaultLossDeterministicAndCounted(t *testing.T) {
	const n = 1000
	run := func() (Stats, int) {
		sim, net, b := faultPair(t, NewFaultModel(42, 0.3, 0))
		for i := 0; i < n; i++ {
			net.Send(Message{From: 1, To: 2, Payload: i, Size: 1})
		}
		for sim.Step() {
		}
		return net.Stats(), len(b.msgs)
	}
	s1, got1 := run()
	s2, got2 := run()
	if s1.MessagesLost != s2.MessagesLost || got1 != got2 {
		t.Fatalf("same seed diverged: %+v/%d vs %+v/%d", s1, got1, s2, got2)
	}
	if s1.MessagesLost == 0 || s1.MessagesLost == n {
		t.Fatalf("loss=0.3 over %d sends lost %d messages", n, s1.MessagesLost)
	}
	if s1.MessagesDropped != 0 {
		t.Fatalf("fault losses counted as drops: %+v", s1)
	}
	if got1 != n-s1.MessagesLost {
		t.Fatalf("delivered %d, want %d - %d lost", got1, n, s1.MessagesLost)
	}
}

func TestFaultDuplicationDeliversTwice(t *testing.T) {
	const n = 500
	sim, net, b := faultPair(t, NewFaultModel(7, 0, 0.5))
	for i := 0; i < n; i++ {
		net.Send(Message{From: 1, To: 2, Payload: i, Size: 1})
	}
	for sim.Step() {
	}
	s := net.Stats()
	if s.MessagesDuplicated == 0 || s.MessagesLost != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if len(b.msgs) != n+s.MessagesDuplicated {
		t.Fatalf("delivered %d, want %d originals + %d duplicates", len(b.msgs), n, s.MessagesDuplicated)
	}
}

func TestFaultLossyWindow(t *testing.T) {
	f := NewFaultModel(3, 0, 0)
	if err := f.AddWindow(LossyWindow{From: 10 * time.Millisecond, To: 20 * time.Millisecond, Loss: MaxLoss}); err != nil {
		t.Fatal(err)
	}
	sim, net, b := faultPair(t, f)
	send := func(at time.Duration, tag string) {
		sim.At(des.Time(at), func() {
			net.Send(Message{From: 1, To: 2, Payload: tag, Size: 1})
		})
	}
	// Outside the window nothing is lost; inside, loss is MaxLoss.
	for i := 0; i < 50; i++ {
		send(time.Duration(i)*100*time.Microsecond, "before")                     // [0ms, 5ms)
		send(10*time.Millisecond+time.Duration(i)*100*time.Microsecond, "during") // [10ms, 15ms)
		send(30*time.Millisecond+time.Duration(i)*100*time.Microsecond, "after")  // [30ms, 35ms)
	}
	for sim.Step() {
	}
	counts := map[string]int{}
	for _, m := range b.msgs {
		counts[m.Payload.(string)]++
	}
	if counts["before"] != 50 || counts["after"] != 50 {
		t.Fatalf("lost messages outside the window: %v", counts)
	}
	if counts["during"] == 50 {
		t.Fatalf("window had no effect: %v", counts)
	}
}

func TestFaultLinkLossAndExtraLoss(t *testing.T) {
	f := NewFaultModel(9, 0, 0)
	f.SetLinkLoss(1, 2, MaxLoss)
	sim, net, b := faultPair(t, f)
	a := &rec{}
	net.Attach(1, a)
	for i := 0; i < 100; i++ {
		net.Send(Message{From: 1, To: 2, Payload: i, Size: 1}) // lossy direction
		net.Send(Message{From: 2, To: 1, Payload: i, Size: 1}) // clean direction
	}
	for sim.Step() {
	}
	if len(a.msgs) != 100 {
		t.Fatalf("clean reverse link lost messages: got %d", len(a.msgs))
	}
	if len(b.msgs) == 100 {
		t.Fatal("per-link override had no effect")
	}

	// Dynamic extra loss applies network-wide and clears with zero.
	f2 := NewFaultModel(9, 0, 0)
	f2.SetExtraLoss(MaxLoss)
	sim2, net2, b2 := faultPair(t, f2)
	for i := 0; i < 100; i++ {
		net2.Send(Message{From: 1, To: 2, Payload: i, Size: 1})
	}
	for sim2.Step() {
	}
	lostUnder := net2.Stats().MessagesLost
	if lostUnder == 0 {
		t.Fatal("SetExtraLoss had no effect")
	}
	f2.SetExtraLoss(0)
	for i := 0; i < 50; i++ {
		net2.Send(Message{From: 1, To: 2, Payload: i, Size: 1})
	}
	for sim2.Step() {
	}
	if len(b2.msgs) != (100-lostUnder)+50 {
		t.Fatalf("clearing extra loss still lost messages: %d delivered", len(b2.msgs))
	}
}

func TestFaultProbabilityClamping(t *testing.T) {
	f := NewFaultModel(1, 2.0, -1)
	if f.loss != MaxLoss || f.dup != 0 {
		t.Fatalf("loss=%v dup=%v after clamping", f.loss, f.dup)
	}
	if err := f.AddWindow(LossyWindow{From: 2, To: 1}); err == nil {
		t.Fatal("inverted window accepted")
	}
}
