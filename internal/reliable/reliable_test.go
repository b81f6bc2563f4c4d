package reliable

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/des"
	"repro/internal/runtime"
	"repro/internal/simnet"
	"repro/internal/wire"
)

type rec struct{ msgs []simnet.Message }

func (r *rec) Deliver(m simnet.Message) { r.msgs = append(r.msgs, m) }

// gate sits between the layer and the network so a test can lose one chosen
// frame (drop reports true) and look at, or re-inject, what was sent.
type gate struct {
	runtime.Fabric
	drop func(m runtime.Message) bool
}

func (g *gate) Send(m runtime.Message) {
	if g.drop != nil && g.drop(m) {
		return
	}
	g.Fabric.Send(m)
}

func pair(t *testing.T, faults *simnet.FaultModel, cfg Config) (*des.Simulator, *simnet.Network, *Layer, *rec, *rec) {
	t.Helper()
	sim, net, _, l, a, b := gatedPair(t, faults, cfg)
	return sim, net, l, a, b
}

func gatedPair(t *testing.T, faults *simnet.FaultModel, cfg Config) (*des.Simulator, *simnet.Network, *gate, *Layer, *rec, *rec) {
	t.Helper()
	sim := des.New(11)
	net := simnet.New(sim, simnet.FullMesh(2), simnet.Constant(time.Millisecond))
	net.SetFaults(faults)
	g := &gate{Fabric: net}
	l := NewLayer(sim, g, cfg)
	a, b := &rec{}, &rec{}
	l.Attach(1, a)
	l.Attach(2, b)
	return sim, net, g, l, a, b
}

func payloads(r *rec) []any {
	var out []any
	for _, m := range r.msgs {
		out = append(out, m.Payload)
	}
	return out
}

func TestBackoffSchedule(t *testing.T) {
	cfg := Config{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Attempts: 6}
	want := []time.Duration{
		10 * time.Millisecond, // after 1st transmission
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond, // capped at Max
	}
	for i, w := range want {
		if got := Backoff(cfg, i+1); got != w {
			t.Errorf("Backoff(attempt=%d) = %v, want %v", i+1, got, w)
		}
	}
	if got := Backoff(cfg, 0); got != cfg.Base {
		t.Errorf("Backoff(attempt=0) = %v, want base %v", got, cfg.Base)
	}
	if got := Backoff(Config{}, 1); got != DefaultConfig.Base {
		t.Errorf("zero config Backoff = %v, want default base %v", got, DefaultConfig.Base)
	}
}

// TestEstimatorFollowsRFC6298 pins the estimator's arithmetic: the first
// sample sets the smoothed round trip to itself and the deviation to half
// of it, each later one moves them by 1/8 and 1/4, and the timeout is
// SRTT + max(G, 4·RTTVAR) plus the 5 ms ack delay of a 20 ms Base, never
// above Max.
func TestEstimatorFollowsRFC6298(t *testing.T) {
	cfg := Config{Base: 20 * time.Millisecond}.withDefaults()
	var e rttEstimator
	if got := e.rto(cfg); got != cfg.Base {
		t.Fatalf("unmeasured link: timeout %v, want Base %v", got, cfg.Base)
	}
	us := time.Microsecond
	for i, step := range []struct{ sample, srtt, rttvar, rto time.Duration }{
		{2000 * us, 2000 * us, 1000 * us, 2000*us + 4000*us + 5000*us},
		{4000 * us, 2250 * us, 1250 * us, 2250*us + 5000*us + 5000*us},
		{2250 * us, 2250 * us, 937500 * time.Nanosecond, 2250*us + 3750*us + 5000*us},
	} {
		e.observe(step.sample)
		if e.srtt != step.srtt || e.rttvar != step.rttvar || e.rto(cfg) != step.rto {
			t.Fatalf("sample %d (%v): srtt %v rttvar %v timeout %v, want %v %v %v",
				i+1, step.sample, e.srtt, e.rttvar, e.rto(cfg), step.srtt, step.rttvar, step.rto)
		}
	}
	for i := 0; i < 40; i++ {
		e.observe(2250 * us)
	}
	if want := 2250*us + granularity + 5000*us; e.rto(cfg) != want {
		t.Fatalf("steady link: timeout %v, want SRTT + G + ack delay = %v", e.rto(cfg), want)
	}
	e.observe(10 * time.Second)
	if e.rto(cfg) != cfg.Max {
		t.Fatalf("a 10s sample: timeout %v, want Max %v", e.rto(cfg), cfg.Max)
	}
}

// linkRTO reports the timeout from's link to peer gives a frame sent now,
// and whether the link has measured a round trip yet.
func linkRTO(l *Layer, from, peer runtime.NodeID) (time.Duration, bool) {
	lk := l.port(from).link(peer)
	return lk.rtt.rto(l.cfg), lk.rtt.sampled
}

// oneWay sends n frames from node 1 to node 2, one every gap, and runs the
// simulation until it is quiet.
func oneWay(sim *des.Simulator, l *Layer, n int, gap time.Duration) {
	for i := 0; i < n; i++ {
		i := i
		sim.After(time.Duration(i)*gap, func() { l.Send(simnet.Message{From: 1, To: 2, Payload: i, Size: 1}) })
	}
	sim.Run()
}

// TestSamplesLeaveTheAckDelayOut: on a 1 ms link nothing answers, every
// acknowledgement waits at the receiver for reverse traffic that never
// comes, yet every sample is the 2 ms the network took, and the timeout is
// that plus G plus the ack delay — not the wait counted twice.
func TestSamplesLeaveTheAckDelayOut(t *testing.T) {
	sim, _, l, _, _ := pair(t, nil, Config{})
	oneWay(sim, l, 50, 3*time.Millisecond)
	st := l.Stats()
	lk := l.ports[1].links[2]
	if st.RTTSamples < 10 || lk.rtt.srtt != 2*time.Millisecond || st.Retransmissions != 0 {
		t.Fatalf("stats %+v, smoothed round trip %v: want every sample at the network's 2ms", st, lk.rtt.srtt)
	}
	want := 2*time.Millisecond + granularity + DefaultConfig.Base/4
	if rto, measured := linkRTO(l, 1, 2); !measured || rto != want || st.RTOMax != want {
		t.Fatalf("timeout %v (measured %v, gauge %v), want %v", rto, measured, st.RTOMax, want)
	}
	if _, measured := linkRTO(l, 2, 1); measured {
		t.Fatal("the reverse link carried no data frame, yet has a sample")
	}
}

// TestLossIsRepairedAfterTheMeasuredTimeout: once a 1 ms link has measured
// itself, a lost frame is sent again after the 9 ms its timeout allows (2 ms
// round trip, G, 5 ms ack delay), not after the 20 ms Base a link starts
// with.
func TestLossIsRepairedAfterTheMeasuredTimeout(t *testing.T) {
	sim, _, g, l, _, b := gatedPair(t, nil, Config{})
	oneWay(sim, l, 10, 3*time.Millisecond)
	var sent []runtime.Time
	g.drop = func(m runtime.Message) bool {
		if d, ok := m.Payload.(dataMsg); ok && d.Payload == "lost" {
			sent = append(sent, sim.Now())
			return len(sent) == 1
		}
		return false
	}
	l.Send(simnet.Message{From: 1, To: 2, Payload: "lost", Size: 4})
	sim.Run()
	if len(sent) != 2 {
		t.Fatalf("the lost frame was transmitted %d times, want twice", len(sent))
	}
	if gap := sent[1].Sub(sent[0]); gap != 9*time.Millisecond {
		t.Fatalf("retransmitted %v after the first copy, want the measured 9ms (Base is %v)", gap, DefaultConfig.Base)
	}
	if got := payloads(b); len(got) != 11 || got[10] != "lost" {
		t.Fatalf("delivered %v", got)
	}
}

// TestRetransmissionIsTimedFromItsOwnCopy: the acknowledgement names which
// transmission arrived, so a frame whose first copy was lost still yields
// a sample — timed from the copy that got through, not from the first one,
// which would have counted the 20 ms the sender waited as round trip.
func TestRetransmissionIsTimedFromItsOwnCopy(t *testing.T) {
	sim, _, g, l, _, _ := gatedPair(t, nil, Config{})
	dropped := false
	g.drop = func(m runtime.Message) bool {
		if d, ok := m.Payload.(dataMsg); ok && d.Payload == "one" && !dropped {
			dropped = true
			return true
		}
		return false
	}
	l.Send(simnet.Message{From: 1, To: 2, Payload: "one", Size: 3})
	sim.Run()
	want := 2*time.Millisecond + 4*time.Millisecond + DefaultConfig.Base/4 // first sample 2ms: RTTVAR = 1ms
	if rto, measured := linkRTO(l, 1, 2); l.Stats().RTTSamples != 1 || !measured || rto != want {
		t.Fatalf("samples %d, timeout %v (measured %v): want the second copy's 2ms sampled, timeout %v",
			l.Stats().RTTSamples, rto, measured, want)
	}
}

// TestSlowLinkLearnsItsRoundTrip: on a link whose round trip (60 ms) is
// three times Base, every frame sent before the first answer came back is
// retransmitted, and Karn's rule would discard every sample there is. The
// acknowledgement says it answers the first copy, so that copy is timed:
// from then on the link times out after its own 60 ms plus G and the ack
// delay, and nothing is sent twice. Without the measurement every frame
// went twice.
func TestSlowLinkLearnsItsRoundTrip(t *testing.T) {
	sim := des.New(11)
	net := simnet.New(sim, simnet.FullMesh(2), simnet.Constant(30*time.Millisecond))
	l := NewLayer(sim, net, Config{})
	b := &rec{}
	l.Attach(1, &rec{})
	l.Attach(2, b)
	const n = 200
	oneWay(sim, l, n, 10*time.Millisecond)
	st := l.Stats()
	if len(b.msgs) != n || st.GaveUp != 0 {
		t.Fatalf("delivered %d of %d, stats %+v", len(b.msgs), n, st)
	}
	if st.Retransmissions > 20 {
		t.Fatalf("%d retransmissions for %d frames: the link never learnt its round trip", st.Retransmissions, n)
	}
	want := 60*time.Millisecond + granularity + DefaultConfig.Base/4
	if rto, measured := linkRTO(l, 1, 2); !measured || rto != want {
		t.Fatalf("timeout %v (measured %v), want %v", rto, measured, want)
	}
	t.Logf("%d retransmissions, of frames sent before the first sample; %d samples", st.Retransmissions, st.RTTSamples)
}

func TestDedupDeliversExactlyOnce(t *testing.T) {
	// Heavy network-level duplication: every frame may arrive several times
	// (and acks duplicate too), yet the upper handler sees each payload once.
	sim, net, l, _, b := pair(t, simnet.NewFaultModel(21, 0, 0.9), Config{})
	const n = 50
	for i := 0; i < n; i++ {
		l.Send(simnet.Message{From: 1, To: 2, Payload: i, Size: 10})
	}
	sim.Run()
	if len(b.msgs) != n {
		t.Fatalf("delivered %d payloads, want exactly %d", len(b.msgs), n)
	}
	seen := make(map[int]bool)
	for _, m := range b.msgs {
		v := m.Payload.(int)
		if seen[v] {
			t.Fatalf("payload %d delivered twice", v)
		}
		seen[v] = true
	}
	if l.Stats().DuplicatesSuppressed == 0 {
		t.Fatal("no duplicates suppressed despite dup=0.9")
	}
	if net.Stats().MessagesDuplicated == 0 {
		t.Fatal("network injected no duplicates")
	}
}

// TestEverySendSettlesOnce: under loss and duplication of data frames and
// acknowledgements alike, the sender hears of every send exactly once, as
// delivered, and only after the receiver has it.
func TestEverySendSettlesOnce(t *testing.T) {
	sim, _, l, _, b := pair(t, simnet.NewFaultModel(9, 0.3, 0.5),
		Config{Base: 5 * time.Millisecond, Max: 40 * time.Millisecond, Attempts: 12})
	settled := make(map[int]int)
	l.OnSettled(func(m simnet.Message, delivered bool) {
		v := m.Payload.(int)
		if !delivered || !slices.ContainsFunc(b.msgs, func(d simnet.Message) bool { return d.Payload == v }) {
			t.Errorf("payload %d settled delivered=%v before the receiver had it", v, delivered)
		}
		settled[v]++
	})
	const n = 100
	for i := 0; i < n; i++ {
		l.Send(simnet.Message{From: 1, To: 2, Payload: i, Size: 10})
	}
	sim.Run()
	for i := 0; i < n; i++ {
		if settled[i] != 1 {
			t.Fatalf("payload %d settled %d times, want once (stats %+v)", i, settled[i], l.Stats())
		}
	}
	if st := l.Stats(); st.Retransmissions == 0 || st.DuplicatesSuppressed == 0 {
		t.Fatalf("stats %+v: the run exercised no recovery", st)
	}
}

func TestLossRecoveredByRetransmission(t *testing.T) {
	// 30% loss in both directions (data and acks) — the chaos experiment's
	// upper bound. A transmission confirms only when data AND ack both pass
	// (p≈0.49), so with 12 transmissions the chance a frame is never
	// confirmed is ~0.03%; the seeded run confirms all of them.
	sim, _, l, _, b := pair(t, simnet.NewFaultModel(5, 0.3, 0),
		Config{Base: 5 * time.Millisecond, Max: 40 * time.Millisecond, Attempts: 12})
	const n = 100
	for i := 0; i < n; i++ {
		l.Send(simnet.Message{From: 1, To: 2, Payload: i, Size: 10})
	}
	sim.Run()
	st := l.Stats()
	if st.GaveUp != 0 {
		t.Fatalf("%d sends gave up under 30%% loss with 12 attempts", st.GaveUp)
	}
	if len(b.msgs) != n {
		t.Fatalf("delivered %d payloads, want %d (stats %+v)", len(b.msgs), n, st)
	}
	if st.Retransmissions == 0 {
		t.Fatal("no retransmissions under 30% loss")
	}
}

func TestUnreachablePeerSurfaces(t *testing.T) {
	sim, net, l, _, b := pair(t, nil, Config{Base: 5 * time.Millisecond, Attempts: 3})
	net.SetDown(2, true)
	var gaveUp []simnet.Message
	l.OnSettled(func(msg simnet.Message, delivered bool) {
		if delivered || msg.From != 1 || msg.To != 2 {
			t.Errorf("settled %d->%d delivered=%v, want 1->2 given up", msg.From, msg.To, delivered)
		}
		gaveUp = append(gaveUp, msg)
	})
	l.Send(simnet.Message{From: 1, To: 2, Payload: "lost", Size: 4})
	sim.Run()
	if len(gaveUp) != 1 || gaveUp[0].Payload != "lost" {
		t.Fatalf("OnSettled calls = %+v, want exactly one with the original payload", gaveUp)
	}
	if st := l.Stats(); st.GaveUp != 1 || st.Retransmissions != 2 {
		t.Fatalf("stats = %+v, want GaveUp=1 Retransmissions=2 (3 transmissions total)", st)
	}
	if len(b.msgs) != 0 {
		t.Fatalf("down node received %d messages", len(b.msgs))
	}
}

func TestCrashClearsVolatileState(t *testing.T) {
	sim, net, l, a, _ := pair(t, nil, Config{Base: 5 * time.Millisecond, Attempts: 4})
	net.SetDown(2, true)
	l.Send(simnet.Message{From: 1, To: 2, Payload: "doomed", Size: 4})
	var unreachable int
	l.OnSettled(func(simnet.Message, bool) { unreachable++ })
	l.Crash(1) // sender crashes: its unacked send must die silently
	net.SetDown(1, true)
	sim.Run()
	if unreachable != 0 {
		t.Fatal("a crashed sender reported unreachable peers")
	}
	// After recovery of both nodes the link works again, and the surviving
	// send counter keeps post-recovery frames distinct from old ones.
	net.SetDown(1, false)
	net.SetDown(2, false)
	l.Send(simnet.Message{From: 2, To: 1, Payload: "fresh", Size: 5})
	sim.Run()
	if len(a.msgs) != 1 || a.msgs[0].Payload != "fresh" {
		t.Fatalf("post-recovery delivery = %+v", a.msgs)
	}
}

func TestRawMessagesPassThrough(t *testing.T) {
	// A sender that bypasses the layer (legacy path) still reaches the
	// handler unchanged.
	sim, net, _, _, b := pair(t, nil, Config{})
	net.Send(simnet.Message{From: 1, To: 2, Payload: "raw", Size: 3})
	sim.Run()
	if len(b.msgs) != 1 || b.msgs[0].Payload != "raw" {
		t.Fatalf("raw delivery = %+v", b.msgs)
	}
}

// holeCase builds the common part of the three hole tests: frame 1 from
// node 1 never reaches node 2 (one copy is kept aside), frame 2 does and
// waits above the hole. abandon makes the sender drop frame 1 for good; the
// next frame's floor must then close the hole, and the copy of frame 1
// arriving after that must not be delivered.
func holeCase(t *testing.T, cfg Config, abandon func(sim *des.Simulator, net *simnet.Network, l *Layer)) {
	t.Helper()
	sim, net, g, l, _, b := gatedPair(t, nil, cfg)
	var late []runtime.Message
	g.drop = func(m runtime.Message) bool {
		if d, ok := m.Payload.(dataMsg); ok && d.Payload == "one" {
			late = append(late, m)
			return true
		}
		return false
	}
	l.Send(simnet.Message{From: 1, To: 2, Payload: "one", Size: 3})
	l.Send(simnet.Message{From: 1, To: 2, Payload: "two", Size: 3})
	sim.RunFor(3 * time.Millisecond)
	if got := l.Stats().DedupResidue; got != 1 {
		t.Fatalf("residue = %d with frame 2 waiting above the hole, want 1", got)
	}
	abandon(sim, net, l)
	l.Send(simnet.Message{From: 1, To: 2, Payload: "three", Size: 5})
	sim.Run()
	if got := l.Stats().DedupResidue; got != 0 {
		t.Fatalf("residue = %d at quiescence: the hole stalled the window", got)
	}
	if len(late) == 0 {
		t.Fatal("no copy of frame 1 was kept aside")
	}
	before := l.Stats().DuplicatesSuppressed
	net.Send(late[0])
	sim.Run()
	if got := payloads(b); len(got) != 2 || got[0] != "two" || got[1] != "three" {
		t.Fatalf("delivered %v, want [two three]: the abandoned frame's late copy must be suppressed", got)
	}
	if l.Stats().DuplicatesSuppressed != before+1 {
		t.Fatal("the late copy was not counted as suppressed")
	}
	if st := l.Stats(); st.DedupResidue != 0 {
		t.Fatalf("residue = %d after the late copy", st.DedupResidue)
	}
}

func TestGiveUpMovesTheFloor(t *testing.T) {
	gaveUp := 0
	holeCase(t, Config{Base: 4 * time.Millisecond, Max: 4 * time.Millisecond, Attempts: 3},
		func(sim *des.Simulator, _ *simnet.Network, l *Layer) {
			l.OnSettled(func(_ simnet.Message, delivered bool) {
				if !delivered {
					gaveUp++
				}
			})
			sim.Run() // three transmissions of frame 1, all lost
			if gaveUp != 1 {
				t.Fatalf("gave up %d sends, want frame 1 only", gaveUp)
			}
		})
}

func TestSenderCrashMovesTheFloor(t *testing.T) {
	holeCase(t, Config{}, func(_ *des.Simulator, _ *simnet.Network, l *Layer) {
		l.Crash(1) // frame 1 dies unacknowledged with the sender's pending set
	})
}

func TestRestartStrideMovesTheFloor(t *testing.T) {
	holeCase(t, Config{}, func(_ *des.Simulator, _ *simnet.Network, l *Layer) {
		l.Crash(1)
		next, _ := l.PortState(1)
		l.Restore(1, next+64, nil) // the journal's high-water mark: 64 numbers nobody will ever send
	})
}

// TestGiveUpTellsTheFloor: frame 1 is lost for good, frame 2 arrives and
// waits above the hole, and nothing more is ever sent that way. The give-up
// moves the floor over frame 2, so one standalone ack carries the new floor
// and the receiver holds nothing above its watermark at quiescence.
func TestGiveUpTellsTheFloor(t *testing.T) {
	sim, _, g, l, _, b := gatedPair(t, nil, Config{Base: 4 * time.Millisecond, Max: 4 * time.Millisecond, Attempts: 3})
	var notices []ackMsg
	g.drop = func(m runtime.Message) bool {
		switch pl := m.Payload.(type) {
		case dataMsg:
			return pl.Payload == "one"
		case ackMsg:
			if m.From == 1 {
				notices = append(notices, pl)
			}
		}
		return false
	}
	l.Send(simnet.Message{From: 1, To: 2, Payload: "one", Size: 3})
	l.Send(simnet.Message{From: 1, To: 2, Payload: "two", Size: 3})
	sim.Run()
	if st := l.Stats(); st.GaveUp != 1 || st.DedupResidue != 0 {
		t.Fatalf("stats %+v: want frame 1 given up and no residue at quiescence", st)
	}
	if len(notices) != 1 || notices[0].Floor != 3 {
		t.Fatalf("node 1 sent standalone acks %+v, want one carrying floor 3", notices)
	}
	if got := payloads(b); len(got) != 1 || got[0] != "two" {
		t.Fatalf("delivered %v, want [two]", got)
	}
}

// TestAckFrameCarriesTheFloor: the standalone ack's layout (wire version 6)
// is its tag, its sender's floor, then the cumulative ack — watermark,
// numbers above it, the echoed number, which transmission of it arrived
// and its wait in microseconds; the bytes are pinned, the frame
// round-trips, and every truncation of it is refused.
func TestAckFrameCarriesTheFloor(t *testing.T) {
	for _, tc := range []struct {
		msg  ackMsg
		want []byte
	}{
		{ackMsg{Floor: 1}, []byte{tagAckMsg, 1, 0, 0, 0, 0, 0}},
		{ackMsg{Floor: 91, Ack: ackState{Mark: 45, Above: []uint64{47, 50}}}, []byte{tagAckMsg, 91, 45, 2, 47, 50, 0, 0, 0}},
		{ackMsg{Floor: 3, Ack: ackState{Mark: 2, Echo: 2, Tx: 1, Delay: 2500 * time.Microsecond}}, []byte{tagAckMsg, 3, 2, 0, 2, 1, 0xc4, 0x13}},
	} {
		msg := tc.msg
		buf, err := wire.AppendMessage(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(buf, tc.want) {
			t.Fatalf("%+v encodes to % x, want % x", msg, buf, tc.want)
		}
		r := wire.NewReader(buf)
		back, err := wire.DecodeMessage(r)
		if err != nil || r.Finish() != nil {
			t.Fatalf("%+v: decode: %v %v", msg, err, r.Finish())
		}
		if !reflect.DeepEqual(back, msg) {
			t.Fatalf("round trip changed the frame: sent %+v, got %+v", msg, back)
		}
		for cut := 1; cut < len(buf); cut++ {
			r := wire.NewReader(buf[:cut])
			if _, err := wire.DecodeMessage(r); err == nil && r.Finish() == nil {
				t.Fatalf("%+v cut to %d of %d bytes accepted", msg, cut, len(buf))
			}
		}
	}
}

// TestGiveUpUnderAPendingFrameTellsTheFloor: a give-up cannot move the floor
// while a lower frame is still pending; the acknowledgement that settles that
// frame later moves it instead, and the notice goes then. Frames 1 and 3 are
// delivered, frame 2 never is, and every acknowledgement is held back until
// frame 2 has been given up. Retransmission jitter decides whether frame 1
// is still pending then, so the test sweeps seeds and requires both that
// this case turns up and that no seed leaves a residue.
func TestGiveUpUnderAPendingFrameTellsTheFloor(t *testing.T) {
	pendingBelow := 0
	for seed := int64(1); seed <= 40; seed++ {
		sim := des.New(seed)
		g := &gate{Fabric: simnet.New(sim, simnet.FullMesh(2), simnet.Constant(time.Millisecond))}
		l := NewLayer(sim, g, Config{Base: 4 * time.Millisecond, Max: 4 * time.Millisecond, Attempts: 3, Jitter: 1})
		l.Attach(1, &rec{})
		l.Attach(2, &rec{})
		var held []runtime.Message
		twoGone := false
		l.OnSettled(func(m runtime.Message, delivered bool) {
			if !delivered && m.Payload == "two" {
				twoGone = true
				for _, ack := range held {
					g.Fabric.Send(ack)
				}
			}
		})
		g.drop = func(m runtime.Message) bool {
			if d, ok := m.Payload.(dataMsg); ok {
				return d.Payload == "two"
			}
			if m.From == 2 && !twoGone {
				held = append(held, m)
				return true
			}
			return false
		}
		for _, p := range []string{"one", "two", "three"} {
			l.Send(simnet.Message{From: 1, To: 2, Payload: p, Size: 3})
		}
		sim.Run()
		st := l.Stats()
		if st.DedupResidue != 0 {
			t.Fatalf("seed %d: stats %+v: residue at quiescence", seed, st)
		}
		if st.GaveUp == 1 {
			pendingBelow++ // frame 1 outlived frame 2's give-up and was settled
		}
	}
	if pendingBelow == 0 {
		t.Fatal("frame 1 was never settled after frame 2's give-up: the case was not exercised")
	}
	t.Logf("frame 1 settled after frame 2's give-up in %d of 40 seeds", pendingBelow)
}

// TestRestartedReceiverRelearnsItsWatermark: a receiver that lost its window
// learns from the next frame's floor what the sender no longer holds, and a
// stray copy of such a frame is not delivered a second time.
func TestRestartedReceiverRelearnsItsWatermark(t *testing.T) {
	sim, net, g, l, _, b := gatedPair(t, nil, Config{})
	var copies []runtime.Message
	g.drop = func(m runtime.Message) bool {
		if d, ok := m.Payload.(dataMsg); ok && d.Payload == "two" {
			copies = append(copies, m)
		}
		return false
	}
	for _, p := range []string{"one", "two", "three"} {
		l.Send(simnet.Message{From: 1, To: 2, Payload: p, Size: 3})
	}
	sim.Run() // delivered and acknowledged
	l.Crash(2)
	if _, held := l.PortState(2); len(held) != 0 {
		t.Fatalf("a crashed receiver kept %+v", held)
	}
	l.Send(simnet.Message{From: 1, To: 2, Payload: "four", Size: 4})
	sim.Run()
	if _, held := l.PortState(2); held[1].Mark != 4 || held[1].Above != nil {
		t.Fatalf("window after the first frame since the restart = %+v, want watermark 4", held[1])
	}
	net.Send(copies[0])
	sim.Run()
	if got := payloads(b); len(got) != 4 || got[3] != "four" {
		t.Fatalf("delivered %v: frame 2 came twice though the sender no longer holds it", got)
	}
}

// TestOneWayTrafficAcksOnTheTimer is the worst case for piggybacking: nothing
// ever goes the other way, so every acknowledgement waits out the ack delay.
// It must still arrive before the first retransmission is due, and one ack
// covers everything that arrived while it waited.
func TestOneWayTrafficAcksOnTheTimer(t *testing.T) {
	sim := des.New(3)
	net := simnet.New(sim, simnet.FullMesh(2), simnet.LAN())
	l := NewLayer(sim, net, Config{})
	b := &rec{}
	l.Attach(1, &rec{})
	l.Attach(2, b)
	const n = 300
	for i := 0; i < n; i++ {
		i := i
		sim.After(time.Duration(i)*700*time.Microsecond, func() {
			l.Send(simnet.Message{From: 1, To: 2, Payload: i, Size: 10})
		})
	}
	sim.Run()
	st := l.Stats()
	if len(b.msgs) != n || st.Retransmissions != 0 || st.DuplicatesSuppressed != 0 || st.GaveUp != 0 {
		t.Fatalf("delivered %d of %d, stats %+v: a delayed ack must not cost a retransmission", len(b.msgs), n, st)
	}
	if st.AcksSent == 0 || st.AcksSent > n/4 || st.AcksPiggybacked != 0 {
		t.Fatalf("stats %+v: want standalone acks only, each covering several of the %d frames", st, n)
	}
	if got := len(l.ports[1].links[2].pending); got != 0 {
		t.Fatalf("%d frames still unacknowledged at quiescence", got)
	}
	// A lone frame is the other extreme: exactly one ack, on the timer.
	l.Send(simnet.Message{From: 1, To: 2, Payload: n, Size: 10})
	sim.Run()
	if after := l.Stats(); after.AcksSent != st.AcksSent+1 || after.Retransmissions != 0 {
		t.Fatalf("lone frame: stats %+v after %+v", after, st)
	}
}

// TestLostAckIsHealedByTheNextFrame: an acknowledgement that is lost is not
// restated frame by frame — the next one to leave carries the watermark, so
// nothing is retransmitted on its account.
func TestLostAckIsHealedByTheNextFrame(t *testing.T) {
	for name, next := range map[string]simnet.Message{
		"the next ack covers both frames":   {From: 1, To: 2, Payload: "second", Size: 6},
		"a frame going the other way tells": {From: 2, To: 1, Payload: "reply", Size: 5},
	} {
		t.Run(name, func(t *testing.T) {
			sim, _, g, l, a, b := gatedPair(t, nil, Config{})
			lost := 0
			g.drop = func(m runtime.Message) bool {
				if _, ok := m.Payload.(ackMsg); ok && lost == 0 {
					lost++
					return true
				}
				return false
			}
			l.Send(simnet.Message{From: 1, To: 2, Payload: "first", Size: 5})
			sim.RunFor(DefaultConfig.Base / 2) // the ack left, and was lost
			if lost != 1 || len(l.ports[1].links[2].pending) != 1 {
				t.Fatalf("lost %d acks, %d frames pending; want 1 and 1", lost, len(l.ports[1].links[2].pending))
			}
			l.Send(next)
			sim.RunFor(DefaultConfig.Base/4 + 3*time.Millisecond) // still before frame 1's retransmission is due
			if got := len(l.ports[1].links[2].pending); got != 0 {
				t.Fatalf("%d frames still pending on 1->2 after the next acknowledgement", got)
			}
			sim.Run()
			if st := l.Stats(); st.Retransmissions != 0 || st.DuplicatesSuppressed != 0 {
				t.Fatalf("stats %+v: the lost ack cost a retransmission", st)
			}
			if len(a.msgs)+len(b.msgs) != 2 {
				t.Fatalf("delivered %v and %v", payloads(a), payloads(b))
			}
		})
	}
}

// TestDuplicateAboveTheWatermarkIsReacked: behind a hole the watermark cannot
// speak for a frame, so when its acknowledgement is lost the retransmitted
// copy has to be acknowledged by number again — or everything queued behind
// a partition-length hole is retransmitted until its retry cap.
func TestDuplicateAboveTheWatermarkIsReacked(t *testing.T) {
	sim, _, g, l, _, b := gatedPair(t, nil, Config{Base: 4 * time.Millisecond, Max: 4 * time.Millisecond, Attempts: 8})
	lostAcks, copiesOfTwo := 0, 0
	g.drop = func(m runtime.Message) bool {
		switch pl := m.Payload.(type) {
		case dataMsg:
			if pl.Payload == "two" {
				copiesOfTwo++
			}
			return pl.Payload == "one" // the hole never closes
		case ackMsg:
			lostAcks++
			return lostAcks == 1
		}
		return false
	}
	l.Send(simnet.Message{From: 1, To: 2, Payload: "one", Size: 3})
	l.Send(simnet.Message{From: 1, To: 2, Payload: "two", Size: 3})
	sim.Run()
	if copiesOfTwo != 2 {
		t.Fatalf("frame 2 was transmitted %d times, want 2: once, and once more for the lost ack", copiesOfTwo)
	}
	if got := payloads(b); len(got) != 1 || got[0] != "two" {
		t.Fatalf("delivered %v, want [two]", got)
	}
}

// tap watches every frame the network hands to a node, before and after the
// layer has dealt with it.
type tap struct {
	runtime.Fabric
	around func(to runtime.NodeID, m runtime.Message, deliver func())
}

func (tp *tap) Attach(id runtime.NodeID, h runtime.Handler) {
	tp.Fabric.Attach(id, runtime.HandlerFunc(func(m runtime.Message) {
		tp.around(id, m, func() { h.Deliver(m) })
	}))
}

// TestWindowMatchesExplicitSet is the reference-model property: under random
// loss, duplication, reordering, give-ups and crashes of either end (a
// sender's restart skipping a stride of numbers included), the windowed
// endpoint takes the same deliver/suppress decision on every arriving frame
// as the explicit set of numbers seen it replaces — except that it also
// suppresses a number it never saw when a floor told it the sender no longer
// holds it. The test computes that set independently (the highest floor that
// arrived, on a data frame or a standalone ack, since the receiver's last
// crash) and requires the differences to be exactly it, and the sender to
// indeed hold none of them.
func TestWindowMatchesExplicitSet(t *testing.T) {
	type dir struct{ from, to runtime.NodeID }
	gaveUp, late := 0, 0
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim := des.New(seed)
		net := simnet.New(sim, simnet.FullMesh(2), simnet.Exponential(300*time.Microsecond, 2*time.Millisecond))
		net.SetFaults(simnet.NewFaultModel(seed+1, 0.2, 0.2))
		seen := map[dir]map[uint64]bool{} // the reference: every number that arrived
		floors := map[dir]uint64{}        // highest floor that arrived
		delivered := map[runtime.NodeID]int{}
		var l *Layer
		ok, abandonedLate := true, 0
		tp := &tap{Fabric: net}
		tp.around = func(to runtime.NodeID, m runtime.Message, deliver func()) {
			k := dir{m.From, to}
			d, isData := m.Payload.(dataMsg)
			if !isData {
				// A standalone ack tells its sender's floor too.
				if a, ok := m.Payload.(ackMsg); ok && a.Floor > floors[k] {
					floors[k] = a.Floor
				}
				deliver()
				return
			}
			if seen[k] == nil {
				seen[k] = map[uint64]bool{}
			}
			if d.Floor > floors[k] {
				floors[k] = d.Floor
			}
			wantNew := !seen[k][d.Seq]
			seen[k][d.Seq] = true
			if wantNew && d.Seq < floors[k] {
				wantNew = false
				abandonedLate++
				if l.ports[m.From].links[to].pending[d.Seq] != nil {
					t.Logf("seed %d: %v frame %d is below the floor %d but still pending", seed, k, d.Seq, floors[k])
					ok = false
				}
			}
			before := delivered[to]
			deliver()
			if gotNew := delivered[to] > before; gotNew != wantNew {
				t.Logf("seed %d: %v frame %d (floor %d): delivered = %v, the explicit set says %v", seed, k, d.Seq, d.Floor, gotNew, wantNew)
				ok = false
			}
		}
		l = NewLayer(sim, tp, Config{Base: 4 * time.Millisecond, Max: 8 * time.Millisecond, Attempts: 3})
		for _, id := range []runtime.NodeID{1, 2} {
			id := id
			l.Attach(id, runtime.HandlerFunc(func(runtime.Message) { delivered[id]++ }))
		}
		const span = 400 * time.Millisecond
		at := func() time.Duration { return time.Duration(rng.Int63n(int64(span))) }
		for i := 0; i < 300; i++ {
			from := runtime.NodeID(1 + rng.Intn(2))
			sim.After(at(), func() {
				if !net.Down(from) {
					l.Send(runtime.Message{From: from, To: 3 - from, Payload: "p", Size: 1})
				}
			})
		}
		for i := 0; i < 6; i++ {
			id, stride := runtime.NodeID(1+rng.Intn(2)), rng.Intn(2) == 0
			down := at()
			sim.After(down, func() {
				if net.Down(id) {
					return
				}
				net.SetDown(id, true)
				l.Crash(id)
				// What the node had seen dies with it, for the reference too.
				delete(seen, dir{3 - id, id})
				delete(floors, dir{3 - id, id})
				sim.After(time.Duration(rng.Int63n(int64(10*time.Millisecond))), func() {
					if stride {
						next, _ := l.PortState(id)
						l.Restore(id, next+64, nil)
					}
					net.SetDown(id, false)
				})
			})
		}
		sim.Run()
		// Quiescence: with the faults gone, one frame each way tells both
		// ends every floor, and nothing is left held or pending.
		net.SetFaults(nil)
		for _, from := range []runtime.NodeID{1, 2} {
			l.Send(runtime.Message{From: from, To: 3 - from, Payload: "p", Size: 1})
		}
		sim.Run()
		if st := l.Stats(); st.DedupResidue != 0 || len(l.ports[1].links[2].pending)+len(l.ports[2].links[1].pending) != 0 {
			t.Logf("seed %d: at quiescence residue = %d, pending = %d and %d", seed, st.DedupResidue,
				len(l.ports[1].links[2].pending), len(l.ports[2].links[1].pending))
			ok = false
		}
		gaveUp += l.Stats().GaveUp
		late += abandonedLate
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
	if gaveUp == 0 || late == 0 {
		t.Fatalf("%d give-ups and %d late copies of abandoned frames over all runs: the one permitted difference was never exercised", gaveUp, late)
	}
	t.Logf("%d give-ups, %d late copies suppressed that the explicit set would have delivered", gaveUp, late)
}

// TestDeclaredFrameCostsItsHeaderAndPayload: a data frame around a payload
// no codec carries costs its tag, its encoded header and the size the
// payload declared; a standalone ack costs its encoding.
func TestDeclaredFrameCostsItsHeaderAndPayload(t *testing.T) {
	sim, net, l, _, _ := pair(t, nil, Config{})
	l.Send(simnet.Message{From: 1, To: 2, Payload: "p", Size: 10})
	sim.Run()
	st := net.Stats()
	// Tag, then seq 1, transmission 1, floor 1, and an empty ack (mark,
	// count, echo, transmission, delay): one byte each.
	if got, want := st.BytesByKind["rel-data"], 1+8+10; got != want {
		t.Errorf("data frame charged %d bytes, want %d", got, want)
	}
	// The receiver's ack after the ack delay: tag, floor 1, mark 1, a
	// zero count, echo 1, transmission 1, then 5000 µs in two bytes.
	if st.ByKind["rel-ack"] != 1 || st.BytesByKind["rel-ack"] != 8 {
		t.Errorf("standalone acks: %d sent, %d bytes, want 1 of 8", st.ByKind["rel-ack"], st.BytesByKind["rel-ack"])
	}
}
