package wire_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/des"
	"repro/internal/optimistic"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// chargedMessages is one message of every registered kind: the corpus, an
// optimistic reconciliation agent, and the reliable layer's two frames,
// which are package-private and so are decoded from their bytes.
func chargedMessages(t *testing.T) []any {
	t.Helper()
	msgs := append(corpusMessages(), &optimistic.Recon{
		From: 1, Seq: 2, Hops: []runtime.NodeID{2, 3},
		Carry: [][]optimistic.Action{{{Origin: 1, OSeq: 1, Stamp: 5, Key: "k", Data: "v"}}},
	})
	ball, err := wire.AppendMessage(nil, &agent.MigrateAck{ID: agent.ID{Home: 2, Born: 7, Seq: 1}, Hop: 3})
	if err != nil {
		t.Fatal(err)
	}
	frames := [][]byte{
		// data frame: seq 4, transmission 1, floor 2, ack of mark 3 with
		// 5 and 7 above it, echoing frame 7's second copy after 250 µs;
		// then the nested payload.
		append([]byte{40, 4, 1, 2, 3, 2, 5, 7, 7, 2, 0xfa, 0x01}, ball...),
		// standalone ack: floor 9, ack of mark 12 with nothing above.
		{41, 9, 12, 0, 0, 0, 0},
	}
	for _, b := range frames {
		m, err := wire.DecodeMessage(wire.NewReader(b))
		if err != nil {
			t.Fatalf("frame % x: %v", b, err)
		}
		msgs = append(msgs, m)
	}
	return msgs
}

// TestChargedBytesAreEncodedBytes: both fabrics charge every message the
// length of its tagged wire encoding, for every registered kind — so the
// simulator's byte figures are the bytes a live node sends.
func TestChargedBytesAreEncodedBytes(t *testing.T) {
	msgs := chargedMessages(t)
	want := make(map[string]int)
	sampled := make(map[byte]bool)
	for _, m := range msgs {
		b, err := wire.AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		sampled[b[0]] = true
		want[m.(runtime.Kinder).Kind()] += len(b)
		if n := wire.Size(m); n != len(b) {
			t.Errorf("%T: wire.Size %d, encoding %d bytes", m, n, len(b))
		}
	}
	for tag := 0; tag < 256; tag++ {
		_, err := wire.DecodeMessage(wire.NewReader([]byte{byte(tag)}))
		if !errors.Is(err, wire.ErrUnknownTag) && !sampled[byte(tag)] {
			t.Errorf("registered tag %d has no message in the sample", tag)
		}
	}

	check := func(fabric string, got map[string]int) {
		t.Helper()
		for kind, n := range want {
			if got[kind] != n {
				t.Errorf("%s: %s charged %d bytes, encoded %d", fabric, kind, got[kind], n)
			}
		}
		for kind, n := range got {
			if _, ok := want[kind]; !ok {
				t.Errorf("%s: %s charged %d bytes, nothing of that kind was sent", fabric, kind, n)
			}
		}
	}

	sim := des.New(1)
	sn := simnet.New(sim, simnet.FullMesh(2), simnet.Constant(time.Millisecond))
	sn.Attach(1, runtime.HandlerFunc(func(runtime.Message) {}))
	sn.Attach(2, runtime.HandlerFunc(func(runtime.Message) {}))
	for _, m := range msgs {
		sn.Send(runtime.Message{From: 1, To: 2, Payload: m})
	}
	for sim.Step() {
	}
	check("simnet", sn.Stats().BytesByKind)

	addrs, err := live.ReserveAddrs(2)
	if err != nil {
		t.Fatal(err)
	}
	delivered := make(chan struct{}, len(msgs))
	var fabs [2]*live.Fabric
	for i := range fabs {
		eng := live.NewEngine(int64(i))
		defer eng.Close()
		f, err := live.NewFabric(eng, runtime.NodeID(i+1), addrs)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		f.Attach(runtime.NodeID(i+1), runtime.HandlerFunc(func(runtime.Message) { delivered <- struct{}{} }))
		fabs[i] = f
	}
	for _, m := range msgs {
		fabs[0].Send(runtime.Message{From: 1, To: 2, Payload: m})
	}
	for range msgs {
		select {
		case <-delivered:
		case <-time.After(5 * time.Second):
			t.Fatal("a frame never arrived at the live peer")
		}
	}
	check("live", fabs[0].NetStats().BytesByKind)
}
