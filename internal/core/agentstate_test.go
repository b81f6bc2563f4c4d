package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/replica"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// captureTravellingAgent runs a contended cluster until some agent has
// visited at least two servers and is not mid-claim, then returns it.
func captureTravellingAgent(t *testing.T, c *testCluster) *UpdateAgent {
	t.Helper()
	for i := 1; i <= 5; i++ {
		if err := c.Submit(simnet.NodeID(i), Set("k", "v")); err != nil {
			t.Fatal(err)
		}
	}
	for steps := 0; steps < 100000; steps++ {
		if !c.Sim().Step() {
			break
		}
		for _, ua := range c.active {
			if ua.visits >= 2 && (ua.phase == phaseTravelling || ua.phase == phaseParked) {
				return ua
			}
		}
	}
	t.Fatal("no travelling agent with >= 2 visits found")
	return nil
}

func TestAgentStateGobRoundTrip(t *testing.T) {
	c := newTestCluster(t, Config{N: 5}, simEnv{seed: 71})
	ua := captureTravellingAgent(t, c)
	st := ua.Freeze()

	data, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty encoding")
	}
	back, err := DecodeWireState(data)
	if err != nil {
		t.Fatal(err)
	}
	// Decoding collapses empty slices to nil, so compare by re-encoding
	// rather than structural equality.
	data2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(data, data2) {
		t.Fatalf("round trip changed state:\nbefore %+v\nafter  %+v", st, back)
	}
	if len(back.Snapshots) != len(st.Snapshots) || back.Visits != st.Visits || len(back.USL) != len(st.USL) {
		t.Fatalf("content differs: %+v vs %+v", st, back)
	}
}

func TestThawPreservesProtocolState(t *testing.T) {
	c := newTestCluster(t, Config{N: 5}, simEnv{seed: 73})
	ua := captureTravellingAgent(t, c)
	st := ua.Freeze()

	// Thaw at a second cluster instance (the receiving process).
	c2 := newTestCluster(t, Config{N: 5}, simEnv{seed: 73})
	ua2 := Thaw(c2.Cluster, st)

	if ua2.visits != ua.visits || ua2.retries != ua.retries || ua2.attempt != ua.attempt {
		t.Fatalf("counters differ: %d/%d/%d vs %d/%d/%d",
			ua2.visits, ua2.retries, ua2.attempt, ua.visits, ua.retries, ua.attempt)
	}
	if !reflect.DeepEqual(ua2.usl, ua.usl) {
		t.Fatalf("USL differs: %v vs %v", ua2.usl, ua.usl)
	}
	// The thawed lock table reaches the same conclusions.
	self := agentID(999)
	d1, d2 := ua.lt.Decide(self), ua2.lt.Decide(self)
	if d1 != d2 {
		t.Fatalf("decisions differ: %+v vs %+v", d1, d2)
	}
	for s := 1; s <= 5; s++ {
		h1, ok1 := ua.lt.Head(simnet.NodeID(s))
		h2, ok2 := ua2.lt.Head(simnet.NodeID(s))
		if h1 != h2 || ok1 != ok2 {
			t.Fatalf("head of %d differs: %v/%v vs %v/%v", s, h1, ok1, h2, ok2)
		}
	}
	if !reflect.DeepEqual(ua2.Freeze(), st) {
		t.Fatal("freeze(thaw(state)) != state")
	}
}

func TestModelledWireSizeTracksRealEncoding(t *testing.T) {
	// The simulator charges WireSize() bytes per migration; the gob
	// encoding the model was calibrated against must stay the same order
	// of magnitude, or the traffic accounting in every figure would be
	// fiction. (The model deliberately stays on the gob-era calibration —
	// recalibrating to the wire codec would change every DES figure's
	// byte counts and break cross-version comparability.)
	c := newTestCluster(t, Config{N: 5}, simEnv{seed: 75})
	ua := captureTravellingAgent(t, c)
	st := ua.Freeze()
	gobData := gobEncode(t, st)
	modelled := ua.WireSize()
	real := len(gobData)
	ratio := float64(real) / float64(modelled)
	if ratio < 0.2 || ratio > 5 {
		t.Fatalf("modelled %dB vs real gob %dB (ratio %.2f) — model out of calibration", modelled, real, ratio)
	}
	// The wire codec replaced gob for being smaller; it must stay so.
	wireData, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(wireData) >= len(gobData) {
		t.Fatalf("wire encoding %dB not smaller than gob %dB", len(wireData), len(gobData))
	}

	// A multi-shard anti-entropy reply — the committed logs of a 16-shard
	// cluster and a server's gone set, as one reply carries them — is
	// charged within the same band of its wire encoding, and a one-shard
	// reply keeps the unsharded protocol's 32 + 96/update + gone.
	sc := newTestCluster(t, Config{N: 5, Shards: 16}, simEnv{seed: 75})
	submitMany(t, sc, 4)
	finishRun(t, sc)
	reply := &replica.SyncReply{From: 1, Gone: sc.Server(1).Gone()}
	for sh := 0; sh < 16; sh++ {
		if ups := sc.Server(1).StoreOf(sh).UpdatesSince(0); len(ups) > 0 {
			reply.Sections = append(reply.Sections, replica.SyncSection{Shard: sh, Updates: ups})
		}
	}
	if len(reply.Sections) < 4 {
		t.Fatalf("reply has %d sections, want several", len(reply.Sections))
	}
	enc, err := wire.AppendMessage(nil, reply)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(len(enc)) / float64(reply.WireSize()); ratio < 0.2 || ratio > 5 {
		t.Fatalf("%d-section sync reply: modelled %dB vs wire %dB (ratio %.2f)", len(reply.Sections), reply.WireSize(), len(enc), ratio)
	}
	one := replica.SyncReply{Sections: reply.Sections[:1], Gone: reply.Gone}
	if want := 32 + 96*len(one.Sections[0].Updates) + agent.GoneWireSize(nil, one.Gone); one.WireSize() != want {
		t.Fatalf("one-shard sync reply modelled at %dB, want %dB", one.WireSize(), want)
	}
}

// gobEncode is the encoding WireSize() was calibrated against; no product
// code speaks it any more.
func gobEncode(t *testing.T, st WireState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeWireStateRefusesForeignBytes: agent state arrives off the
// network, so anything that is not the wire codec's own format is an error
// — in particular a gob stream, which used to be handed to encoding/gob.
func TestDecodeWireStateRefusesForeignBytes(t *testing.T) {
	for name, data := range map[string][]byte{
		"gob-encoded state":  gobEncode(t, benchState()),
		"empty":              nil,
		"magic then garbage": {wireStateMagic, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x02},
		"magic alone":        {wireStateMagic},
	} {
		if _, err := DecodeWireState(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestFrozenStateIsDeterministic(t *testing.T) {
	c := newTestCluster(t, Config{N: 5}, simEnv{seed: 77})
	ua := captureTravellingAgent(t, c)
	a, err := ua.Freeze().Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ua.Freeze().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two freezes of the same agent encode differently")
	}
}

func TestThawedAgentCanFinishTheProtocol(t *testing.T) {
	// End-to-end: freeze a travelling agent, discard it, thaw the state
	// into a fresh cluster (same seed, so the same world), spawn it, and
	// let it commit.
	c := newTestCluster(t, Config{N: 3}, simEnv{seed: 79})
	if err := c.Submit(1, Set("x", "v")); err != nil {
		t.Fatal(err)
	}
	var ua *UpdateAgent
	for _, cand := range c.active {
		if cand.visits >= 1 && cand.phase == phaseTravelling {
			ua = cand
		}
	}
	if ua == nil {
		t.Fatal("no agent captured")
	}
	st := ua.Freeze()

	// A brand new "process": same configuration, fresh servers.
	c2 := newTestCluster(t, Config{N: 3}, simEnv{seed: 79})
	ua2 := Thaw(c2.Cluster, st)
	c2.outstanding++
	ctx := c2.platform.Spawn(1, ua2)
	if ua2.phase != phaseDone {
		c2.active[ctx.ID()] = ua2
	}
	if err := c2.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	c2.Settle(time.Second)
	if v, ok := c2.Read(2, "x"); !ok || v.Data != "v" {
		t.Fatalf("thawed agent's update missing: %+v %v", v, ok)
	}
}
