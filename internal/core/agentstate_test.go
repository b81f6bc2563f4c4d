package core

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/simnet"
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

func TestAgentWireSizeTracksItsEncoding(t *testing.T) {
	// On the simulated fabric an agent migrates as a pointer no codec
	// carries, so its migration declares WireSize() bytes, a model that
	// was calibrated against gob and states about ten times what the wire
	// codec encodes (a two-visit agent: 488 declared, 50 encoded). The
	// band keeps the declaration from falling below the agent's encoding
	// (a live migration's MarshalWire) or drifting further above it.
	c := newTestCluster(t, Config{N: 5}, simEnv{seed: 75})
	ua := captureTravellingAgent(t, c)
	enc, err := ua.MarshalWire()
	if err != nil {
		t.Fatal(err)
	}
	declared := ua.WireSize()
	if ratio := float64(declared) / float64(len(enc)); ratio < 1 || ratio > 16 {
		t.Fatalf("declared %dB vs encoded %dB (ratio %.2f): the declaration is out of calibration", declared, len(enc), ratio)
	}
}

// gobStream is encoding/gob's stream for a small struct named WireState
// (Visits 3, USL [2 4]), the encoding agent state travelled in before the
// wire codec.
var gobStream = []byte{
	0x2a, 0x7f, 0x3, 0x1, 0x1, 0x9, 0x57, 0x69, 0x72, 0x65, 0x53, 0x74, 0x61, 0x74, 0x65, 0x1,
	0xff, 0x80, 0x0, 0x1, 0x2, 0x1, 0x6, 0x56, 0x69, 0x73, 0x69, 0x74, 0x73, 0x1, 0x4, 0x0,
	0x1, 0x3, 0x55, 0x53, 0x4c, 0x1, 0xff, 0x82, 0x0, 0x0, 0x0, 0x13, 0xff, 0x81, 0x2, 0x1,
	0x1, 0x5, 0x5b, 0x5d, 0x69, 0x6e, 0x74, 0x1, 0xff, 0x82, 0x0, 0x1, 0x4, 0x0, 0x0, 0x9,
	0xff, 0x80, 0x1, 0x6, 0x1, 0x2, 0x4, 0x8, 0x0,
}

// TestDecodeWireStateRefusesForeignBytes: agent state arrives off the
// network, so anything that is not the wire codec's own format is an error
// — in particular a gob stream, which used to be handed to encoding/gob.
// So is a lock table whose lists are not strictly ascending by (shard,
// server): a thaw adopts them as decoded.
func TestDecodeWireStateRefusesForeignBytes(t *testing.T) {
	unsorted := func(mutate func(*WireState)) []byte {
		st := benchState()
		mutate(&st)
		data, _ := st.Encode()
		return data
	}
	for name, data := range map[string][]byte{
		"gob-encoded state":  gobStream,
		"empty":              nil,
		"magic then garbage": {wireStateMagic, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x02},
		"magic alone":        {wireStateMagic},
		"snapshots out of order": unsorted(func(st *WireState) {
			st.Snapshots[0], st.Snapshots[1] = st.Snapshots[1], st.Snapshots[0]
		}),
		"a snapshot twice":         unsorted(func(st *WireState) { st.Snapshots[1] = st.Snapshots[0] }),
		"visit marks out of order": unsorted(func(st *WireState) { st.Visited[0], st.Visited[1] = st.Visited[1], st.Visited[0] }),
		"a visit mark twice":       unsorted(func(st *WireState) { st.Visited[1].Server = st.Visited[0].Server }),
		"a floor twice":            unsorted(func(st *WireState) { st.Floors = append(st.Floors, st.Floors[0]) }),
	} {
		if _, err := DecodeWireState(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	if _, err := DecodeWireState(unsorted(func(*WireState) {})); err != nil {
		t.Fatalf("an ascending state is refused: %v", err)
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

// FuzzThawWireState feeds arbitrary bytes through DecodeWireState and, when
// they decode, through the adopting thaw a wire migration uses, on a
// 5-node, 2-shard cluster. Properties: nothing panics, and the thawed
// table's snapshots, visit marks and floors are strictly ascending by
// (shard, server) — the order every lookup in the table relies on.
func FuzzThawWireState(f *testing.F) {
	c, err := newSimCluster(Config{N: 5, Shards: 2})
	if err != nil {
		f.Fatal(err)
	}
	st := benchState()
	seed, _ := st.Encode()
	f.Add(seed)
	f.Add(gobStream)
	st.Snapshots[0], st.Snapshots[1] = st.Snapshots[1], st.Snapshots[0]
	unsorted, _ := st.Encode()
	f.Add(unsorted)
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeWireState(data)
		if err != nil {
			return // refused: fine
		}
		a := thaw(c.Cluster, st)
		rising := func(what string, n int, key func(int) snapKey) {
			for i := 1; i < n; i++ {
				if key(i-1).compare(key(i)) >= 0 {
					t.Fatalf("thawed %s not strictly ascending at %d of %d", what, i, n)
				}
			}
		}
		lt := a.lt
		rising("snapshots", len(lt.snaps), func(i int) snapKey { return snapKey{lt.snaps[i].Shard, lt.snaps[i].Server} })
		rising("visit marks", len(lt.visited), func(i int) snapKey { return snapKey{lt.visited[i].Shard, lt.visited[i].Server} })
		rising("floors", len(lt.floors), func(i int) snapKey { return snapKey{lt.floors[i].Shard, lt.floors[i].Server} })
		a.Freeze()
	})
}
