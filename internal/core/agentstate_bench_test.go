package core

import (
	"testing"

	"repro/internal/agent"
	"repro/internal/replica"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// benchState is a representative migrating-agent state: a few requests, a
// partially filled locking table over a handful of shards, some gone
// knowledge — the shape the live fabric encodes on every hop.
func benchState() WireState {
	id := func(h, s int) agent.ID {
		return agent.ID{Home: runtime.NodeID(h), Born: int64(1000 * s), Seq: uint64(s)}
	}
	snap := func(server, shard, version int) replica.QueueSnapshot {
		return replica.QueueSnapshot{
			Server: runtime.NodeID(server), Shard: shard, Epoch: 1,
			Version: uint64(version), HeadVersion: uint64(version - 1),
			Queue: []agent.ID{id(1, 7), id(2, 9), id(3, 11)},
		}
	}
	return WireState{
		Requests:    []Request{{Key: "user:42", Op: OpSet, Arg: "payload-value"}, {Key: "user:43", Op: OpAppend, Arg: "x"}},
		USL:         []runtime.NodeID{2, 3},
		Unavailable: []runtime.NodeID{5},
		Visits:      4, Retries: 1, Attempt: 2, Dispatched: 123456,
		Snapshots: []replica.QueueSnapshot{snap(1, 0, 4), snap(2, 0, 6), snap(3, 1, 2)},
		Gone:      []agent.ID{id(4, 2), id(5, 3)},
		Marks:     []agent.Watermark{{Home: 1, Upto: agent.After(id(1, 6))}, {Home: 2, Since: 5000, Upto: agent.After(id(2, 8))}, {Home: 3, Upto: agent.After(id(3, 10))}},
		Visited:   []VisitMark{{Server: 1, Shard: 0, Epoch: 1, Version: 4}, {Server: 2, Shard: 0, Epoch: 1, Version: 6}},
		Floors:    []replica.QueueSnapshot{snap(1, 0, 3)},
	}
}

// BenchmarkEncodeWireState gates the zero-allocation encode path: appending
// into a reused buffer must not allocate at steady state.
func BenchmarkEncodeWireState(b *testing.B) {
	st := benchState()
	buf := AppendWireState(nil, &st)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendWireState(buf[:0], &st)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		buf = AppendWireState(buf[:0], &st)
	}); allocs != 0 {
		b.Fatalf("encode allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkDecodeWireState gates the decode path: decoding into a reused
// state allocates at steady state only the strings it decodes, one each
// (none for a string of one byte or none, which Go does not allocate).
func BenchmarkDecodeWireState(b *testing.B) {
	st := benchState()
	data := AppendWireState(nil, &st)
	strs := 0
	for _, q := range st.Requests {
		for _, s := range []string{q.Key, q.Arg} {
			if len(s) > 1 {
				strs++
			}
		}
	}
	var into WireState
	r := wire.NewReader(data)
	if err := DecodeWireStateInto(&into, r); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Reset(data)
		if err := DecodeWireStateInto(&into, r); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(1000, func() {
		r.Reset(data)
		if err := DecodeWireStateInto(&into, r); err != nil {
			b.Fatal(err)
		}
	}); allocs != float64(strs) {
		b.Fatalf("decode allocates %.1f allocs/op, want %d (its strings)", allocs, strs)
	}
}

// BenchmarkAgentHop is one live-shaped migration of benchState's agent, end
// to end but for the network: freeze and encode it (MarshalWire), then
// decode and thaw it at the destination (the cluster's thawWire hook). The
// thaw adopts the decoded lists, so what is left is the fresh decode and
// the agent's own construction; the benchmark fails above maxHopAllocs.
func BenchmarkAgentHop(b *testing.B) {
	const maxHopAllocs = 30
	c, err := newSimCluster(Config{N: 5, Shards: 2})
	if err != nil {
		b.Fatal(err)
	}
	id := agent.ID{Home: 1, Born: 1, Seq: 1}
	var a agent.Behavior = Thaw(c.Cluster, benchState())
	hop := func() {
		data, err := a.(agent.WireBehavior).MarshalWire()
		if err != nil {
			b.Fatal(err)
		}
		if a, err = c.thawWire(id, data); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		hop()
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(100, hop); allocs > maxHopAllocs {
		b.Fatalf("a hop allocates %.1f objects, want at most %d", allocs, maxHopAllocs)
	}
}
