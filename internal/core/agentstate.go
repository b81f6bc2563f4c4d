package core

import (
	"fmt"
	"sort"

	"repro/internal/agent"
	"repro/internal/replica"
	"repro/internal/runtime"
	"repro/internal/wire"
)

// WireState is the serializable form of an UpdateAgent's protocol state —
// what actually crosses the wire when the agent migrates between hosts in a
// multi-process deployment. It substantiates the repository's central
// substitution argument (DESIGN.md): Go has no code mobility, but the MARP
// agent never needs any — everything Algorithm 1 requires is plain data
// (the Request List, the Un-visited Servers List, the Locking Table, the
// Updated Agents List, counters), and all of it survives an encoding round
// trip. Only the behaviour code stays put, identical at every host, exactly
// as the Aglets class files were pre-installed on every Tahiti server of
// the paper's prototype.
type WireState struct {
	Requests    []Request
	USL         []runtime.NodeID
	Unavailable []runtime.NodeID
	Visits      int
	Retries     int
	Attempt     int
	Dispatched  int64

	Snapshots []replica.QueueSnapshot
	// The Updated Agents List as a bounded summary (agent.GoneSet): per-home
	// watermarks plus the residue of individual IDs none of them covers yet.
	Gone    []agent.ID
	Marks   []agent.Watermark
	Visited []VisitMark
	Floors  []replica.QueueSnapshot
}

// VisitMark records where (and at which snapshot position) the agent
// enqueued itself by visiting.
type VisitMark struct {
	Server  runtime.NodeID
	Shard   int
	Epoch   uint64
	Version uint64
}

// Freeze captures the agent's migratable protocol state. The agent must be
// quiescent (travelling or parked): claim-phase bookkeeping is deliberately
// not serialized, matching the protocol, in which an agent never migrates
// mid-claim.
func (a *UpdateAgent) Freeze() WireState {
	st := WireState{
		Requests:   append([]Request(nil), a.reqs...),
		USL:        append([]runtime.NodeID(nil), a.usl...),
		Visits:     a.visits,
		Retries:    a.retries,
		Attempt:    a.attempt,
		Dispatched: int64(a.dispatched),
	}
	for id := range a.unavailable {
		st.Unavailable = append(st.Unavailable, id)
	}
	sort.Slice(st.Unavailable, func(i, j int) bool { return st.Unavailable[i] < st.Unavailable[j] })
	for _, snap := range a.lt.snaps {
		st.Snapshots = append(st.Snapshots, snap.Clone())
	}
	sort.Slice(st.Snapshots, func(i, j int) bool {
		a, b := st.Snapshots[i], st.Snapshots[j]
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Server < b.Server
	})
	st.Marks, st.Gone = a.lt.gone.Export()
	for k, mark := range a.lt.visitMark {
		st.Visited = append(st.Visited, VisitMark{Server: k.server, Shard: k.shard, Epoch: mark.epoch, Version: mark.version})
	}
	sort.Slice(st.Visited, func(i, j int) bool {
		a, b := st.Visited[i], st.Visited[j]
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Server < b.Server
	})
	for _, f := range a.lt.floor {
		st.Floors = append(st.Floors, f)
	}
	sort.Slice(st.Floors, func(i, j int) bool {
		a, b := st.Floors[i], st.Floors[j]
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Server < b.Server
	})
	return st
}

// Thaw reconstructs an UpdateAgent from a frozen state at a (possibly
// different) cluster instance — the receiving end of a cross-process
// migration. The agent resumes in the travelling phase; its next OnArrive
// continues Algorithm 1 where the frozen agent left off.
func Thaw(c *Cluster, st WireState) *UpdateAgent {
	shards := c.shardsOf(st.Requests)
	a := &UpdateAgent{
		c:           c,
		reqs:        append([]Request(nil), st.Requests...),
		lt:          c.lockTableFor(shards),
		shards:      shards,
		targets:     c.groupUnion(shards),
		usl:         append([]runtime.NodeID(nil), st.USL...),
		unavailable: make(map[runtime.NodeID]bool, len(st.Unavailable)),
		attempts:    make(map[runtime.NodeID]int),
		visits:      st.Visits,
		retries:     st.Retries,
		attempt:     st.Attempt,
		dispatched:  runtime.Time(st.Dispatched),
	}
	for _, id := range st.Unavailable {
		a.unavailable[id] = true
	}
	for _, f := range st.Floors {
		a.lt.floor[snapKey{shard: f.Shard, server: f.Server}] = f
	}
	for _, snap := range st.Snapshots {
		a.lt.MergeSnapshot(snap)
	}
	a.lt.MergeGone(st.Marks, st.Gone)
	for _, m := range st.Visited {
		a.lt.visitMark[snapKey{shard: m.Shard, server: m.Server}] = visitMark{epoch: m.Epoch, version: m.Version}
	}
	return a
}

// Encode serializes the state with the hand-rolled wire codec, returning
// the wire bytes behind the wireStateMagic byte.
func (st WireState) Encode() ([]byte, error) {
	buf := make([]byte, 1, 256)
	buf[0] = wireStateMagic
	return AppendWireState(buf, &st), nil
}

// DecodeWireState deserializes wire bytes produced by Encode. Anything that
// does not start with wireStateMagic is refused: the bytes come off the
// network, and no other decoder is pointed at them.
func DecodeWireState(data []byte) (WireState, error) {
	if len(data) == 0 || data[0] != wireStateMagic {
		return WireState{}, fmt.Errorf("core: decoding agent state: missing magic byte 0x%X", wireStateMagic)
	}
	var st WireState
	if err := DecodeWireStateInto(&st, wire.NewReader(data[1:])); err != nil {
		return WireState{}, fmt.Errorf("core: decoding agent state: %w", err)
	}
	return st, nil
}

// MarshalWire implements agent.WireBehavior: over a serializing fabric the
// agent travels as its encoded WireState, and the destination cluster's
// thawWire hook rebinds it (the same freeze/thaw path regeneration uses).
func (a *UpdateAgent) MarshalWire() ([]byte, error) {
	return a.Freeze().Encode()
}
