package core

import (
	"fmt"
	"slices"

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
// mid-claim. The lock table's lists are handed out, not copied (the table
// copies before its next write).
func (a *UpdateAgent) Freeze() WireState {
	st := WireState{
		Requests:   append([]Request(nil), a.reqs...),
		USL:        append([]runtime.NodeID(nil), a.usl...),
		Visits:     a.visits,
		Retries:    a.retries,
		Attempt:    a.attempt,
		Dispatched: int64(a.dispatched),
	}
	for i, id := range a.targets {
		if a.per[i].unavailable {
			st.Unavailable = append(st.Unavailable, id)
		}
	}
	st.Snapshots, st.Visited, st.Floors = a.lt.lists()
	st.Marks, st.Gone = a.lt.gone.Export()
	return st
}

// Thaw reconstructs an UpdateAgent from a frozen state at a (possibly
// different) cluster instance — the receiving end of a cross-process
// migration. The agent resumes in the travelling phase; its next OnArrive
// continues Algorithm 1 where the frozen agent left off. The state's
// snapshots, visit marks and floors must be strictly ascending by (shard,
// server), as Freeze and DecodeWireState leave them; Thaw copies them, so
// the caller may go on using st (or decode into it again).
func Thaw(c *Cluster, st WireState) *UpdateAgent {
	st.Requests = slices.Clone(st.Requests)
	st.USL = slices.Clone(st.USL)
	st.Snapshots = slices.Clone(st.Snapshots)
	st.Visited = slices.Clone(st.Visited)
	st.Floors = slices.Clone(st.Floors)
	return thaw(c, st)
}

// thaw is Thaw without the copies: the agent takes over st's slices, so
// the caller must hold none of them — a state DecodeWireState just built.
func thaw(c *Cluster, st WireState) *UpdateAgent {
	shards := c.shardsOf(st.Requests)
	targets := c.groupUnion(shards)
	a := &UpdateAgent{
		c:          c,
		reqs:       st.Requests,
		lt:         c.lockTableFor(shards),
		shards:     shards,
		targets:    targets,
		usl:        st.USL,
		per:        make([]targetState, len(targets)),
		visits:     st.Visits,
		retries:    st.Retries,
		attempt:    st.Attempt,
		dispatched: runtime.Time(st.Dispatched),
	}
	for _, id := range st.Unavailable {
		if t := a.at(id); t != nil {
			t.unavailable = true
		}
	}
	a.lt.adopt(st.Snapshots, st.Visited, st.Floors)
	a.lt.MergeGone(st.Marks, st.Gone)
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
