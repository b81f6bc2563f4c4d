package core

import (
	"repro/internal/agent"
	"repro/internal/replica"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/wire"
)

// Wire-codec tag for the cluster's own fabric message (DESIGN.md §11).
// Tags are part of the wire format: never renumber.
const tagOutcomeMsg = 30

// wireStateMagic leads an encoded WireState; DecodeWireState refuses
// anything else.
const wireStateMagic = 0xA7

// An OutcomeMsg is the outcome without its Home (the agent's) and Failed
// (only a commit is reported), then the carried COMMIT's updates — none for
// a plain report, since a COMMIT always writes at least one — without its
// Txn (the outcome's agent) or Origin (the sender). The updates decode as
// a CommitMsg body's do, not through the registry: a report cannot nest
// another frame. This layout dates from wire.Version 8.

func init() {
	wire.Register(tagOutcomeMsg, &OutcomeMsg{},
		func(b []byte, v any) []byte {
			m := v.(*OutcomeMsg)
			o := &m.Outcome
			b = agent.AppendID(b, o.Agent)
			b = wire.AppendVarint(b, int64(o.Requests))
			b = wire.AppendVarint(b, int64(o.Dispatched))
			b = wire.AppendVarint(b, int64(o.LockAt))
			b = wire.AppendVarint(b, int64(o.DoneAt))
			b = wire.AppendVarint(b, int64(o.Visits))
			b = wire.AppendBool(b, o.ByTie)
			b = wire.AppendVarint(b, int64(o.Retries))
			b = wire.AppendUvarint(b, uint64(len(o.Shards)))
			for _, s := range o.Shards {
				b = wire.AppendVarint(b, int64(s))
			}
			if m.Commit == nil {
				return wire.AppendUvarint(b, 0)
			}
			b = wire.AppendUvarint(b, uint64(len(m.Commit.Updates)))
			for i := range m.Commit.Updates {
				b = store.AppendUpdate(b, m.Commit.Updates[i])
			}
			return b
		},
		func(r *wire.Reader) any {
			id := agent.DecodeID(r)
			m := &OutcomeMsg{Outcome: Outcome{
				Agent:      id,
				Home:       id.Home,
				Requests:   int(r.Varint()),
				Dispatched: runtime.Time(r.Varint()),
				LockAt:     runtime.Time(r.Varint()),
				DoneAt:     runtime.Time(r.Varint()),
				Visits:     int(r.Varint()),
				ByTie:      r.Bool(),
				Retries:    int(r.Varint()),
			}}
			n := r.Count(1)
			m.Outcome.Shards = make([]int, 0, n)
			for i := 0; i < n; i++ {
				m.Outcome.Shards = append(m.Outcome.Shards, int(r.Varint()))
			}
			if n = r.Count(5); n > 0 {
				m.Commit = &replica.CommitMsg{Txn: id, Updates: make([]store.Update, 0, n)}
				for i := 0; i < n; i++ {
					m.Commit.Updates = append(m.Commit.Updates, store.DecodeUpdate(r))
				}
			}
			return m
		})
}

// AppendWireState appends st in wire-codec form (after the magic byte the
// caller writes), allocation-free on the migration hot path.
func AppendWireState(b []byte, st *WireState) []byte {
	b = wire.AppendUvarint(b, uint64(len(st.Requests)))
	for i := range st.Requests {
		b = wire.AppendString(b, st.Requests[i].Key)
		b = wire.AppendVarint(b, int64(st.Requests[i].Op))
		b = wire.AppendString(b, st.Requests[i].Arg)
	}
	b = wire.AppendUvarint(b, uint64(len(st.USL)))
	for _, id := range st.USL {
		b = wire.AppendVarint(b, int64(id))
	}
	b = wire.AppendUvarint(b, uint64(len(st.Unavailable)))
	for _, id := range st.Unavailable {
		b = wire.AppendVarint(b, int64(id))
	}
	b = wire.AppendVarint(b, int64(st.Visits))
	b = wire.AppendVarint(b, int64(st.Retries))
	b = wire.AppendVarint(b, int64(st.Attempt))
	b = wire.AppendVarint(b, st.Dispatched)
	b = wire.AppendUvarint(b, uint64(len(st.Snapshots)))
	for i := range st.Snapshots {
		b = replica.AppendQueueSnapshot(b, &st.Snapshots[i])
	}
	b = wire.AppendUvarint(b, uint64(len(st.Gone)))
	for _, id := range st.Gone {
		b = agent.AppendID(b, id)
	}
	b = agent.AppendWatermarks(b, st.Marks)
	b = wire.AppendUvarint(b, uint64(len(st.Visited)))
	for i := range st.Visited {
		v := &st.Visited[i]
		b = wire.AppendVarint(b, int64(v.Server))
		b = wire.AppendVarint(b, int64(v.Shard))
		b = wire.AppendUvarint(b, v.Epoch)
		b = wire.AppendUvarint(b, v.Version)
	}
	b = wire.AppendUvarint(b, uint64(len(st.Floors)))
	for i := range st.Floors {
		b = replica.AppendQueueSnapshot(b, &st.Floors[i])
	}
	return b
}

// DecodeWireStateInto reads a state written by AppendWireState into *st,
// reusing every slice already hanging off it — the zero-allocation decode
// path the migration benchmarks gate on. It refuses snapshots, visit marks
// and floors that are not strictly ascending by (shard, server).
func DecodeWireStateInto(st *WireState, r *wire.Reader) error {
	n := r.Count(3)
	st.Requests = wire.Grow(st.Requests, n)
	for i := 0; i < n; i++ {
		st.Requests[i] = Request{Key: r.String(), Op: Op(r.Varint()), Arg: r.String()}
	}
	n = r.Count(1)
	st.USL = wire.Grow(st.USL, n)
	for i := 0; i < n; i++ {
		st.USL[i] = runtime.NodeID(r.Varint())
	}
	n = r.Count(1)
	st.Unavailable = wire.Grow(st.Unavailable, n)
	for i := 0; i < n; i++ {
		st.Unavailable[i] = runtime.NodeID(r.Varint())
	}
	st.Visits = int(r.Varint())
	st.Retries = int(r.Varint())
	st.Attempt = int(r.Varint())
	st.Dispatched = r.Varint()
	n = r.Count(6)
	st.Snapshots = wire.Grow(st.Snapshots, n)
	for i := 0; i < n; i++ {
		replica.DecodeQueueSnapshotInto(&st.Snapshots[i], r)
	}
	ascending(r, n, func(i int) snapKey { return snapKey{st.Snapshots[i].Shard, st.Snapshots[i].Server} }, "snapshots")
	n = r.Count(3)
	st.Gone = wire.Grow(st.Gone, n)
	for i := 0; i < n; i++ {
		st.Gone[i] = agent.DecodeID(r)
	}
	st.Marks = agent.DecodeWatermarksInto(st.Marks, r)
	n = r.Count(4)
	st.Visited = wire.Grow(st.Visited, n)
	for i := 0; i < n; i++ {
		st.Visited[i] = VisitMark{
			Server:  runtime.NodeID(r.Varint()),
			Shard:   int(r.Varint()),
			Epoch:   r.Uvarint(),
			Version: r.Uvarint(),
		}
	}
	ascending(r, n, func(i int) snapKey { return snapKey{st.Visited[i].Shard, st.Visited[i].Server} }, "visit marks")
	n = r.Count(6)
	st.Floors = wire.Grow(st.Floors, n)
	for i := 0; i < n; i++ {
		replica.DecodeQueueSnapshotInto(&st.Floors[i], r)
	}
	ascending(r, n, func(i int) snapKey { return snapKey{st.Floors[i].Shard, st.Floors[i].Server} }, "floors")
	return r.Finish()
}

// ascending refuses, through r's sticky error, a list whose n keys do not
// rise strictly by (shard, server): the lock table adopts its three lists
// as decoded, and keeps each in that order with one entry per list.
func ascending(r *wire.Reader, n int, key func(int) snapKey, what string) {
	for i := 1; i < n && r.Err() == nil; i++ {
		if key(i-1).compare(key(i)) >= 0 {
			r.Fail(what + " not strictly ascending by (shard, server)")
		}
	}
}
