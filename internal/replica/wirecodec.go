package replica

import (
	"sort"

	"repro/internal/agent"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/wire"
)

// Wire-codec tags for the Algorithm 2 message set (DESIGN.md §11). Tags
// are part of the wire format: never renumber. Tag 18 is retired (it
// encoded LLChanged, a local event no fabric ever sent): never reuse it.
const (
	tagUpdateMsg   = 10
	tagAckMsg      = 11
	tagCommitMsg   = 12
	tagAbortMsg    = 13
	tagReadReq     = 14
	tagReadRep     = 15
	tagSyncRequest = 16
	tagSyncReply   = 17
)

func init() {
	wire.Register(tagUpdateMsg, &UpdateMsg{}, encUpdateMsg, decUpdateMsg)
	wire.Register(tagAckMsg, &AckMsg{}, encAckMsg, decAckMsg)
	wire.Register(tagCommitMsg, &CommitMsg{}, encCommitMsg, decCommitMsg)
	wire.Register(tagAbortMsg, &AbortMsg{},
		func(b []byte, v any) []byte {
			m := v.(*AbortMsg)
			b = agent.AppendID(b, m.Txn)
			return wire.AppendVarint(b, int64(m.Attempt))
		},
		func(r *wire.Reader) any {
			return &AbortMsg{Txn: agent.DecodeID(r), Attempt: int(r.Varint())}
		})
	wire.Register(tagReadReq, &ReadReq{},
		func(b []byte, v any) []byte {
			m := v.(*ReadReq)
			b = wire.AppendUvarint(b, m.ReqID)
			b = wire.AppendVarint(b, int64(m.From))
			return wire.AppendString(b, m.Key)
		},
		func(r *wire.Reader) any {
			return &ReadReq{ReqID: r.Uvarint(), From: runtime.NodeID(r.Varint()), Key: r.String()}
		})
	wire.Register(tagReadRep, &ReadRep{},
		func(b []byte, v any) []byte {
			m := v.(*ReadRep)
			b = wire.AppendUvarint(b, m.ReqID)
			b = wire.AppendVarint(b, int64(m.From))
			b = wire.AppendBool(b, m.Found)
			return appendValue(b, m.Value)
		},
		func(r *wire.Reader) any {
			return &ReadRep{ReqID: r.Uvarint(), From: runtime.NodeID(r.Varint()), Found: r.Bool(), Value: decodeValue(r)}
		})
	wire.Register(tagSyncRequest, &SyncRequest{}, encSyncRequest, decSyncRequest)
	wire.Register(tagSyncReply, &SyncReply{}, encSyncReply, decSyncReply)
}

func encUpdateMsg(b []byte, v any) []byte {
	m := v.(*UpdateMsg)
	b = agent.AppendID(b, m.Txn)
	b = wire.AppendVarint(b, int64(m.Attempt))
	b = wire.AppendVarint(b, int64(m.Origin))
	b = wire.AppendUvarint(b, uint64(len(m.Keys)))
	for _, k := range m.Keys {
		b = wire.AppendString(b, k)
	}
	b = wire.AppendUvarint(b, uint64(len(m.Shards)))
	for _, s := range m.Shards {
		b = wire.AppendVarint(b, int64(s))
	}
	b = wire.AppendBool(b, m.ByTie)
	b = wire.AppendUvarint(b, uint64(len(m.Evidence)))
	nodes := make([]runtime.NodeID, 0, len(m.Evidence))
	for id := range m.Evidence {
		nodes = append(nodes, id)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, id := range nodes {
		b = wire.AppendVarint(b, int64(id))
		b = wire.AppendUvarint(b, m.Evidence[id])
	}
	return b
}

func decUpdateMsg(r *wire.Reader) any {
	m := &UpdateMsg{Txn: agent.DecodeID(r), Attempt: int(r.Varint()), Origin: runtime.NodeID(r.Varint())}
	n := r.Count(1)
	m.Keys = make([]string, 0, n)
	for i := 0; i < n; i++ {
		m.Keys = append(m.Keys, r.String())
	}
	n = r.Count(1)
	m.Shards = make([]int, 0, n)
	for i := 0; i < n; i++ {
		m.Shards = append(m.Shards, int(r.Varint()))
	}
	m.ByTie = r.Bool()
	if n = r.Count(2); n > 0 {
		m.Evidence = make(map[runtime.NodeID]uint64, n)
		for i := 0; i < n; i++ {
			id := runtime.NodeID(r.Varint())
			m.Evidence[id] = r.Uvarint()
		}
	}
	return m
}

func encAckMsg(b []byte, v any) []byte {
	m := v.(*AckMsg)
	b = agent.AppendID(b, m.Txn)
	b = wire.AppendVarint(b, int64(m.Attempt))
	b = wire.AppendVarint(b, int64(m.From))
	b = wire.AppendBool(b, m.OK)
	b = wire.AppendString(b, m.Reason)
	b = wire.AppendUvarint(b, uint64(len(m.ShardSeqs)))
	for _, s := range m.ShardSeqs {
		b = wire.AppendUvarint(b, s)
	}
	b = wire.AppendUvarint(b, uint64(len(m.Values)))
	keys := make([]string, 0, len(m.Values))
	for k := range m.Values {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b = wire.AppendString(b, k)
		b = appendValue(b, m.Values[k])
	}
	b = wire.AppendBool(b, m.Info != nil)
	if m.Info != nil {
		b = appendLockInfo(b, m.Info)
	}
	return b
}

func decAckMsg(r *wire.Reader) any {
	m := &AckMsg{Txn: agent.DecodeID(r), Attempt: int(r.Varint()), From: runtime.NodeID(r.Varint()), OK: r.Bool(), Reason: r.String()}
	n := r.Count(1)
	m.ShardSeqs = make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		m.ShardSeqs = append(m.ShardSeqs, r.Uvarint())
	}
	if n = r.Count(2); n > 0 {
		m.Values = make(map[string]store.Value, n)
		for i := 0; i < n; i++ {
			k := r.String()
			m.Values[k] = decodeValue(r)
		}
	}
	if r.Bool() {
		m.Info = decodeLockInfo(r)
	}
	return m
}

func encCommitMsg(b []byte, v any) []byte {
	m := v.(*CommitMsg)
	b = agent.AppendID(b, m.Txn)
	b = wire.AppendVarint(b, int64(m.Origin))
	b = wire.AppendUvarint(b, uint64(len(m.Updates)))
	for i := range m.Updates {
		b = AppendUpdate(b, m.Updates[i])
	}
	return b
}

func decCommitMsg(r *wire.Reader) any {
	m := &CommitMsg{Txn: agent.DecodeID(r), Origin: runtime.NodeID(r.Varint())}
	n := r.Count(5)
	m.Updates = make([]store.Update, 0, n)
	for i := 0; i < n; i++ {
		m.Updates = append(m.Updates, DecodeUpdate(r))
	}
	return m
}

// A SyncRequest is the sender and a count of (shard, since) entries; a
// SyncReply the sender, a count of sections — each a shard and its counted
// updates — and the gone set once (residue, then watermarks). Both layouts
// date from wire.Version 4; before it each message named one shard.

func encSyncRequest(b []byte, v any) []byte {
	m := v.(*SyncRequest)
	b = wire.AppendVarint(b, int64(m.From))
	b = wire.AppendUvarint(b, uint64(len(m.Shards)))
	for _, e := range m.Shards {
		b = wire.AppendVarint(b, int64(e.Shard))
		b = wire.AppendUvarint(b, e.Since)
	}
	return b
}

func decSyncRequest(r *wire.Reader) any {
	m := &SyncRequest{From: runtime.NodeID(r.Varint())}
	if n := r.Count(2); n > 0 {
		m.Shards = make([]SyncSince, n)
		for i := range m.Shards {
			m.Shards[i] = SyncSince{Shard: int(r.Varint()), Since: r.Uvarint()}
		}
	}
	return m
}

func encSyncReply(b []byte, v any) []byte {
	m := v.(*SyncReply)
	b = wire.AppendVarint(b, int64(m.From))
	b = wire.AppendUvarint(b, uint64(len(m.Sections)))
	for _, sec := range m.Sections {
		b = wire.AppendVarint(b, int64(sec.Shard))
		b = wire.AppendUvarint(b, uint64(len(sec.Updates)))
		for i := range sec.Updates {
			b = AppendUpdate(b, sec.Updates[i])
		}
	}
	b = wire.AppendUvarint(b, uint64(len(m.Gone)))
	for _, id := range m.Gone {
		b = agent.AppendID(b, id)
	}
	return agent.AppendWatermarks(b, m.Marks)
}

func decSyncReply(r *wire.Reader) any {
	m := &SyncReply{From: runtime.NodeID(r.Varint())}
	if n := r.Count(2); n > 0 {
		m.Sections = make([]SyncSection, n)
		for i := range m.Sections {
			sec := &m.Sections[i]
			sec.Shard = int(r.Varint())
			k := r.Count(5)
			sec.Updates = make([]store.Update, 0, k)
			for j := 0; j < k; j++ {
				sec.Updates = append(sec.Updates, DecodeUpdate(r))
			}
		}
	}
	n := r.Count(3)
	m.Gone = make([]agent.ID, 0, n)
	for i := 0; i < n; i++ {
		m.Gone = append(m.Gone, agent.DecodeID(r))
	}
	m.Marks = agent.DecodeWatermarksInto(nil, r)
	return m
}

// AppendUpdate appends one store.Update in wire-codec form. Exported for
// the durable-layer and agent-state codecs that embed updates.
func AppendUpdate(b []byte, u store.Update) []byte {
	b = wire.AppendString(b, u.TxnID)
	b = wire.AppendString(b, u.Key)
	b = wire.AppendString(b, u.Data)
	b = wire.AppendUvarint(b, u.Seq)
	return wire.AppendVarint(b, u.Stamp)
}

// DecodeUpdate reads an update written by AppendUpdate.
func DecodeUpdate(r *wire.Reader) store.Update {
	return store.Update{
		TxnID: r.String(),
		Key:   r.String(),
		Data:  r.String(),
		Seq:   r.Uvarint(),
		Stamp: r.Varint(),
	}
}

func appendValue(b []byte, v store.Value) []byte {
	b = wire.AppendString(b, v.Data)
	b = wire.AppendUvarint(b, v.Version.Seq)
	b = wire.AppendVarint(b, v.Version.Stamp)
	return wire.AppendString(b, v.Version.Writer)
}

func decodeValue(r *wire.Reader) store.Value {
	return store.Value{
		Data:    r.String(),
		Version: store.Version{Seq: r.Uvarint(), Stamp: r.Varint(), Writer: r.String()},
	}
}

// AppendQueueSnapshot appends one locking-list snapshot. Exported for the
// agent-state codec in internal/core, which carries snapshots inside
// WireState.
func AppendQueueSnapshot(b []byte, s *QueueSnapshot) []byte {
	b = wire.AppendVarint(b, int64(s.Server))
	b = wire.AppendVarint(b, int64(s.Shard))
	b = wire.AppendUvarint(b, s.Epoch)
	b = wire.AppendUvarint(b, s.Version)
	b = wire.AppendUvarint(b, s.HeadVersion)
	b = wire.AppendUvarint(b, uint64(len(s.Queue)))
	for _, id := range s.Queue {
		b = agent.AppendID(b, id)
	}
	return b
}

// DecodeQueueSnapshotInto reads a snapshot written by AppendQueueSnapshot
// into *s, reusing s.Queue's capacity — the zero-allocation decode path.
func DecodeQueueSnapshotInto(s *QueueSnapshot, r *wire.Reader) {
	s.Server = runtime.NodeID(r.Varint())
	s.Shard = int(r.Varint())
	s.Epoch = r.Uvarint()
	s.Version = r.Uvarint()
	s.HeadVersion = r.Uvarint()
	n := r.Count(3)
	s.Queue = wire.Grow(s.Queue, n)
	for i := 0; i < n; i++ {
		s.Queue[i] = agent.DecodeID(r)
	}
}

func appendLockInfo(b []byte, li *LockInfo) []byte {
	b = wire.AppendUvarint(b, uint64(len(li.Locals)))
	for i := range li.Locals {
		b = AppendQueueSnapshot(b, &li.Locals[i])
	}
	b = wire.AppendUvarint(b, uint64(len(li.Gone)))
	for _, id := range li.Gone {
		b = agent.AppendID(b, id)
	}
	b = agent.AppendWatermarks(b, li.Marks)
	b = wire.AppendUvarint(b, uint64(len(li.Remote)))
	for i := range li.Remote {
		b = AppendQueueSnapshot(b, &li.Remote[i])
	}
	b = wire.AppendUvarint(b, uint64(len(li.Costs)))
	nodes := make([]runtime.NodeID, 0, len(li.Costs))
	for id := range li.Costs {
		nodes = append(nodes, id)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	for _, id := range nodes {
		b = wire.AppendVarint(b, int64(id))
		b = wire.AppendFloat(b, li.Costs[id])
	}
	return wire.AppendUvarint(b, li.LastSeq)
}

func decodeLockInfo(r *wire.Reader) *LockInfo {
	li := &LockInfo{}
	n := r.Count(6)
	li.Locals = make([]QueueSnapshot, n)
	for i := range li.Locals {
		DecodeQueueSnapshotInto(&li.Locals[i], r)
	}
	n = r.Count(3)
	li.Gone = make([]agent.ID, 0, n)
	for i := 0; i < n; i++ {
		li.Gone = append(li.Gone, agent.DecodeID(r))
	}
	li.Marks = agent.DecodeWatermarksInto(nil, r)
	n = r.Count(6)
	li.Remote = make([]QueueSnapshot, n)
	for i := range li.Remote {
		DecodeQueueSnapshotInto(&li.Remote[i], r)
	}
	if n = r.Count(9); n > 0 {
		li.Costs = make(map[runtime.NodeID]float64, n)
		for i := 0; i < n; i++ {
			id := runtime.NodeID(r.Varint())
			li.Costs[id] = r.Float()
		}
	}
	li.LastSeq = r.Uvarint()
	return li
}
