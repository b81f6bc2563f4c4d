// Package replica implements the replicated server side of the MARP
// protocol — Algorithm 2 of the paper plus the server duties the paper's
// system model assigns to replicas: holding the data copy, maintaining the
// Locking List (LL) and Updated List (UL), providing routing information to
// visiting agents, exchanging locking information with them, validating and
// applying updates, and performing failure recovery through background
// information transfer.
//
// The key space is sharded: each server keeps one Locking List, one data
// store, and one exclusive grant per (server, shard), so updates on
// different shards never contend. With one shard (the default) the server
// behaves exactly as the paper describes.
package replica

import (
	"repro/internal/agent"
	"repro/internal/runtime"
	"repro/internal/store"
)

// QueueSnapshot is one shard's Locking List at one server as known at some
// moment. Agents accumulate these in their Locking Table and leave them
// behind at the servers they visit (the paper's information sharing); both
// directions use this type. Snapshots are ordered by (Epoch, Version):
// Epoch increments when a server recovers from a crash and its volatile
// locking state resets, Version increments on every LL mutation within an
// epoch. Queue is published state: servers, lock tables and messages share
// it, and nobody writes it (DESIGN.md §6, invariant 18).
type QueueSnapshot struct {
	Server      runtime.NodeID
	Shard       int
	Epoch       uint64
	Version     uint64
	HeadVersion uint64 // version of the last mutation that changed the head
	Queue       []agent.ID
}

// Newer reports whether s is strictly fresher information than o.
func (s QueueSnapshot) Newer(o QueueSnapshot) bool {
	if s.Epoch != o.Epoch {
		return s.Epoch > o.Epoch
	}
	return s.Version > o.Version
}

// LockInfo is everything a server hands to a visiting agent when the agent
// requests its locks (paper §3.2–3.3): the local LL of every shard the
// agent asked for, the UL ("gone" agents, as the agent.GoneSet summary:
// watermarks plus residue), the server's cached views of other servers' LLs
// on those shards, the routing table, and the data version horizon.
type LockInfo struct {
	Locals  []QueueSnapshot   // this server's LLs, ascending shard order
	Gone    []agent.ID        // UL residue: finished or dead agents no watermark covers yet
	Marks   []agent.Watermark // UL watermarks — prune what either names everywhere
	Remote  []QueueSnapshot   // cached peer LLs, sorted by (shard, server)
	Costs   map[runtime.NodeID]float64
	LastSeq uint64 // highest committed Seq across the requested shards
}

// LLChanged is the local event a server raises to its resident agents when
// one of its Locking Lists mutates — the cue for parked agents to recompute
// their priority (paper §3.3: "other mobile agents will then be able to
// change their priorities in their locking tables"). It is handed to the
// residents as a Go value and never crosses the wire.
type LLChanged struct {
	Server runtime.NodeID
}

// UpdateMsg is the winning agent's UPDATE broadcast: a permission claim plus
// the identity of the data it wants to write. Servers validate the claim on
// every named shard they replicate — all-or-nothing — install an exclusive
// per-shard grant, and reply with an AckMsg carrying their current copy of
// the requested keys so the winner can "use the most recent copy" (paper
// §3.1).
type UpdateMsg struct {
	Txn      agent.ID
	Attempt  int            // claim attempt number, echoed in the AckMsg
	Origin   runtime.NodeID // where the claiming agent currently resides
	Keys     []string
	Shards   []int // distinct shards of Keys, ascending (canonical lock order)
	ByTie    bool
	Evidence map[runtime.NodeID]uint64 // claimed head-version per server (tie claims)
}

// Kind implements runtime.Kinder.
func (UpdateMsg) Kind() string { return "update" }

// AckMsg is a server's reply to an UpdateMsg. On success it carries the
// server's committed values for the requested keys and its per-shard data
// horizons (parallel to the claim's Shards); on refusal it carries a fresh
// LockInfo so the claimant can repair its Locking Table before retrying.
type AckMsg struct {
	Txn       agent.ID
	Attempt   int // echo of the claim's attempt number
	From      runtime.NodeID
	OK        bool
	Reason    string
	ShardSeqs []uint64 // committed horizon per claimed shard (0 where not replicated here)
	Values    map[string]store.Value
	Info      *LockInfo // populated on NACK
}

// Kind implements runtime.Kinder.
func (AckMsg) Kind() string { return "ack" }

// CommitMsg finalizes the winner's updates at every replica and releases its
// locks (paper §3.1: "multicasts a COMMIT message to these servers and then
// releases the lock"; §3.3: "locks from this agent will be removed from all
// locking lists"). Each update routes to the shard owning its key; a
// replica applies only the shards it is a group member of.
type CommitMsg struct {
	Txn     agent.ID
	Origin  runtime.NodeID
	Updates []store.Update
}

// Kind implements runtime.Kinder.
func (CommitMsg) Kind() string { return "commit" }

// AbortMsg withdraws a failed claim, releasing the grants the claimant
// collected on every shard (the agent keeps its queue positions and retries
// later). Attempt scopes the abort: a server releases a grant only if the
// grant was installed by an attempt not newer than this one, so a stray
// abort provoked by a long-delayed acknowledgement of an old attempt can
// never release the claimant's own current grant.
type AbortMsg struct {
	Txn     agent.ID
	Attempt int
}

// Kind implements runtime.Kinder.
func (AbortMsg) Kind() string { return "abort" }

// ReadReq asks a replica for its committed value of a key — one leg of the
// consistent-read extension (read quorum R = majority, making the system
// one-copy serializable per Gifford's R+W > N condition; see
// internal/quorum.StrictSpec). The paper's protocol serves reads locally;
// this is the stricter variant its §5 invites ("the MARP approach is a
// generic method, which can be used to implement different kinds of
// replication control algorithms").
type ReadReq struct {
	ReqID uint64
	From  runtime.NodeID
	Key   string
}

// Kind implements runtime.Kinder.
func (ReadReq) Kind() string { return "read-req" }

// ReadRep answers a ReadReq with the replica's committed value.
type ReadRep struct {
	ReqID uint64
	From  runtime.NodeID
	Found bool
	Value store.Value
}

// Kind implements runtime.Kinder.
func (ReadRep) Kind() string { return "read-rep" }

// SyncRequest is one anti-entropy exchange with one peer — the paper's
// "background information transfer", used by replicas recovering from a
// failure, healing from a partition, or detecting a sequence gap. Shards
// journal and sync independently (the shard-isolation invariant), so the
// request names a horizon per shard: one entry for every shard the sender
// wants from this peer, which is at most the shards the two share. A server
// sends one request per peer, however many shards it replicates.
type SyncRequest struct {
	From   runtime.NodeID
	Shards []SyncSince // ascending shard order
}

// SyncSince asks for one shard's committed updates after Since.
type SyncSince struct {
	Shard int
	Since uint64
}

// Kind implements runtime.Kinder.
func (SyncRequest) Kind() string { return "sync-req" }

// SyncReply answers a SyncRequest: one section of missing updates, in
// order, for every requested shard that has news, plus the sender's gone
// set (residue and watermarks) once — it is per server, not per shard — so
// the recovering replica can prune stale lock information too.
type SyncReply struct {
	From     runtime.NodeID
	Sections []SyncSection // ascending shard order
	Gone     []agent.ID
	Marks    []agent.Watermark
}

// SyncSection is one shard's updates in a SyncReply.
type SyncSection struct {
	Shard   int
	Updates []store.Update
}

// Kind implements runtime.Kinder.
func (SyncReply) Kind() string { return "sync-reply" }
