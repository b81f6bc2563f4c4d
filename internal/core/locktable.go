package core

import (
	"cmp"
	"slices"

	"repro/internal/agent"
	"repro/internal/quorum"
	"repro/internal/replica"
	"repro/internal/runtime"
)

// ShardView is everything an agent's LockTable knows about one shard it
// operates on: the replica group owning the shard and the quorum geometry
// arbitrating its write permission. A single-shard system has one view
// covering all N servers — the paper's configuration.
type ShardView struct {
	Shard int
	Group []runtime.NodeID // ascending
	Votes quorum.Assignment
}

// snapKey identifies one Locking List: a (shard, server) pair.
type snapKey struct {
	shard  int
	server runtime.NodeID
}

// compare orders keys by (shard, server): the order the table keeps its
// lists in, and the order they travel in.
func (k snapKey) compare(o snapKey) int {
	if k.shard != o.shard {
		return cmp.Compare(k.shard, o.shard)
	}
	return cmp.Compare(k.server, o.server)
}

// snapAt returns where k's snapshot is, or belongs, in a list sorted by
// (shard, server).
func snapAt(s []replica.QueueSnapshot, k snapKey) (int, bool) {
	return slices.BinarySearchFunc(s, k, func(e replica.QueueSnapshot, k snapKey) int {
		return snapKey{e.Shard, e.Server}.compare(k)
	})
}

// markAt returns where k's visit mark is, or belongs, in a list sorted by
// (shard, server).
func markAt(s []VisitMark, k snapKey) (int, bool) {
	return slices.BinarySearchFunc(s, k, func(e VisitMark, k snapKey) int {
		return snapKey{e.Shard, e.Server}.compare(k)
	})
}

// LockTable is the mobile agent's view of the global locking state: the LT
// of the paper (§3.2), fused with the UAL (agents known to have finished or
// died, whose stale queue entries must be ignored — held as the bounded
// agent.GoneSet summary, not as a list) and the bookkeeping
// needed to notice that a visited server lost the agent's entry in a crash.
// Snapshots are kept per (server, shard): a multi-shard agent tracks every
// Locking List its claim depends on.
//
// Queue snapshots about a locking list change only in constrained ways —
// entries are appended at the tail and removed when their agent finishes or
// dies — so the head computed from a stale snapshot, after filtering agents
// known to be gone, equals the list's true current head whenever the
// snapshot still contains at least one live entry (see DESIGN.md §6,
// invariant 5).
//
// The table's three lists are kept strictly ascending by (shard, server) —
// their wire form, so Export and Freeze hand them out as they are and a
// wire thaw adopts decoded ones. Once handed out they are shared: the table copies
// them before its next write (DESIGN.md §6, invariant 18).
type LockTable struct {
	n     int
	views []ShardView
	snaps []replica.QueueSnapshot
	gone  agent.GoneSet
	// visited records the snapshot position (epoch, version) at which
	// this agent last observed itself enqueued in a locking list by
	// visiting its server.
	visited []VisitMark
	// floors holds distrust tombstones left by Forget: snapshots for the
	// list are ignored unless strictly newer, so stale information from
	// server caches cannot resurrect a view the agent already rejected.
	floors []replica.QueueSnapshot
	shared bool // Export or Freeze handed the lists out: copy before writing
	// rev counts effective mutations; a stable rev across retry rounds
	// tells the agent the system is genuinely stuck, not just slow.
	rev uint64
	// Decide scratch, reused across calls: the table lives on one agent's
	// goroutine and decides after every locking-list event, which made
	// these transient structures the live path's hottest allocations.
	scratchSubs  []shardDecision
	scratchHeads []head
	scratchReach []runtime.NodeID
}

// NewLockTable returns an empty table for an unsharded system of n replicas
// with one vote each (the paper's plain majority scheme).
func NewLockTable(n int) *LockTable {
	nodes := make([]runtime.NodeID, n)
	for i := range nodes {
		nodes[i] = runtime.NodeID(i + 1)
	}
	return NewWeightedLockTable(n, quorum.Equal(nodes))
}

// NewWeightedLockTable returns an unsharded table using an explicit vote
// assignment — Gifford's weighted-voting generalization [5] of the paper's
// majority scheme: an agent wins when the servers whose locking lists it
// heads form a write quorum.
func NewWeightedLockTable(n int, votes quorum.Assignment) *LockTable {
	nodes := make([]runtime.NodeID, n)
	for i := range nodes {
		nodes[i] = runtime.NodeID(i + 1)
	}
	return NewShardedLockTable(n, []ShardView{{Shard: 0, Group: nodes, Votes: votes}})
}

// NewShardedLockTable returns a table over explicit shard views (ascending
// shard order). The agent wins only when every view elects it.
func NewShardedLockTable(n int, views []ShardView) *LockTable {
	return &LockTable{n: n, views: views}
}

// members counts the table's Locking Lists: one per group member per view.
// A travelling agent's lists fill up to it, so they start with that room.
func (lt *LockTable) members() int {
	n := 0
	for _, v := range lt.views {
		n += len(v.Group)
	}
	return n
}

// N returns the number of replicas in the system.
func (lt *LockTable) N() int { return lt.n }

// Rev returns the table's mutation revision.
func (lt *LockTable) Rev() uint64 { return lt.rev }

// MarkGone records agents known to have finished or died.
func (lt *LockTable) MarkGone(ids ...agent.ID) { lt.MergeGone(nil, ids) }

// MergeGone absorbs another gone set in its exchanged form (watermarks plus
// residue): a server's Updated List, or the state this agent was frozen with.
func (lt *LockTable) MergeGone(marks []agent.Watermark, ids []agent.ID) {
	lt.rev += uint64(lt.gone.Merge(marks, ids))
}

// IsGone reports whether the agent is known to have finished or died.
func (lt *LockTable) IsGone(id agent.ID) bool { return lt.gone.Contains(id) }

// Gone returns the table's gone set, for handing to a visited server and
// for freezing. It aliases the table.
func (lt *LockTable) Gone() *agent.GoneSet { return &lt.gone }

// own makes the table's lists its own again before a write, if Export or
// Freeze handed them out.
func (lt *LockTable) own() {
	if lt.shared {
		lt.snaps = slices.Clone(lt.snaps)
		lt.visited = slices.Clone(lt.visited)
		lt.floors = slices.Clone(lt.floors)
		lt.shared = false
	}
}

// MergeSnapshot absorbs a queue snapshot, keeping the freshest per
// (shard, server) and respecting any distrust tombstone left by Forget.
func (lt *LockTable) MergeSnapshot(s replica.QueueSnapshot) {
	k := snapKey{s.Shard, s.Server}
	if i, ok := snapAt(lt.floors, k); ok && !s.Newer(lt.floors[i]) {
		return
	}
	i, ok := snapAt(lt.snaps, k)
	if ok && !s.Newer(lt.snaps[i]) {
		return
	}
	lt.own()
	switch {
	case ok:
		lt.snaps[i] = s // the queue is published state: shared, never written
	case lt.snaps == nil:
		lt.snaps = append(make([]replica.QueueSnapshot, 0, lt.members()), s)
	default:
		lt.snaps = slices.Insert(lt.snaps, i, s)
	}
	lt.rev++
}

// Forget drops all knowledge about a server (every shard) and refuses to
// re-learn anything not strictly newer. Agents forget servers that do not
// answer a claim: whatever snapshot led to the claim is evidently useless,
// an unknown head is handled more gracefully than a stale one, and without
// the tombstone the same stale snapshot would flow right back out of a peer
// server's information-sharing cache.
func (lt *LockTable) Forget(server runtime.NodeID) {
	for i := 0; i < len(lt.snaps); {
		s := lt.snaps[i]
		if s.Server != server {
			i++
			continue
		}
		lt.own()
		f := replica.QueueSnapshot{Server: server, Shard: s.Shard, Epoch: s.Epoch, Version: s.Version}
		if j, ok := snapAt(lt.floors, snapKey{s.Shard, server}); ok {
			lt.floors[j] = f
		} else {
			lt.floors = slices.Insert(lt.floors, j, f)
		}
		lt.snaps = slices.Delete(lt.snaps, i, i+1)
		lt.rev++
	}
}

// MergeInfo absorbs everything a server handed out. If visited is true the
// local snapshots came from this agent's own visit (it just enqueued
// there), and the table records the visit marks used by NeedRevisit.
func (lt *LockTable) MergeInfo(info replica.LockInfo, visited bool) {
	for _, local := range info.Locals {
		lt.MergeSnapshot(local)
		if visited {
			lt.markVisit(VisitMark{Server: local.Server, Shard: local.Shard, Epoch: local.Epoch, Version: local.Version})
		}
	}
	lt.MergeGone(info.Marks, info.Gone)
	for _, snap := range info.Remote {
		lt.MergeSnapshot(snap)
	}
}

// markVisit records m as the list's visit mark.
func (lt *LockTable) markVisit(m VisitMark) {
	i, ok := markAt(lt.visited, snapKey{m.Shard, m.Server})
	if ok && lt.visited[i] == m {
		return
	}
	lt.own()
	switch {
	case ok:
		lt.visited[i] = m
	case lt.visited == nil:
		lt.visited = append(make([]VisitMark, 0, lt.members()), m)
	default:
		lt.visited = slices.Insert(lt.visited, i, m)
	}
}

// Visited reports whether the agent has visited (enqueued at) the server.
func (lt *LockTable) Visited(server runtime.NodeID) bool {
	for i := range lt.visited {
		if lt.visited[i].Server == server {
			return true
		}
	}
	return false
}

// Snapshot returns the freshest known shard-0 snapshot for a server.
func (lt *LockTable) Snapshot(server runtime.NodeID) (replica.QueueSnapshot, bool) {
	if i, ok := snapAt(lt.snaps, snapKey{server: server}); ok {
		return lt.snaps[i], true
	}
	return replica.QueueSnapshot{}, false
}

// Head returns the head of the server's shard-0 queue after filtering gone
// agents; ok is false when the table has no information for the server or
// the filtered queue is empty.
func (lt *LockTable) Head(server runtime.NodeID) (agent.ID, bool) {
	return lt.headAt(0, server)
}

func (lt *LockTable) headAt(shrd int, server runtime.NodeID) (agent.ID, bool) {
	if i, ok := snapAt(lt.snaps, snapKey{shrd, server}); ok {
		return lt.headOf(&lt.snaps[i])
	}
	return agent.ID{}, false
}

// headOf returns the first agent in s's queue not known to be gone.
func (lt *LockTable) headOf(s *replica.QueueSnapshot) (agent.ID, bool) {
	for _, id := range s.Queue {
		if !lt.gone.Contains(id) {
			return id, true
		}
	}
	return agent.ID{}, false
}

// Rank returns self's 1-based position in the server's filtered shard-0
// queue (0 if absent or unknown) — diagnostic/metrics helper.
func (lt *LockTable) Rank(server runtime.NodeID, self agent.ID) int {
	s, ok := lt.Snapshot(server)
	if !ok {
		return 0
	}
	rank := 0
	for _, id := range s.Queue {
		if lt.gone.Contains(id) {
			continue
		}
		rank++
		if id == self {
			return rank
		}
	}
	return 0
}

// Export returns the table's snapshots for leaving behind at a server (the
// paper's information sharing), sorted by (shard, server). The slice is the
// table's own, handed out without a copy: the table copies it before its
// next write, and holders must not write to it either.
func (lt *LockTable) Export() []replica.QueueSnapshot {
	lt.shared = true
	return slices.Clip(lt.snaps)
}

// lend returns the table's snapshots, without marking them shared, to a
// caller that only reads them before the table next changes: a visit's
// VisitAndLock copies the snapshots it caches and keeps no reference.
func (lt *LockTable) lend() []replica.QueueSnapshot { return slices.Clip(lt.snaps) }

// lists hands out all three lists, as Freeze does: shared from now on.
func (lt *LockTable) lists() (snaps []replica.QueueSnapshot, visited []VisitMark, floors []replica.QueueSnapshot) {
	lt.shared = true
	return slices.Clip(lt.snaps), slices.Clip(lt.visited), slices.Clip(lt.floors)
}

// adopt installs lists strictly ascending by (shard, server) into an empty
// table, which takes them over: the caller holds them no longer.
func (lt *LockTable) adopt(snaps []replica.QueueSnapshot, visited []VisitMark, floors []replica.QueueSnapshot) {
	lt.snaps, lt.visited, lt.floors = snaps, visited, floors
	lt.rev += uint64(len(snaps)) // as many changes as merging them one at a time
}

// Evidence returns the head-version claimed for every known server (the
// freshest across its shards); servers validate tie-break claims against it.
func (lt *LockTable) Evidence() map[runtime.NodeID]uint64 {
	out := make(map[runtime.NodeID]uint64, len(lt.snaps))
	for _, s := range lt.snaps {
		if cur, ok := out[s.Server]; !ok || s.HeadVersion > cur {
			out[s.Server] = s.HeadVersion
		}
	}
	return out
}

// NeedRevisit returns visited servers where, according to information at
// least as fresh as the visit, some locking list no longer holds self's
// queue entry — which happens when the server crashed (losing its volatile
// LLs) and recovered. The agent must travel there again to re-enqueue.
func (lt *LockTable) NeedRevisit(self agent.ID) []runtime.NodeID {
	var out []runtime.NodeID
	for _, m := range lt.visited {
		i, ok := snapAt(lt.snaps, snapKey{m.Shard, m.Server})
		if !ok {
			continue
		}
		s := &lt.snaps[i]
		fresher := s.Epoch > m.Epoch || (s.Epoch == m.Epoch && s.Version >= m.Version)
		if !fresher || slices.Contains(s.Queue, self) {
			continue
		}
		if j, dup := slices.BinarySearch(out, m.Server); !dup {
			out = slices.Insert(out, j, m.Server)
		}
	}
	return out
}

// Ranking computes the next k winners the priority rule would elect in
// sequence, simulating each winner's completion — the extension the paper
// sketches in §3.3 ("it can be extended so that mobile agents can determine
// not only the first mobile agent who will obtain the lock next, but also
// the second agent, the third agent, etc."). The ranking is exact when the
// table covers all servers and best-effort otherwise; it stops early when
// the rule becomes inconclusive.
func (lt *LockTable) Ranking(self agent.ID, k int) []agent.ID {
	var out []agent.ID
	lt.gone.Export() // share the arrays with saved: the tentative adds copy first
	saved := lt.gone
	for len(out) < k {
		d := lt.Decide(self)
		if !d.Found {
			break
		}
		out = append(out, d.Winner)
		lt.gone.Add(d.Winner) // tentative: undone below
	}
	lt.gone = saved
	return out
}

// Decision is the result of the fully distributed priority calculation.
type Decision struct {
	Found    bool
	Winner   agent.ID
	ByTie    bool
	SelfTops int // write-quorum score of the lists self heads, summed over shards
	TopCount int // the winner's score
}

// shardDecision is one shard's sub-decision.
type shardDecision struct {
	found  bool
	winner agent.ID
	byTie  bool
	group  []runtime.NodeID
	votes  quorum.Assignment
	heads  []head // one per group member; aliases the table's scratch
}

// head is the filtered head of one group member's list, if known.
type head struct {
	id    agent.ID
	known bool
}

// Decide runs the paper's priority rule (§3.3) over the table's knowledge,
// generalized to quorum geometries and shards:
//
//   - on each shard, an agent heading the locking lists of a write quorum of
//     the shard's replica group has the highest priority (the paper's
//     majority of N servers, under the majority geometry);
//   - otherwise, if even claiming every list whose head is unknown cannot
//     lift any agent to a write quorum — the paper's S + (N − M·S) < N/2
//     condition, generalized to partial knowledge — the tie resolves in
//     favor of the heaviest current leader, smallest identifier first;
//   - the agent wins overall when every shard it operates on elects it. If
//     all shards decide but disagree, the cross-shard tie resolves to the
//     leader with the highest total score (then smallest identifier), and
//     the losers wait.
//
// A Decision with Found == false means the agent must gather more
// information (keep travelling, or wait for locking lists to change).
func (lt *LockTable) Decide(self agent.ID) Decision {
	if cap(lt.scratchSubs) < len(lt.views) {
		lt.scratchSubs = make([]shardDecision, len(lt.views))
	}
	members := lt.members()
	if cap(lt.scratchHeads) < members {
		lt.scratchHeads = make([]head, members)
		lt.scratchReach = make([]runtime.NodeID, 0, members)
	}
	subs := lt.scratchSubs[:len(lt.views)]
	heads := lt.scratchHeads[:members]
	selfTops := 0
	for i, v := range lt.views {
		subs[i] = lt.decideShard(v, heads[:len(v.Group)])
		heads = heads[len(v.Group):]
		selfTops += lt.score(&subs[i], self)
	}
	d := Decision{SelfTops: selfTops}
	for _, s := range subs {
		if !s.found {
			return d
		}
	}
	winner := subs[0].winner
	agreed := true
	for _, s := range subs[1:] {
		if s.winner != winner {
			agreed = false
			break
		}
	}
	if !agreed {
		// Cross-shard tie (multi-shard systems only): different shards
		// elected different leaders. Resolve deterministically so exactly
		// one agent proceeds to claim; the servers' grant exclusivity
		// arbitrates safely either way.
		winner = agent.ID{}
		best := -1
		for _, s := range subs {
			total := 0
			for j := range subs {
				total += lt.score(&subs[j], s.winner)
			}
			if total > best || (total == best && s.winner.Less(winner)) {
				winner, best = s.winner, total
			}
		}
		d.Found = true
		d.Winner = winner
		d.ByTie = true
		d.TopCount = best
		return d
	}
	d.Found = true
	d.Winner = winner
	for i := range subs {
		d.TopCount += lt.score(&subs[i], winner)
		d.ByTie = d.ByTie || subs[i].byTie
	}
	return d
}

// headedBy collects, into the table's scratch, the members of d's group
// whose lists id heads — and, if unknown is set, those whose heads are
// unknown. The result is only read until the next call.
func (lt *LockTable) headedBy(d *shardDecision, id agent.ID, unknown bool) []runtime.NodeID {
	lt.scratchReach = lt.scratchReach[:0]
	for j, h := range d.heads {
		if (h.known && h.id == id) || (!h.known && unknown) {
			lt.scratchReach = append(lt.scratchReach, d.group[j])
		}
	}
	return lt.scratchReach
}

// score is the write-quorum score of the lists id heads on d's shard.
func (lt *LockTable) score(d *shardDecision, id agent.ID) int {
	return d.votes.Score(lt.headedBy(d, id, false))
}

// leader reports whether heads[j] is known and heads no earlier group
// member's list, so that each leader is judged once.
func leader(heads []head, j int) bool {
	return heads[j].known && !slices.Contains(heads[:j], heads[j])
}

// decideShard elects one shard's highest-priority agent from the heads the
// table knows on that shard's replica group. heads is caller-owned scratch,
// one per group member, which the result aliases; it is only read until
// the next Decide call.
func (lt *LockTable) decideShard(v ShardView, heads []head) shardDecision {
	d := shardDecision{group: v.Group, votes: v.Votes, heads: heads}
	anyKnown := false
	// The group and the shard's snapshots both ascend by server: walk them
	// together.
	i, _ := snapAt(lt.snaps, snapKey{shard: v.Shard})
	for j, server := range v.Group {
		for i < len(lt.snaps) && lt.snaps[i].Shard == v.Shard && lt.snaps[i].Server < server {
			i++
		}
		heads[j] = head{}
		if i < len(lt.snaps) && lt.snaps[i].Shard == v.Shard && lt.snaps[i].Server == server {
			heads[j].id, heads[j].known = lt.headOf(&lt.snaps[i])
		}
		anyKnown = anyKnown || heads[j].known
	}
	for j, h := range heads {
		if leader(heads, j) && v.Votes.HasWrite(lt.headedBy(&d, h.id, false)) {
			d.found, d.winner = true, h.id
			return d
		}
	}
	if !anyKnown {
		return d // nothing known yet
	}
	for j, h := range heads {
		if leader(heads, j) && v.Votes.HasWrite(lt.headedBy(&d, h.id, true)) {
			return d // someone could still reach a write quorum: no decision yet
		}
	}
	// Tie: resolve by score, then smallest identifier among the leaders.
	best := -1
	for j, h := range heads {
		if !leader(heads, j) {
			continue
		}
		if score := lt.score(&d, h.id); score > best || (score == best && h.id.Less(d.winner)) {
			d.winner, best = h.id, score
		}
	}
	d.found = true
	d.byTie = true
	return d
}
