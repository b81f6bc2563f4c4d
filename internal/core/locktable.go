package core

import (
	"cmp"
	"slices"
	"sort"

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
type LockTable struct {
	n     int
	views []ShardView
	snaps map[snapKey]replica.QueueSnapshot
	gone  agent.GoneSet
	// visitMark records the snapshot position (epoch, version) at which
	// this agent last observed itself enqueued in a locking list by
	// visiting its server.
	visitMark map[snapKey]visitMark
	// floor holds distrust tombstones left by Forget: snapshots for the
	// list are ignored unless strictly newer, so stale information from
	// server caches cannot resurrect a view the agent already rejected.
	floor map[snapKey]replica.QueueSnapshot
	// rev counts effective mutations; a stable rev across retry rounds
	// tells the agent the system is genuinely stuck, not just slow.
	rev uint64
	// Decide scratch, reused across calls: the table lives on one agent's
	// goroutine and decides after every locking-list event, which made
	// these transient structures the live path's hottest allocations.
	scratchSubs   []shardDecision
	scratchHeaded []map[agent.ID][]runtime.NodeID
	scratchReach  []runtime.NodeID
}

type visitMark struct {
	epoch   uint64
	version uint64
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
	return &LockTable{
		n:         n,
		views:     views,
		snaps:     make(map[snapKey]replica.QueueSnapshot),
		visitMark: make(map[snapKey]visitMark),
		floor:     make(map[snapKey]replica.QueueSnapshot),
	}
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

// MergeSnapshot absorbs a queue snapshot, keeping the freshest per
// (shard, server) and respecting any distrust tombstone left by Forget.
func (lt *LockTable) MergeSnapshot(s replica.QueueSnapshot) {
	k := snapKey{shard: s.Shard, server: s.Server}
	if f, ok := lt.floor[k]; ok && !s.Newer(f) {
		return
	}
	cur, ok := lt.snaps[k]
	if !ok || s.Newer(cur) {
		lt.snaps[k] = s // published state: shared, never written
		lt.rev++
	}
}

// Forget drops all knowledge about a server (every shard) and refuses to
// re-learn anything not strictly newer. Agents forget servers that do not
// answer a claim: whatever snapshot led to the claim is evidently useless,
// an unknown head is handled more gracefully than a stale one, and without
// the tombstone the same stale snapshot would flow right back out of a peer
// server's information-sharing cache.
func (lt *LockTable) Forget(server runtime.NodeID) {
	for k, s := range lt.snaps {
		if k.server != server {
			continue
		}
		lt.floor[k] = replica.QueueSnapshot{Server: server, Shard: k.shard, Epoch: s.Epoch, Version: s.Version}
		delete(lt.snaps, k)
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
			lt.visitMark[snapKey{shard: local.Shard, server: local.Server}] =
				visitMark{epoch: local.Epoch, version: local.Version}
		}
	}
	lt.MergeGone(info.Marks, info.Gone)
	for _, snap := range info.Remote {
		lt.MergeSnapshot(snap)
	}
}

// Visited reports whether the agent has visited (enqueued at) the server.
func (lt *LockTable) Visited(server runtime.NodeID) bool {
	for k := range lt.visitMark {
		if k.server == server {
			return true
		}
	}
	return false
}

// Snapshot returns the freshest known shard-0 snapshot for a server.
func (lt *LockTable) Snapshot(server runtime.NodeID) (replica.QueueSnapshot, bool) {
	s, ok := lt.snaps[snapKey{server: server}]
	return s, ok
}

// Head returns the head of the server's shard-0 queue after filtering gone
// agents; ok is false when the table has no information for the server or
// the filtered queue is empty.
func (lt *LockTable) Head(server runtime.NodeID) (agent.ID, bool) {
	return lt.headAt(0, server)
}

func (lt *LockTable) headAt(shrd int, server runtime.NodeID) (agent.ID, bool) {
	s, ok := lt.snaps[snapKey{shard: shrd, server: server}]
	if !ok {
		return agent.ID{}, false
	}
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
	s, ok := lt.snaps[snapKey{server: server}]
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
// paper's information sharing), sorted by (shard, server). The server
// merges by version, so sharing is always safe. The queues are shared with
// the table; nobody writes a published queue.
func (lt *LockTable) Export() []replica.QueueSnapshot {
	out := make([]replica.QueueSnapshot, 0, len(lt.snaps))
	for _, s := range lt.snaps {
		out = append(out, s)
	}
	sortSnapshots(out)
	return out
}

// sortSnapshots orders snapshots by (shard, server), the order they travel in.
func sortSnapshots(s []replica.QueueSnapshot) {
	slices.SortFunc(s, func(a, b replica.QueueSnapshot) int {
		return cmp.Or(cmp.Compare(a.Shard, b.Shard), cmp.Compare(a.Server, b.Server))
	})
}

// Evidence returns the head-version claimed for every known server (the
// freshest across its shards); servers validate tie-break claims against it.
func (lt *LockTable) Evidence() map[runtime.NodeID]uint64 {
	out := make(map[runtime.NodeID]uint64, len(lt.snaps))
	for k, s := range lt.snaps {
		if cur, ok := out[k.server]; !ok || s.HeadVersion > cur {
			out[k.server] = s.HeadVersion
		}
	}
	return out
}

// NeedRevisit returns visited servers where, according to information at
// least as fresh as the visit, some locking list no longer holds self's
// queue entry — which happens when the server crashed (losing its volatile
// LLs) and recovered. The agent must travel there again to re-enqueue.
func (lt *LockTable) NeedRevisit(self agent.ID) []runtime.NodeID {
	seen := make(map[runtime.NodeID]bool)
	var out []runtime.NodeID
	for k, mark := range lt.visitMark {
		if seen[k.server] {
			continue
		}
		s, ok := lt.snaps[k]
		if !ok {
			continue
		}
		fresher := s.Epoch > mark.epoch || (s.Epoch == mark.epoch && s.Version >= mark.version)
		if !fresher {
			continue
		}
		present := false
		for _, id := range s.Queue {
			if id == self {
				present = true
				break
			}
		}
		if !present {
			seen[k.server] = true
			out = append(out, k.server)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
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
	headed map[agent.ID][]runtime.NodeID
	votes  quorum.Assignment
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
	for len(lt.scratchHeaded) < len(lt.views) {
		lt.scratchHeaded = append(lt.scratchHeaded, make(map[agent.ID][]runtime.NodeID))
	}
	subs := lt.scratchSubs[:len(lt.views)]
	selfTops := 0
	for i, v := range lt.views {
		clear(lt.scratchHeaded[i])
		subs[i] = lt.decideShard(v, self, lt.scratchHeaded[i])
		selfTops += v.Votes.Score(subs[i].headed[self])
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
			for _, x := range subs {
				total += x.votes.Score(x.headed[s.winner])
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
	for _, s := range subs {
		d.TopCount += s.votes.Score(s.headed[winner])
		d.ByTie = d.ByTie || s.byTie
	}
	return d
}

// decideShard elects one shard's highest-priority agent from the heads the
// table knows on that shard's replica group. headed is a caller-owned
// (cleared) scratch map the result aliases; it is only read until the next
// Decide call.
func (lt *LockTable) decideShard(v ShardView, self agent.ID, headed map[agent.ID][]runtime.NodeID) shardDecision {
	d := shardDecision{headed: headed, votes: v.Votes}
	var unknown []runtime.NodeID
	for _, server := range v.Group {
		head, ok := lt.headAt(v.Shard, server)
		if !ok {
			unknown = append(unknown, server)
			continue
		}
		d.headed[head] = append(d.headed[head], server)
	}
	for id, nodes := range d.headed {
		if v.Votes.HasWrite(nodes) {
			d.found = true
			d.winner = id
			return d
		}
	}
	if len(d.headed) == 0 {
		return d // nothing known yet
	}
	for _, nodes := range d.headed {
		lt.scratchReach = append(append(lt.scratchReach[:0], nodes...), unknown...)
		if v.Votes.HasWrite(lt.scratchReach) {
			return d // someone could still reach a write quorum: no decision yet
		}
	}
	// Tie: resolve by score, then smallest identifier among the leaders.
	best := -1
	var winner agent.ID
	for id, nodes := range d.headed {
		score := v.Votes.Score(nodes)
		if score > best || (score == best && id.Less(winner)) {
			winner, best = id, score
		}
	}
	d.found = true
	d.winner = winner
	d.byTie = true
	return d
}
