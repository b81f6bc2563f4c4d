// Package quorum implements vote assignments and read/write quorum
// arithmetic for replicated data, after Thomas's Majority Consensus Voting
// (MCV) and Gifford's weighted voting — the two schemes the paper builds on
// (§3.1) — plus the structured tree and grid geometries that shrink write
// quorums toward O(√N). The MARP protocol of internal/core and the
// message-passing baselines of internal/baseline (MCV's and primary-copy's
// round size is Equal(...).Majority()) both consult this package, so they
// are guaranteed to agree on what constitutes a quorum.
package quorum

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/runtime"
)

// Assignment is a quorum geometry over a fixed replica set: it decides
// which subsets of the replicas constitute read and write quorums. Every
// implementation guarantees W∩W and W∩R intersection — any two write
// quorums share a replica, and any write quorum shares a replica with any
// read quorum — so a protocol that collects a write quorum of grants (or
// acknowledgements) excludes every concurrent writer and is visible to
// every subsequent quorum read.
type Assignment interface {
	// Nodes returns the participating replicas in ascending order.
	Nodes() []runtime.NodeID
	// HasWrite reports whether nodes contain a write quorum.
	// Duplicates and replicas outside the assignment are ignored.
	HasWrite(nodes []runtime.NodeID) bool
	// HasRead reports whether nodes contain a read quorum.
	HasRead(nodes []runtime.NodeID) bool
	// Score ranks partial progress toward a write quorum (larger is
	// stronger); the protocol uses it only to break ties between
	// competing agents, never to grant a quorum.
	Score(nodes []runtime.NodeID) int
	// MinWrite returns the size (in replicas) of a smallest write
	// quorum.
	MinWrite() int
	// Name identifies the geometry ("majority", "weighted", "tree",
	// "grid") for tables and diagnostics.
	Name() string
}

// Voting is the vote-counting Assignment: each replica carries a vote
// weight and any set holding more than half the total votes is both a
// write and a read quorum. Equal weights give Thomas's majority consensus;
// explicit weights give Gifford's weighted voting.
type Voting struct {
	votes map[runtime.NodeID]int
	total int
}

// Equal assigns one vote to every node — plain majority consensus, the
// scheme used by the paper's protocol ("a quorum of replicas of an object is
// simply any majority of its copies").
func Equal(nodes []runtime.NodeID) Voting {
	v := make(map[runtime.NodeID]int, len(nodes))
	for _, n := range nodes {
		v[n] = 1
	}
	return Voting{votes: v, total: len(nodes)}
}

// Weighted assigns explicit vote counts (Gifford's weighted voting).
// Non-positive vote counts panic: a replica with zero votes is simply not
// part of the assignment.
func Weighted(votes map[runtime.NodeID]int) Voting {
	v := make(map[runtime.NodeID]int, len(votes))
	total := 0
	for n, k := range votes {
		if k <= 0 {
			panic(fmt.Sprintf("quorum: non-positive votes %d for node %d", k, n))
		}
		v[n] = k
		total += k
	}
	return Voting{votes: v, total: total}
}

// Votes returns node's vote count (0 if not in the assignment).
func (a Voting) Votes(n runtime.NodeID) int { return a.votes[n] }

// Total returns the total number of votes.
func (a Voting) Total() int { return a.total }

// Nodes returns the participating nodes in ascending order.
func (a Voting) Nodes() []runtime.NodeID {
	out := make([]runtime.NodeID, 0, len(a.votes))
	for n := range a.votes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Majority returns the smallest vote count that exceeds half the total:
// floor(total/2) + 1.
func (a Voting) Majority() int { return a.total/2 + 1 }

// Count sums the votes of the given nodes (duplicates counted once).
func (a Voting) Count(nodes []runtime.NodeID) int {
	sum := 0
	for i, n := range nodes {
		if !slices.Contains(nodes[:i], n) { // a handful of replicas: no set needed
			sum += a.votes[n]
		}
	}
	return sum
}

// IsMajority reports whether the given nodes hold more than half the votes.
func (a Voting) IsMajority(nodes []runtime.NodeID) bool {
	return a.Count(nodes) >= a.Majority()
}

// HasWrite reports whether nodes hold a vote majority — the write quorum.
func (a Voting) HasWrite(nodes []runtime.NodeID) bool { return a.IsMajority(nodes) }

// HasRead reports whether nodes hold a vote majority. Voting keeps the
// symmetric R = W = majority configuration for consistent reads; the
// paper's fast read path (read-one) bypasses quorums entirely.
func (a Voting) HasRead(nodes []runtime.NodeID) bool { return a.IsMajority(nodes) }

// Score returns the vote count of nodes.
func (a Voting) Score(nodes []runtime.NodeID) int { return a.Count(nodes) }

// MinWrite returns how many replicas the smallest vote majority needs:
// the heaviest-first prefix reaching Majority().
func (a Voting) MinWrite() int {
	weights := make([]int, 0, len(a.votes))
	for _, w := range a.votes {
		weights = append(weights, w)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(weights)))
	sum, need := 0, a.Majority()
	for i, w := range weights {
		sum += w
		if sum >= need {
			return i + 1
		}
	}
	return len(weights)
}

// Name identifies the assignment for tables.
func (a Voting) Name() string {
	for _, w := range a.votes {
		if w != 1 {
			return "weighted"
		}
	}
	return "majority"
}
