package core

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/agent"
	"repro/internal/quorum"
	"repro/internal/runtime"
)

// Referee is a simulation-only oracle that checks the protocol's central
// safety property — Theorem 2 of the paper, "there is only one highest
// priority mobile agent in the system at any time" — per shard. It observes
// every server's per-shard exclusive grant (via
// replica.Config.GrantObserver) and flags a violation the instant two
// different transactions simultaneously hold grants forming a write quorum
// of the same shard's replica group, since a validated write quorum of
// grants is what constitutes the update permission in this implementation.
// Grants on different shards are independent by design (shard isolation),
// so the oracle never relates them.
//
// The referee is pure observation: it never influences the protocol, so a
// run with a referee behaves identically to one without.
type Referee struct {
	clock      func() runtime.Time
	shards     []*refShard
	violations []string
	nodes      []runtime.NodeID // check's scratch
	atQuorum   []agent.ID       // check's scratch
}

// refShard tracks one shard's grants against its quorum geometry.
type refShard struct {
	votes  quorum.Assignment
	grants []refGrant // one per server ever granted, ascending by server
	holder agent.ID   // txn currently holding a write quorum of grants
	wins   int
}

// refGrant is one server's grant on a shard (zero = released).
type refGrant struct {
	server runtime.NodeID
	txn    agent.ID
}

// NewReferee returns a referee for an unsharded system of n equally
// weighted replicas. clock supplies the current virtual time for violation
// reports.
func NewReferee(n int, clock func() runtime.Time) *Referee {
	nodes := make([]runtime.NodeID, n)
	for i := range nodes {
		nodes[i] = runtime.NodeID(i + 1)
	}
	return NewWeightedReferee(quorum.Equal(nodes), clock)
}

// NewWeightedReferee returns an unsharded referee for an explicit vote
// assignment: the exclusion invariant becomes "no two transactions
// simultaneously hold grants forming a write quorum".
func NewWeightedReferee(votes quorum.Assignment, clock func() runtime.Time) *Referee {
	return NewShardedReferee([]quorum.Assignment{votes}, clock)
}

// NewShardedReferee returns a referee observing one grant space per shard,
// each judged against its own quorum geometry.
func NewShardedReferee(assigns []quorum.Assignment, clock func() runtime.Time) *Referee {
	r := &Referee{clock: clock}
	for _, a := range assigns {
		r.shards = append(r.shards, &refShard{votes: a})
	}
	return r
}

// OnGrant implements the grant observation hook: server's grant on shard
// shrd changed to txn (zero = released).
func (r *Referee) OnGrant(server runtime.NodeID, shrd int, txn agent.ID) {
	if shrd < 0 || shrd >= len(r.shards) {
		return
	}
	rs := r.shards[shrd]
	i, ok := slices.BinarySearchFunc(rs.grants, server, func(g refGrant, s runtime.NodeID) int {
		return cmp.Compare(g.server, s)
	})
	if !ok {
		rs.grants = slices.Insert(rs.grants, i, refGrant{server: server})
	}
	if prev := rs.grants[i].txn; !prev.IsZero() && !txn.IsZero() && txn != prev {
		r.violations = append(r.violations, fmt.Sprintf(
			"grant exclusivity violated at %v: server %d shard %d reassigned %v -> %v without release",
			r.clock(), server, shrd, prev, txn))
	}
	rs.grants[i].txn = txn
	r.check(shrd, rs)
}

// check judges every transaction holding grants on the shard, in the order
// of its lowest granting server.
func (r *Referee) check(shrd int, rs *refShard) {
	atQuorum := r.atQuorum[:0]
	for i, g := range rs.grants {
		if g.txn.IsZero() || slices.ContainsFunc(rs.grants[:i], func(h refGrant) bool { return h.txn == g.txn }) {
			continue
		}
		nodes := r.nodes[:0]
		for _, h := range rs.grants[i:] {
			if h.txn == g.txn {
				nodes = append(nodes, h.server)
			}
		}
		r.nodes = nodes
		if rs.votes.HasWrite(nodes) {
			atQuorum = append(atQuorum, g.txn)
		}
	}
	r.atQuorum = atQuorum
	switch {
	case len(atQuorum) > 1:
		r.violations = append(r.violations, fmt.Sprintf(
			"mutual exclusion violated at %v: %d agents hold grant write quorums on shard %d: %v",
			r.clock(), len(atQuorum), shrd, atQuorum))
	case len(atQuorum) == 1:
		if rs.holder != atQuorum[0] {
			rs.holder = atQuorum[0]
			rs.wins++
		}
	default:
		rs.holder = agent.ID{}
	}
}

// Holder returns the transaction currently holding a write quorum of
// shard-0 grants (zero if none).
func (r *Referee) Holder() agent.ID { return r.shards[0].holder }

// Wins reports how many distinct times some transaction reached a grant
// write quorum, summed over shards.
func (r *Referee) Wins() int {
	total := 0
	for _, rs := range r.shards {
		total += rs.wins
	}
	return total
}

// Violations returns the recorded safety violations (empty on a correct run).
func (r *Referee) Violations() []string {
	out := make([]string, len(r.violations))
	copy(out, r.violations)
	return out
}

// Err returns an error summarizing violations, or nil if none occurred.
func (r *Referee) Err() error {
	if len(r.violations) == 0 {
		return nil
	}
	return fmt.Errorf("referee: %d violation(s), first: %s", len(r.violations), r.violations[0])
}
