// Package baseline implements the conventional message-passing replication
// protocols the paper positions MARP against (§1, §3.1):
//
//   - MCV: Majority Consensus Voting by message passing, after Thomas [11]
//     and Gifford [5] — a stationary coordinator reads the data horizon
//     from a quorum, proposes a timestamped update, collects a majority of
//     votes (each replica votes for at most one proposal per sequence
//     slot), then commits. Conflicting proposals are rejected and retried,
//     exactly the optimistic behaviour of Thomas's algorithm.
//   - AvailableCopy: the write-all/read-one protocol of Bernstein et al.
//     [2] — an update must be accepted by every available replica.
//   - PrimaryCopy: all updates funnel through a designated primary, which
//     serializes them locally and propagates to the backups.
//
// All three run on the same runtime seam and data store as MARP — an engine
// and a fabric handed in by the assembly (internal/desengine), never built
// here — so latency and traffic comparisons between the approaches measure
// protocol structure, not substrate differences. The coordinators are stationary
// processes: every round (read, vote, commit) pays wide-area round-trip
// latency, which is exactly the cost the paper argues mobile agents avoid.
package baseline

import (
	"fmt"
	"time"

	"repro/internal/runtime"
	"repro/internal/store"
)

// Kind selects the baseline protocol.
type Kind int

// The implemented baseline protocols.
const (
	MCV Kind = iota
	AvailableCopy
	PrimaryCopy
)

// String returns the protocol name.
func (k Kind) String() string {
	switch k {
	case MCV:
		return "mcv-mp"
	case AvailableCopy:
		return "available-copy"
	case PrimaryCopy:
		return "primary-copy"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// TxnID identifies one update transaction: its submit time, home and
// system-wide sequence number.
type TxnID struct {
	Born int64
	Home runtime.NodeID
	Seq  uint64
}

// String renders the ID compactly.
func (t TxnID) String() string { return fmt.Sprintf("T%d.%d", t.Home, t.Seq) }

// Result records one completed update, mirroring core.Outcome's timing
// fields so the harness can compare protocols uniformly.
type Result struct {
	Txn        TxnID
	Home       runtime.NodeID
	Dispatched runtime.Time
	LockAt     runtime.Time // vote quorum achieved (the serialization point)
	DoneAt     runtime.Time // commit broadcast sent
	Retries    int
}

// LockLatency returns the time to win the vote quorum.
func (r Result) LockLatency() runtime.Time { return r.LockAt - r.Dispatched }

// TotalLatency returns the time to fully process the update.
func (r Result) TotalLatency() runtime.Time { return r.DoneAt - r.Dispatched }

// primary is the replica PrimaryCopy funnels every update through.
const primary runtime.NodeID = 1

// Config is a baseline deployment's protocol configuration. The engine and
// the fabric — and with them the seed, topology and latency model — come
// from the assembly.
type Config struct {
	Kind Kind
	N    int
	// LockTimeout aborts a read or vote round that stalls (lost replies
	// under failures) and retries after a randomized backoff. Default 5s.
	LockTimeout time.Duration
	// RetryBackoff is the mean randomized retry delay after a conflict.
	// Default 50ms.
	RetryBackoff time.Duration
}

func (c *Config) fill() error {
	if c.N < 1 {
		return fmt.Errorf("baseline: config needs N >= 1, got %d", c.N)
	}
	if c.LockTimeout <= 0 {
		c.LockTimeout = 5 * time.Second
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	return nil
}

// Wire messages. Sizes model a compact binary encoding.

// readReq asks a replica for its data horizon (round 1 of MCV/AC).
type readReq struct {
	Txn   TxnID
	Round int
	From  runtime.NodeID
	Key   string
}

func (readReq) Kind() string  { return "read-req" }
func (readReq) WireSize() int { return 64 }

// readRep carries the replica's last sequence number and current value.
type readRep struct {
	Txn     TxnID
	Round   int
	From    runtime.NodeID
	LastSeq uint64
	Value   store.Value
}

func (readRep) Kind() string  { return "read-rep" }
func (readRep) WireSize() int { return 96 }

// voteReq proposes a concrete update for the next sequence slot (round 2).
type voteReq struct {
	Txn    TxnID
	Round  int
	From   runtime.NodeID
	Update store.Update
}

func (voteReq) Kind() string  { return "vote-req" }
func (voteReq) WireSize() int { return 160 }

// voteRep accepts or rejects the proposal. A replica votes for at most one
// proposal per sequence slot, so any two majorities intersect in a replica
// that voted for only one of them.
type voteRep struct {
	Txn    TxnID
	Round  int
	From   runtime.NodeID
	OK     bool
	Reason string
}

func (voteRep) Kind() string  { return "vote-rep" }
func (voteRep) WireSize() int { return 48 }

// abortReq withdraws a proposal, freeing the replica's vote slot. Round is
// the highest round being abandoned: the replica refuses any straggling
// voteReq of that round or earlier, so a vote request that lands after its
// coordinator gave up cannot reserve the slot for a sleeping coordinator.
type abortReq struct {
	Txn   TxnID
	Round int
	From  runtime.NodeID
}

func (abortReq) Kind() string  { return "abort" }
func (abortReq) WireSize() int { return 48 }

// commitReq finalizes a voted update at every replica.
type commitReq struct {
	Txn    TxnID
	From   runtime.NodeID
	Update store.Update
}

func (commitReq) Kind() string  { return "commit" }
func (commitReq) WireSize() int { return 160 }

// forward ships a request to the primary (PrimaryCopy only).
type forward struct {
	Txn  TxnID
	From runtime.NodeID
	Key  string
	Val  string
}

func (forward) Kind() string  { return "forward" }
func (forward) WireSize() int { return 96 }

// done notifies the origin that the primary finished its request.
type done struct {
	Txn    TxnID
	From   runtime.NodeID
	LockAt runtime.Time
}

func (done) Kind() string  { return "done" }
func (done) WireSize() int { return 48 }
