// Package optimistic implements the third replication protocol behind the
// runtime seam: optimistic asynchronous commitment in the style of
// Sutra–Shapiro's decentralised commitment for optimistic semantic
// replication (PAPERS.md), answering the source paper's §6 speculation
// about WAN deployment with a protocol that never pays wide-area latency
// on the submit path.
//
// Where MARP is pessimistic — an agent must head a majority of Locking
// Lists before any replica applies an update — the optimistic protocol
// commits every submit TENTATIVELY at the local replica immediately, at
// local-disk latency. A mobile reconciliation agent then carries the
// action and its constraints (the hybrid-clock stamp that orders it, the
// notAfter dependency edges onto the same-key tentative updates its origin
// observed, and an optional CAS guard) along a background itinerary that
// visits every other replica once.
// Replicas exchange constraint knowledge epidemically through these
// agents, and a quorum-LESS, fully decentralised election promotes
// tentative updates into an immutable stable prefix — every replica
// computes the same election locally, from evidence alone, and no replica
// ever waits for a vote.
//
// # The candidate order and the election
//
// Every action is stamped from its origin's hybrid logical clock and
// identified by (origin, shard, oseq) — oseq a per-origin, per-shard
// contiguous counter. The clock is a Lamport clock that also never reads
// below physical time (the engine clock, plus a wall-clock base on a live
// node, in nanoseconds): a submit stamps max(clock+1, physical), a
// self-report first lifts the clock to physical, and every stamp or report
// received merges in as before. The global candidate order per shard is
// (Stamp, TxnID), a total order every replica computes identically; the
// merge rule makes it causality-consistent, so an action's notAfter
// dependencies always sort strictly before it and the order provably
// extends the constraint graph the agents carry (accept asserts this).
// Physical time only decides how soon: an origin's clock passes a peer's
// stamp without first hearing of it, so stability waits for reports to
// travel one way instead of a round trip, and where clocks agree the
// stable order is the submit order. A lagging or skewed clock costs
// latency, never safety — it degrades to plain Lamport stamping.
//
// A replica may promote the order's prefix up to a stability bound B once
// it can prove it holds EVERY action any origin stamped at or below B.
// The proof is evidence-based: each agent carries Know entries — origin o
// reported clock C having issued k actions on the shard — and the receiver
// credits the entry only once its own contiguous-delivery counter for o
// reaches k. The bound is the minimum credited clock across all origins.
// Because every candidate at or below the bound is present and the order
// is deterministic, election needs no quorum and no messages: replicas
// promote identical prefixes independently, possibly at different times.
// Losers — candidates whose CAS guard no longer matches the stable state —
// abort deterministically everywhere.
//
// # What the optimism costs
//
// A tentative update that arrives with a stamp ordering it before
// already-staged tentative updates displaces them: their tentative
// executions are void under the new order (`marp.opt.rollbacks` counts
// them; reads scan the overlay, so nothing re-runs). Stability lags the
// tentative commit by the time a report made after the submit takes to
// arrive from every origin (`marp.opt.stability_lag`): a partitioned or
// crashed origin freezes the bound — tentative commits continue
// everywhere, but nothing promotes until it returns. That is the
// protocol's availability trade, measured against MARP in experiment A10.
//
// # Recovery
//
// Optimistic replicas survive crashes only with a journal (volatile MARP
// replicas can rebuild from a majority; a volatile optimistic replica
// could re-mint an oseq peers already hold, which is unrecoverable).
// Four barrier rules keep recovery sound — own tentatives fsync before
// the gossip layer may advertise them, stable promotions fsync before
// anything else leaves the node, so does the abort that ends an election
// batch, and the clock journals a high-water mark ahead of itself before
// being advertised — so a restart never reuses an action identity, never
// regresses an advertised clock, never drops or reorders the stable prefix
// (DESIGN.md invariant 15) and never falls back behind a stable frontier it
// advertised.
//
// # What a replica keeps
//
// The stable prefix is the database and stays whole. Everything else a
// replica holds about an action — the action itself, for peers that lack
// it and for its guard; its TxnID in the store's index — it holds until the
// action is decided at every replica: each self-report carries the
// replica's stable frontier, the minimum over all N is the shard's
// stable-everywhere watermark, and at or below it a history is a count
// (DESIGN.md invariant 17). Nothing configures it.
package optimistic

import (
	"fmt"
	"strconv"
	"time"

	"repro/internal/disk"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/wal"
)

// GuardUnwritten is the CAS guard expecting the key to have no stable
// version yet. The empty guard means unconditional (last-writer-wins).
const GuardUnwritten = "!unwritten"

// Action is one tentative update plus the constraints the reconciliation
// agents carry for it. An action is immutable once built: the history that
// holds it, the agents that carry it and the journal all share it.
type Action struct {
	Origin runtime.NodeID
	OSeq   uint64 // per-(origin, shard) contiguous counter, 1-based
	Shard  int
	Stamp  int64 // origin's hybrid clock at submit (nanoseconds)
	Key    string
	Data   string
	// Guard is the optional CAS constraint: the TxnID the key's last
	// stable writer must carry at election time (GuardUnwritten for "no
	// stable writer yet"; empty for unconditional).
	Guard string
	// Deps are the notAfter constraint edges: the TxnIDs of the same-key
	// tentative updates the origin had staged when this action was
	// submitted. The candidate order provably schedules every dep first;
	// accept asserts it.
	Deps []string

	// txn is the TxnID, built once where the action enters the process
	// (submit, wire decode, journal replay). Derived: never on the wire.
	txn string
}

// A TxnID is "oNNN-sNNN-NNNNNNNNN", zero-padded so that the string order of
// IDs equals the numeric (origin, oseq) order within a shard — the
// election's tie-break relies on it (store.StagedLess).
const (
	txnIDLen    = 19
	maxTxnField = 999         // origin and shard: three digits
	maxTxnOSeq  = 999_999_999 // nine digits
)

// TxnID returns the action's globally unique transaction ID (formatted on
// the spot for a bare literal, which has none built).
func (a Action) TxnID() string {
	if a.txn == "" {
		return OptTxnID(a.Origin, a.Shard, a.OSeq)
	}
	return a.txn
}

// identified returns a with its TxnID built and cached.
func (a Action) identified() Action {
	a.txn = OptTxnID(a.Origin, a.Shard, a.OSeq)
	return a
}

// OptTxnID builds the canonical optimistic transaction ID. Values wider
// than the padding (no cluster Config accepts has them) still get a unique
// ID, which ParseTxnID refuses.
func OptTxnID(origin runtime.NodeID, shrd int, oseq uint64) string {
	if origin < 0 || origin > maxTxnField || shrd < 0 || shrd > maxTxnField || oseq > maxTxnOSeq {
		return fmt.Sprintf("o%03d-s%03d-%09d", origin, shrd, oseq)
	}
	b := [txnIDLen]byte{0: 'o', 4: '-', 5: 's', 9: '-'}
	putDigits(b[1:4], uint64(origin))
	putDigits(b[6:9], uint64(shrd))
	putDigits(b[10:], oseq)
	return string(b[:])
}

func putDigits(b []byte, v uint64) {
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = byte('0' + v%10)
		v /= 10
	}
}

// ParseTxnID decodes a canonical optimistic transaction ID, and only that:
// ParseTxnID(x) succeeds exactly when OptTxnID of its results is x, so no
// two strings name one action.
func ParseTxnID(txn string) (origin runtime.NodeID, shrd int, oseq uint64, err error) {
	if len(txn) == txnIDLen && txn[0] == 'o' && txn[4] == '-' && txn[5] == 's' && txn[9] == '-' {
		// ParseUint takes digits only: no sign, no space, no underscore.
		o, err1 := strconv.ParseUint(txn[1:4], 10, 64)
		s, err2 := strconv.ParseUint(txn[6:9], 10, 64)
		q, err3 := strconv.ParseUint(txn[10:], 10, 64)
		if err1 == nil && err2 == nil && err3 == nil {
			return runtime.NodeID(o), int(s), q, nil
		}
	}
	return 0, 0, 0, fmt.Errorf("optimistic: bad txn id %q", txn)
}

// Update converts the action to its store representation (Seq is assigned
// at promotion).
func (a Action) Update() store.Update {
	return store.Update{TxnID: a.TxnID(), Key: a.Key, Data: a.Data, Stamp: a.Stamp}
}

// KnowEntry is one origin's self-report as carried by the agents: "my
// clock read Clock; by then I had issued Counts[s] actions on
// shard s, had contiguously delivered Have[s][o-1] actions from origin
// o, and had elected — durably — everything stamped at or below
// Frontier[s]". Receivers credit the clock toward their stability frontier
// only once their own delivery counters reach Counts — relayed knowledge
// alone never advances a frontier. The minimum of all N replicas' Frontier
// is the shard's stable-everywhere watermark, below which a replica keeps
// counts instead of actions (replica.truncate, DESIGN.md invariant 17).
// Entries are immutable once built (hosts on an itinerary share them);
// replacement is newest-clock-wins (supersedes), which lets the Have vector
// DECREASE after the origin recovers from a crash — that is what tells
// peers to resend the deliveries the crash erased. The clock high-water
// barrier makes newest-clock-wins sound: a recovered origin's first fresh
// report always outranks anything it advertised before the crash.
type KnowEntry struct {
	Node     runtime.NodeID
	Clock    int64
	Counts   []uint64
	Have     [][]uint64
	Frontier []int64
}

// supersedes reports whether e should replace cur, another report of the
// same origin's. A newer clock wins. Two reports with one clock come from
// one incarnation of the origin — a restart's clock rides above every clock
// advertised before it — and within an incarnation deliveries and frontiers
// only grow, so the report that shows more anywhere is the later one. A
// quiescent cluster depends on it: nothing advances its clocks, while the
// last deliveries and frontiers still have to be heard of.
func (e KnowEntry) supersedes(cur KnowEntry) bool {
	if e.Clock != cur.Clock {
		return e.Clock > cur.Clock
	}
	for s, row := range e.Have {
		for o, n := range row {
			if s >= len(cur.Have) || o >= len(cur.Have[s]) || n > cur.Have[s][o] {
				return true
			}
		}
	}
	for s, f := range e.Frontier {
		if s >= len(cur.Frontier) || f > cur.Frontier[s] {
			return true
		}
	}
	return false
}

// Recon is the reconciliation agent: the package's mobile agent, migrating
// host to host along its itinerary. At each hop it delivers the actions it
// carries, merges its knowledge table with the host's, and is re-packed by
// the host with whatever the NEXT hop is missing according to the merged
// estimates. Estimates are evidence-based and may be stale; over-delivery
// is dropped idempotently and under-delivery is healed by the next round,
// so a lost agent only delays convergence.
type Recon struct {
	From runtime.NodeID   // launching replica
	Seq  uint64           // launch counter at From (diagnostics)
	Hops []runtime.NodeID // itinerary, visited in order
	Hop  int              // index of the hop this migration targets
	Know []KnowEntry
	// Carry is the cargo, in packing order, as runs of consecutive actions
	// of one (shard, origin): each run IS a segment of the packing host's
	// history, shared like Know entries, never copied (see replica.hist for
	// why that is safe). On the wire the runs are one flat list, and a
	// decoded agent holds one run.
	Carry [][]Action
}

// Kind implements runtime.Kinder for per-kind traffic accounting.
func (*Recon) Kind() string { return "opt-recon" }

// itinerary returns the hops of the k-th agent launched at from (n ≥ 2):
// from+s, from+2s, … around the ring of n nodes, where s is the
// (k mod φ(n))-th stride coprime to n — so every itinerary visits every
// other node exactly once, and a launcher's successive agents leave by
// every such stride in turn. A fixed stride would carry knowledge one way
// round the ring only, and a report would need most of a lap to reach the
// node just behind its origin.
func itinerary(from runtime.NodeID, n int, k uint64) []runtime.NodeID {
	var strides []int
	for s := 1; s < n; s++ {
		if gcd(s, n) == 1 {
			strides = append(strides, s)
		}
	}
	s := strides[k%uint64(len(strides))]
	out := make([]runtime.NodeID, 0, n-1)
	for i := 1; i < n; i++ {
		out = append(out, runtime.NodeID((int(from)-1+i*s)%n+1))
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// DurabilityConfig arms optimistic replicas with stable storage, the
// precondition for Crash/Recover (see the package comment on recovery).
type DurabilityConfig struct {
	// Backend returns node id's stable-storage backend (disk.NewFS for a
	// live data dir, disk.NewMem for deterministic simulation). Called
	// once per local node at construction.
	Backend func(id runtime.NodeID) disk.Backend
	// Policy is the fsync policy (default wal.PolicyCommit).
	Policy wal.Policy
	// SegmentBytes and CompactEvery tune the journal (see durable).
	SegmentBytes int
	CompactEvery int
}

// Config assembles an optimistic cluster. Quorum geometry does not apply —
// the election is quorum-less by construction and every replica holds
// every shard — so unlike core.Config there are no GroupSize/Geometry
// knobs; shard routing itself (shard.Of) is shared with the pessimistic
// path, which keeps `marpctl digest` shard rows comparable.
type Config struct {
	// N is the cluster size.
	N int
	// Local lists the node IDs this process hosts (nil = all N, the
	// simulation layout; a live process hosts exactly one).
	Local []runtime.NodeID
	// Shards is the keyspace shard count (default 1). Each shard has its
	// own candidate order and stability frontier.
	Shards int
	// GossipInterval is the reconciliation-agent launch period at each
	// replica (default 50ms). Launches are staggered across replicas.
	GossipInterval time.Duration
	// MaxCarry caps the actions packed per hop (default 512); the next
	// round carries the remainder.
	MaxCarry int
	// Durability, when non-nil, journals every replica and enables
	// Crash/Recover.
	Durability *DurabilityConfig
}

func (c *Config) fill() error {
	if c.N < 1 {
		return fmt.Errorf("optimistic: config needs N >= 1, got %d", c.N)
	}
	if c.N > maxTxnField || c.Shards > maxTxnField {
		return fmt.Errorf("optimistic: N=%d, Shards=%d: a TxnID has three digits for each", c.N, c.Shards)
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.GossipInterval <= 0 {
		c.GossipInterval = 50 * time.Millisecond
	}
	if c.MaxCarry <= 0 {
		c.MaxCarry = 512
	}
	return nil
}
