// Package store implements the versioned data store kept by each replica.
//
// The paper's replicas hold "copies of the replicated data" together with
// the time of last update; the winning agent inspects the last-update times
// of the quorum members to find the most recent copy, then broadcasts an
// UPDATE that every server applies tentatively and a COMMIT that finalizes
// it (paper §3.1). Store models exactly that two-step application, plus the
// "background information transfer" the paper assigns to replicas: a
// committed-update log that lets a recovering replica pull the updates it
// missed, in order.
//
// Updates are totally ordered by a global sequence number. The MARP lock
// serializes writers, so sequence numbers increase by exactly one; Store
// enforces that, turning any ordering bug in the protocol layer into an
// immediate error instead of silent divergence.
package store

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/wire"
)

// Version identifies one committed state of a key.
type Version struct {
	Seq    uint64 // global update sequence number (1-based; 0 = never written)
	Stamp  int64  // virtual time of the update, nanoseconds (the "time of last update")
	Writer string // ID of the agent/transaction that wrote it
}

// Less reports whether v is older than u. Seq is authoritative; Stamp only
// breaks ties for diagnostics (two committed versions never share a Seq).
func (v Version) Less(u Version) bool {
	if v.Seq != u.Seq {
		return v.Seq < u.Seq
	}
	return v.Stamp < u.Stamp
}

// Value is a versioned datum.
type Value struct {
	Data    string
	Version Version
}

// Update is one write in the global order.
type Update struct {
	TxnID string // unique transaction (agent) identifier
	Key   string
	Data  string
	Seq   uint64
	Stamp int64
}

func (u Update) version() Version { return Version{Seq: u.Seq, Stamp: u.Stamp, Writer: u.TxnID} }

// AppendUpdate appends u in wire-codec form (at least 5 bytes). It is the
// one encoding of an update: the replica's messages carry it, and the
// journal (internal/durable) writes its records and snapshots with it.
func AppendUpdate(b []byte, u Update) []byte {
	b = wire.AppendString(b, u.TxnID)
	b = wire.AppendString(b, u.Key)
	b = wire.AppendString(b, u.Data)
	b = wire.AppendUvarint(b, u.Seq)
	return wire.AppendVarint(b, u.Stamp)
}

// DecodeUpdate reads an update written by AppendUpdate.
func DecodeUpdate(r *wire.Reader) Update {
	return Update{
		TxnID: r.String(),
		Key:   r.String(),
		Data:  r.String(),
		Seq:   r.Uvarint(),
		Stamp: r.Varint(),
	}
}

// Errors returned by Store operations.
var (
	ErrSeqGap       = errors.New("store: update sequence gap, sync required")
	ErrStale        = errors.New("store: update older than committed state")
	ErrUnknownTxn   = errors.New("store: unknown transaction")
	ErrTxnCollision = errors.New("store: transaction already prepared")
)

// Journal receives every state-changing store operation after it has been
// validated, in execution order. The durability subsystem (internal/durable)
// implements it over a write-ahead log; a recovering replica rebuilds its
// store from a snapshot plus the journaled suffix. Each callback fires only
// after the operation succeeded, so replaying the journal against the
// snapshot cannot fail.
type Journal interface {
	// Prepared logs a tentatively staged update.
	Prepared(u Update)
	// Committed logs the finalization of a prepared transaction.
	Committed(txnID string)
	// Applied logs a directly applied committed update (the COMMIT
	// broadcast and anti-entropy paths). This is the record a durable
	// replica must never lose: implementations treat it as a commit
	// barrier for their fsync policy.
	Applied(u Update)
	// Aborted logs a discarded tentative transaction.
	Aborted(txnID string)
}

// Store is a single replica's data store. It is not safe for concurrent use;
// each simulated or real server owns one and accesses it from its event loop.
type Store struct {
	log       commitLog         // committed updates: Seq 1 onwards
	tentative map[string]Update // keyed by TxnID
	journal   Journal           // nil = volatile store (the default)
}

// New returns an empty store.
func New() *Store { return &Store{tentative: make(map[string]Update)} }

// SetJournal attaches (or, with nil, detaches) the store's durability
// journal. Mutations made while attached are logged after they succeed.
func (s *Store) SetJournal(j Journal) { s.journal = j }

// State is the serializable form of a Store: the committed log (from which
// the key-value state is derivable; Seq 1 onwards, gapless) plus the
// tentative set. It is what a durability snapshot carries.
type State struct {
	Log       []Update
	Tentative []Update
}

// State captures the store's full state for a snapshot.
func (s *Store) State() State {
	st := State{Log: s.Log()}
	for _, u := range s.tentative {
		st.Tentative = append(st.Tentative, u)
	}
	sort.Slice(st.Tentative, func(i, j int) bool { return st.Tentative[i].TxnID < st.Tentative[j].TxnID })
	return st
}

// FromState rebuilds a store from a captured State. The returned store has
// no journal attached; recovery attaches one after replay so the rebuild
// itself is not re-logged. The log's i-th update is taken to carry Seq i+1,
// as State writes it.
func FromState(st State) *Store {
	s := New()
	for _, u := range st.Log {
		s.log.add(u)
	}
	for _, u := range st.Tentative {
		s.tentative[u.TxnID] = u
	}
	return s
}

// Get returns the committed value for key.
func (s *Store) Get(key string) (Value, bool) { return s.log.get(key) }

// VersionOf returns the committed version of key (zero Version if absent).
func (s *Store) VersionOf(key string) Version {
	v, _ := s.log.get(key)
	return v.Version
}

// LastSeq returns the highest committed sequence number.
func (s *Store) LastSeq() uint64 { return uint64(s.log.len()) }

// Prepare stages an update tentatively (the server's reaction to an UPDATE
// message). It validates the global ordering: the update must carry exactly
// the next sequence number. A stale update (already committed here) returns
// ErrStale; a gap returns ErrSeqGap, signalling that the replica missed
// updates while failed and must sync before acknowledging.
func (s *Store) Prepare(u Update) error {
	if u.TxnID == "" || u.Key == "" {
		return fmt.Errorf("store: malformed update %+v", u)
	}
	if _, dup := s.tentative[u.TxnID]; dup {
		return ErrTxnCollision
	}
	switch last := s.LastSeq(); {
	case u.Seq <= last:
		return ErrStale
	case u.Seq != last+1:
		return ErrSeqGap
	}
	s.tentative[u.TxnID] = u
	if s.journal != nil {
		s.journal.Prepared(u)
	}
	return nil
}

// Commit finalizes a prepared update (the server's reaction to a COMMIT
// message). Committing is idempotent with respect to Abort-after-Commit but
// an unknown TxnID returns ErrUnknownTxn.
func (s *Store) Commit(txnID string) error {
	u, ok := s.tentative[txnID]
	if !ok {
		return ErrUnknownTxn
	}
	delete(s.tentative, txnID)
	if last := s.LastSeq(); u.Seq != last+1 {
		// Another path (anti-entropy) may have applied it already.
		if u.Seq <= last {
			if s.journal != nil {
				s.journal.Committed(txnID)
			}
			return nil
		}
		return ErrSeqGap
	}
	s.log.add(u)
	if s.journal != nil {
		s.journal.Committed(txnID)
	}
	return nil
}

// Abort discards a prepared update. Unknown transactions are ignored.
func (s *Store) Abort(txnID string) {
	if _, ok := s.tentative[txnID]; !ok {
		return
	}
	delete(s.tentative, txnID)
	if s.journal != nil {
		s.journal.Aborted(txnID)
	}
}

// Pending reports the number of prepared-but-uncommitted updates.
func (s *Store) Pending() int { return len(s.tentative) }

// ApplyCommitted applies an already-globally-committed update directly,
// bypassing the prepare/commit handshake. It is the anti-entropy path used
// by a recovering replica. Already-applied updates are no-ops; gaps are
// rejected so callers must replay in order.
func (s *Store) ApplyCommitted(u Update) error {
	if last := s.LastSeq(); u.Seq <= last {
		return nil
	} else if u.Seq != last+1 {
		return ErrSeqGap
	}
	s.log.add(u)
	if s.journal != nil {
		s.journal.Applied(u)
	}
	return nil
}

// UpdatesSince returns the committed updates with Seq greater than seq, in
// order — the payload of a background information transfer to a recovering
// peer.
func (s *Store) UpdatesSince(seq uint64) []Update { return s.log.since(int(min(seq, s.LastSeq()))) }

// Log returns a copy of the full committed update log.
func (s *Store) Log() []Update { return s.log.since(0) }

// LogLen returns the committed update count without copying the log — the
// ops plane samples it on every scrape.
func (s *Store) LogLen() int { return s.log.len() }

// Keys returns the committed keys in sorted order.
func (s *Store) Keys() []string { return s.log.sortedKeys() }

// Snapshot returns a copy of the committed state.
func (s *Store) Snapshot() map[string]Value {
	out := make(map[string]Value, len(s.log.keys))
	for _, k := range s.log.keys {
		out[k.name], _ = s.log.get(k.name)
	}
	return out
}
