// Staged is the optimistic counterpart of Store: a replica's data under
// the optimistic commitment protocol (internal/optimistic) keeps two tiers
// instead of one committed log.
//
//   - The stable prefix: an immutable, totally ordered log of updates the
//     decentralised election has promoted. It only ever grows at the tail
//     (DESIGN.md invariant 15), and per-key digests are computed over this
//     tier only.
//   - The tentative overlay: updates applied locally the moment they were
//     submitted or received, held in the global candidate order — sorted by
//     (Stamp, TxnID) — awaiting election. An arrival that sorts into the
//     middle of the overlay invalidates the tentative execution of every
//     later entry; the displacement is counted as rollbacks (the
//     `marp.opt.rollbacks` instrument). Nothing is re-run for it: a
//     tentative read finds the key's last writer in the overlay as it is.
//
// Reads come in two kinds, matching the two digests marpctl reports: a
// stable read sees the elected prefix only; a tentative read sees the
// overlay's last writer for the key, which is what the submitting client
// observed at local-commit time.

package store

import (
	"fmt"
	"hash/fnv"
	"math/bits"
	"sort"
)

// StagedLess is the global candidate order of the optimistic protocol:
// hybrid-clock stamp first, transaction ID as the deterministic tie-break.
// Transaction IDs encode (origin, shard, oseq) zero-padded, so the string
// order equals the numeric (origin, oseq) order within a shard and every
// replica sorts identically without coordination.
func StagedLess(a, b Update) bool {
	if a.Stamp != b.Stamp {
		return a.Stamp < b.Stamp
	}
	return a.TxnID < b.TxnID
}

// Staged is one shard's two-tier optimistic store. Like Store it is
// single-threaded: its owning replica drives it from the engine's
// execution context.
type Staged struct {
	// stable is the immutable stable prefix in chunks (see stableChunkOf);
	// its position i holds the update with Seq i+1.
	stable  [][]stableEntry
	nstable int
	// keys has every key with a stable version once, with the position of
	// its last stable writer; keyOf indexes it.
	keys    []stableKey
	keyOf   map[string]int32
	overlay []Update // tentative candidates, sorted by StagedLess
	// tier has the TxnID of every overlay entry (false) and of every stable
	// one not yet forgotten (true). A set, not a search of the sorted tiers:
	// a search needs the stamp, and one TxnID under two stamps is a duplicate
	// Stage must refuse. Forget is what keeps it from growing with the log.
	tier      map[string]bool
	rollbacks uint64
}

// stableEntry is a stable update as the prefix keeps it: its Seq is its
// position and its key an index into keys.
type stableEntry struct {
	txn, data string
	stamp     int64
	key       int32
}

type stableKey struct {
	name string
	last int // position of the key's last stable writer
}

// The stable prefix grows in chunks that are never re-allocated or copied:
// the first holds stableChunkFirst entries, each next one as many as all
// before it, up to stableChunkMax, the size of every chunk from there on.
// Positions [F<<(k-1), F<<k) are chunk k while below the cap, so a position
// finds its chunk with one bit count. A shard with a few stable updates
// costs what a slice of them would, and a long prefix leaves at most one
// chunk unfilled. Sized on des-optimistic (20 000 stable updates at each
// of five replicas, heap_live_mb median of three seeds): a first chunk of
// 4, 16, 64 or 256 entries reads 10.24 MB alike; a cap of 1024 or 4096
// reads 10.24, 256 reads 10.66 and 16384 reads 13.06, the last for the
// chunk it leaves three-quarters empty.
const (
	stableChunkShift    = 4 // stableChunkFirst = 16 entries
	stableChunkMaxShift = 10
	stableChunkFirst    = 1 << stableChunkShift
	stableChunkMax      = 1 << stableChunkMaxShift
)

// stableChunkOf returns the chunk holding position i and i's offset in it.
func stableChunkOf(i int) (chunk, off int) {
	if i >= stableChunkMax {
		return stableChunkMaxShift - stableChunkShift + i>>stableChunkMaxShift, i & (stableChunkMax - 1)
	}
	k := bits.Len(uint(i >> stableChunkShift))
	if k == 0 {
		return 0, i
	}
	return k, i - stableChunkFirst<<(k-1)
}

// NewStaged returns an empty two-tier store.
func NewStaged() *Staged {
	return &Staged{keyOf: make(map[string]int32), tier: make(map[string]bool)}
}

// Stage applies an update tentatively, inserting it at its slot in the
// candidate order. It returns how many later overlay entries the insertion
// displaced — tentative executions that were rolled back and re-executed
// against the new order (zero when the update lands at the tail, the common
// case for a fresh local submit). A transaction the index holds — tentative,
// or stable and not forgotten — is rejected as a duplicate; the replica's
// contiguous-delivery counters make that a protocol bug, not a network
// artifact.
func (s *Staged) Stage(u Update) (displaced int, err error) {
	if u.TxnID == "" || u.Key == "" {
		return 0, fmt.Errorf("store: malformed staged update %+v", u)
	}
	if _, dup := s.tier[u.TxnID]; dup {
		return 0, fmt.Errorf("store: %w: %s staged twice", ErrTxnCollision, u.TxnID)
	}
	i := sort.Search(len(s.overlay), func(i int) bool { return StagedLess(u, s.overlay[i]) })
	s.overlay = append(s.overlay, Update{})
	copy(s.overlay[i+1:], s.overlay[i:])
	s.overlay[i] = u
	s.tier[u.TxnID] = false
	displaced = len(s.overlay) - 1 - i
	s.rollbacks += uint64(displaced)
	return displaced, nil
}

// PromoteUpTo runs the election's promotion step: every overlay entry with
// Stamp <= bound — by construction of the stability frontier a contiguous
// prefix of the candidate order, identical at every replica — leaves the
// overlay in order. Entries passing the guard check are appended to the
// stable prefix with the next stable sequence number; losers are aborted.
// guardOK may be nil (no constraints — every candidate wins). promoted is
// how many were appended: the prefix's last promoted positions, read with
// StableAt.
func (s *Staged) PromoteUpTo(bound int64, guardOK func(Update) bool) (promoted int, aborted []Update) {
	n := 0
	for ; n < len(s.overlay) && s.overlay[n].Stamp <= bound; n++ {
		u := s.overlay[n]
		if guardOK != nil && !guardOK(u) {
			delete(s.tier, u.TxnID)
			aborted = append(aborted, u)
			continue
		}
		s.appendStable(u)
		promoted++
	}
	if n > 0 {
		s.overlay = s.overlay[:copy(s.overlay, s.overlay[n:])]
	}
	return promoted, aborted
}

// appendStable puts u at the stable prefix's tail, whatever its Seq says.
func (s *Staged) appendStable(u Update) {
	k, ok := s.keyOf[u.Key]
	if !ok {
		k = int32(len(s.keys))
		s.keys = append(s.keys, stableKey{name: u.Key})
		s.keyOf[u.Key] = k
	}
	s.keys[k].last = s.nstable
	chunk, off := stableChunkOf(s.nstable)
	if off == 0 { // a chunk below the cap is as long as the prefix before it
		s.stable = append(s.stable, make([]stableEntry, 0, min(max(s.nstable, stableChunkFirst), stableChunkMax)))
	}
	s.stable[chunk] = append(s.stable[chunk], stableEntry{txn: u.TxnID, data: u.Data, stamp: u.Stamp, key: k})
	s.nstable++
	s.tier[u.TxnID] = true
}

// RestoreStable appends an already-elected update to the stable prefix —
// the journal-replay path. The update must carry the next stable sequence
// number and a TxnID the index does not hold; anything else is corruption.
func (s *Staged) RestoreStable(u Update) error {
	if u.Seq != uint64(s.nstable+1) {
		return fmt.Errorf("store: %w: stable restore seq %d, want %d", ErrSeqGap, u.Seq, s.nstable+1)
	}
	if _, dup := s.tier[u.TxnID]; dup {
		return fmt.Errorf("store: %w: %s restored twice", ErrTxnCollision, u.TxnID)
	}
	s.appendStable(u)
	return nil
}

// Get returns the stable value for key — the elected, immutable state.
func (s *Staged) Get(key string) (Value, bool) {
	k, ok := s.keyOf[key]
	if !ok {
		return Value{}, false
	}
	u := s.StableAt(s.keys[k].last)
	return Value{Data: u.Data, Version: u.version()}, true
}

// TentativeGet returns the tentative view of key: the overlay's last writer
// in candidate order, falling back to the stable value. This is what the
// submitting client observed at local-commit time.
func (s *Staged) TentativeGet(key string) (Value, bool) {
	for i := len(s.overlay) - 1; i >= 0; i-- {
		if u := s.overlay[i]; u.Key == key {
			return Value{Data: u.Data, Version: Version{Stamp: u.Stamp, Writer: u.TxnID}}, true
		}
	}
	return s.Get(key)
}

// StableWriter returns the TxnID of key's last stable writer ("" if the
// key has no stable version) — the value optimistic CAS guards compare.
func (s *Staged) StableWriter(key string) string {
	k, ok := s.keyOf[key]
	if !ok {
		return ""
	}
	return s.entry(s.keys[k].last).txn
}

// StableLog returns a copy of the stable prefix in election order.
func (s *Staged) StableLog() []Update {
	out := make([]Update, s.nstable)
	for i := range out {
		out[i] = s.StableAt(i)
	}
	return out
}

// StableLen returns the stable prefix length without copying.
func (s *Staged) StableLen() int { return s.nstable }

func (s *Staged) entry(i int) *stableEntry {
	chunk, off := stableChunkOf(i)
	return &s.stable[chunk][off]
}

// StableAt returns the i-th stable update (0-based) without copying the log.
func (s *Staged) StableAt(i int) Update {
	e := s.entry(i)
	return Update{TxnID: e.txn, Key: s.keys[e.key].name, Data: e.data, Seq: uint64(i + 1), Stamp: e.stamp}
}

// Overlay returns a copy of the tentative overlay in candidate order.
func (s *Staged) Overlay() []Update {
	out := make([]Update, len(s.overlay))
	copy(out, s.overlay)
	return out
}

// OverlayLen returns the tentative overlay depth without copying.
func (s *Staged) OverlayLen() int { return len(s.overlay) }

// TentativeWriters returns the TxnIDs of the overlay entries writing key,
// in candidate order (nil when there are none) — the notAfter edges of the
// key's next writer.
func (s *Staged) TentativeWriters(key string) []string {
	var txns []string
	for i := range s.overlay {
		if s.overlay[i].Key == key {
			txns = append(txns, s.overlay[i].TxnID)
		}
	}
	return txns
}

// InStable reports whether txn has been promoted into the stable prefix and
// not been forgotten since.
func (s *Staged) InStable(txn string) bool { return s.tier[txn] }

// Forget drops a stable txn from the index: InStable stops reporting it and
// Stage and RestoreStable stop refusing it, while the stable prefix itself
// keeps the update. The owner calls it once nothing can present txn again —
// the optimistic replica when the action is stable at every replica, from
// where on its delivery counter is what refuses a duplicate. An overlay
// entry is never forgotten: the election still has to find it.
func (s *Staged) Forget(txn string) {
	if s.tier[txn] {
		delete(s.tier, txn)
	}
}

// InOverlay reports whether txn is still tentative.
func (s *Staged) InOverlay(txn string) bool {
	stable, staged := s.tier[txn]
	return staged && !stable
}

// Rollbacks returns the cumulative count of tentative executions displaced
// by out-of-order arrivals.
func (s *Staged) Rollbacks() uint64 { return s.rollbacks }

// StableDigest folds the stable prefix into an order-DEPENDENT digest:
// unlike the commit-set digest of the pessimistic path (which MARP's
// per-key serialization makes order-free), the optimistic stable prefix is
// one total order, and two replicas agree only if they elected the same
// updates in the same sequence.
func (s *Staged) StableDigest() (string, int) {
	h := fnv.New64a()
	for _, chunk := range s.stable {
		for _, e := range chunk {
			h.Write([]byte(s.keys[e.key].name))
			h.Write([]byte{0})
			h.Write([]byte(e.txn))
			h.Write([]byte{0})
			h.Write([]byte(e.data))
			h.Write([]byte{0xff})
		}
	}
	return fmt.Sprintf("%016x", h.Sum64()), s.nstable
}
