// Package durable gives one replica a persistent memory: every mutation of
// its store, its locking state, and its reliable-delivery endpoint is
// journaled to a write-ahead log (internal/wal) on stable storage
// (internal/disk), and Open rebuilds the exact pre-crash state from the
// newest snapshot plus the journaled suffix.
//
// The paper's recovery story (§3.1) assumes a replica that comes back
// remembers what it committed and pulls the rest from its peers; this
// package supplies the first half, and the replica's existing anti-entropy
// sync supplies the second. The record vocabulary is deliberately the
// replica's mutation vocabulary — one record per validated state change,
// in execution order — so replay is a pure re-execution and DESIGN.md
// invariant 11 ("a replica never forgets a COMMIT it acknowledged while
// its fsync policy held") falls out of the wal's commit barriers.
//
// Records use internal/wire, the one encoding of the tree (no gob), for two
// reasons: a committed update is ~40 bytes instead of ~300, and the encoding
// is deterministic, which keeps simulated durability runs byte-for-byte
// reproducible. Replay reads through wire.Reader, so a corrupt count is
// refused before anything is allocated for it.
package durable

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/agent"
	"repro/internal/disk"
	"repro/internal/reliable"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Record types. Values are part of the on-disk format: never renumber.
const (
	recApply     byte = 1 // store.Update applied committed (commit barrier)
	recPrepare   byte = 2 // store.Update staged tentatively
	recCommitTxn byte = 3 // tentative transaction finalized (commit barrier)
	recAbortTxn  byte = 4 // tentative transaction discarded
	recLock      byte = 5 // full locking-state snapshot (LL, grant, versions)
	recGone      byte = 6 // agent added to the Updated List / gone set
	recRelNext   byte = 7 // reliable-delivery send-sequence high-water mark
	recRelSeen   byte = 8 // retired per-frame receive record (before receive windows): refused, never reuse
	recLockS     byte = 9 // locking-state snapshot of a shard > 0 (shard-prefixed)

	recGoneMark byte = 10 // gone-set watermark raised (agent.Watermark)
	recRelMark  byte = 11 // reliable-delivery receive window: watermark raised, frames held above it
)

// Open and OpenOpt refuse a journal they cannot read right with one of
// these (wrapped with the detail), never with a panic.
var (
	// ErrSnapshotLayout: no tag this build reads; an untagged snapshot is a
	// retired layout.
	ErrSnapshotLayout = errors.New("durable: snapshot is not in a layout this build reads")
	ErrOtherKind      = errors.New("durable: snapshot belongs to the other journal kind")
	ErrShardCount     = errors.New("durable: journal written under another shard count than the replica's")
	ErrRetiredRecord  = errors.New("durable: retired record type")
)

// LockState is the serializable locking state of a replica: the Locking
// List and grant that Algorithm 2 mutates, plus the monotone counters that
// keep stale-evidence checks sound across restarts.
type LockState struct {
	Epoch        uint64
	LLVersion    uint64
	HeadVersion  uint64
	LL           []agent.ID
	Grant        agent.ID
	GrantAttempt int
}

// State is everything a recovering replica restores: the data store, the
// locking state, the gone set (Updated List: watermarks in Marks, the
// residue no watermark covers in Gone), and the reliable-delivery endpoint
// state (send counter and per-sender receive windows).
type State struct {
	Store      store.State
	Lock       LockState
	Gone       []agent.ID
	Marks      []agent.Watermark
	RelNextSeq uint64
	RelSeen    map[runtime.NodeID]reliable.Window
	// Sharded replicas (shard-isolation invariant: every shard journals
	// and restores independently) carry one extra store/lock pair per
	// shard beyond the first: index i holds shard i+1. Empty on unsharded
	// replicas.
	ExtraStores []store.State
	ExtraLocks  []LockState
}

// BirthFloor returns the largest timestamp the state remembers — agent
// birth times in the lock and gone records, the positions the gone-set
// watermarks reach, commit stamps in the store. A recovering node feeds
// this to agent.Platform.AdvanceBirth: engines restart their clocks at
// zero, and an agent ID minted below the floor would lie under a persisted
// watermark (or collide with a gone entry) and be refused forever.
func (st *State) BirthFloor() int64 {
	var floor int64
	bump := func(v int64) {
		if v > floor {
			floor = v
		}
	}
	for _, id := range st.Gone {
		bump(id.Born)
	}
	for _, w := range st.Marks {
		bump(w.Upto.Born)
	}
	locks := append([]LockState{st.Lock}, st.ExtraLocks...)
	for _, ls := range locks {
		for _, id := range ls.LL {
			bump(id.Born)
		}
		bump(ls.Grant.Born)
	}
	stores := append([]store.State{st.Store}, st.ExtraStores...)
	for _, ss := range stores {
		for _, u := range ss.Log {
			bump(u.Stamp)
		}
		for _, u := range ss.Tentative {
			bump(u.Stamp)
		}
	}
	return floor
}

// relNextStride is how coarsely the send counters are journaled: one mark
// over all of a node's links, moved a full stride whenever any link's
// counter reaches it, and every link resumes from it after a restart.
// Sequence numbers only need to be monotone per link, so over-approximating
// after a crash is free (the receiver's window steps over the gap, see
// reliable's floor), and the stride keeps the counter off the per-send hot
// path.
const relNextStride = 64

// Options tunes a journal of either kind.
type Options struct {
	// Policy is the wal fsync policy (default wal.PolicyCommit).
	Policy wal.Policy
	// SegmentBytes is the wal segment size (default 1 MiB).
	SegmentBytes int
	// CompactEvery installs a fresh snapshot and drops the replayed log
	// every this many records (default 4096; negative disables).
	CompactEvery int
	// Shards is the replica's shard count (default 1). Replay routes each
	// store record to its key's shard, so the journal stays a single
	// ordered log while the shards restore independently. A snapshot
	// states the count it was taken with, and Open refuses another.
	Shards int
	// GroupCommitDelay enables WAL group commit (see wal.Options): commit
	// barriers park for up to this long and one fsync covers all of them.
	// Only effective once OnBarrier hooks are registered — without a way to
	// dam the node's outbound messages, deferring the fsync would break
	// invariant 11.
	GroupCommitDelay time.Duration
	// Scheduler overrides the group-commit flush scheduler (tests).
	Scheduler func(d time.Duration, fn func())
	// OnSync forwards to wal.Options.OnSync: it observes each successful
	// segment fsync's wall-clock duration for the ops plane.
	OnSync func(d time.Duration)
}

func (o Options) withDefaults() Options {
	if o.CompactEvery == 0 {
		o.CompactEvery = 4096
	}
	if o.Shards < 1 {
		o.Shards = 1
	}
	return o
}

// journal is the shell both journal kinds share: the wal under them, the
// fail-stop policy, the compaction cadence and group commit. Each kind adds
// its record vocabulary and its snapshot layout. Like every protocol-layer
// object it is single-threaded: its owner drives it from the engine's
// execution context.
//
// A stable-storage failure is fail-stop by design: a replica that cannot
// journal must not keep acknowledging, so every logging method panics on
// I/O error rather than silently degrading to volatility.
type journal struct {
	log       *wal.Log
	opts      Options
	sinceSnap int

	// Group-commit hooks (OnBarrier): hold runs synchronously when a commit
	// barrier parks instead of fsyncing; release runs once the covering
	// fsync lands (from the flush goroutine — the registrar marshals it
	// back onto the engine's execution context).
	hold    func()
	release func()
}

// openShell opens the wal on b and returns the shell with the snapshot and
// the records journaled after it.
func openShell(b disk.Backend, opts Options) (journal, []byte, []wal.Record, error) {
	opts = opts.withDefaults()
	log, snap, records, err := wal.Open(b, wal.Options{
		Policy:           opts.Policy,
		SegmentBytes:     opts.SegmentBytes,
		GroupCommitDelay: opts.GroupCommitDelay,
		Scheduler:        opts.Scheduler,
		OnSync:           opts.OnSync,
	})
	if err != nil {
		return journal{}, nil, nil, err
	}
	return journal{log: log, opts: opts, sinceSnap: len(records)}, snap, records, nil
}

// fail is the fail-stop policy for stable-storage errors.
func (j *journal) fail(err error) {
	if err != nil {
		panic("durable: journal write failed (stable storage is fail-stop): " + err.Error())
	}
}

// OnBarrier registers the group-commit hooks: hold fires synchronously
// when a commit barrier parks awaiting its covering fsync, release fires
// once that fsync lands. The cluster wires these to its send gate, which
// dams outbound messages between the two — so nothing a deferred barrier
// justifies (an ack, a grant, a migration) leaves the node before the
// barrier is durable, and invariant 11 survives group commit unchanged.
// Until it is called, every barrier fsyncs inline.
func (j *journal) OnBarrier(hold, release func()) {
	j.hold, j.release = hold, release
}

// append journals one record. A commit barrier defers through the group
// coalescer once OnBarrier has registered the hooks, and fsyncs inline
// otherwise.
func (j *journal) append(typ byte, data []byte, commit bool) {
	if commit && j.release != nil && j.opts.GroupCommitDelay > 0 && j.opts.Policy == wal.PolicyCommit {
		j.hold()
		j.fail(j.log.AppendBarrier(wal.Record{Type: typ, Data: data}, commit, j.release))
	} else {
		j.fail(j.log.Append(wal.Record{Type: typ, Data: data}, commit))
	}
	j.sinceSnap++
}

// compactDue reports whether CompactEvery records have accumulated since
// the last snapshot.
func (j *journal) compactDue() bool {
	return j.opts.CompactEvery > 0 && j.sinceSnap >= j.opts.CompactEvery
}

// saveSnapshot installs snap as the log's snapshot, superseding every
// record so far.
func (j *journal) saveSnapshot(snap []byte) error {
	if err := j.log.SaveSnapshot(snap); err != nil {
		return err
	}
	j.sinceSnap = 0
	return nil
}

// Sync flushes the journal tail to stable storage regardless of policy.
func (j *journal) Sync() error { return j.log.Sync() }

// Close syncs and closes the journal — the graceful-shutdown path, after
// which the next open replays a clean log with nothing torn and nothing
// lost.
func (j *journal) Close() error { return j.log.Close() }

// Kill abandons the journal without syncing — the crash path for
// simulated restarts. Pair with the backend's Crash.
func (j *journal) Kill() { j.log.Kill() }

// Stats returns the underlying wal counters.
func (j *journal) Stats() wal.Stats { return j.log.Stats() }

// Journal is one MARP replica's open durability log. It implements
// store.Journal and reliable.Journal, and the replica logs its locking
// mutations through LogLockShard/LogGone.
type Journal struct {
	journal
	sources   []func(*State)
	relNextHi uint64 // highest send counter journaled so far
}

// Open replays the journal on b and returns the recovered state, or a nil
// state when the backend holds no history (a fresh data dir).
func Open(b disk.Backend, opts Options) (*Journal, *State, error) {
	sh, snap, records, err := openShell(b, opts)
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{journal: sh}
	if snap == nil && len(records) == 0 {
		return j, nil, nil
	}
	st, err := replay(snap, records, sh.opts.Shards)
	if err != nil {
		return nil, nil, err
	}
	j.relNextHi = st.RelNextSeq
	return j, st, nil
}

// replay rebuilds the replica state from a snapshot (nil = empty) and the
// records journaled after it, in order. Records were only ever written for
// operations that succeeded, so any replay error is corruption. Store
// records route to their key's shard; lock records carry their shard
// explicitly (shard 0's has a record type of its own).
func replay(snap []byte, records []wal.Record, shards int) (*State, error) {
	st := &State{RelSeen: make(map[runtime.NodeID]reliable.Window)}
	if snap != nil {
		s, err := decodeState(snap)
		if err != nil {
			return nil, err
		}
		if n := 1 + len(s.ExtraStores); n != shards {
			return nil, fmt.Errorf("%w: the snapshot holds %d, the replica has %d", ErrShardCount, n, shards)
		}
		st = s
	}
	st.fit(shards)
	mems := make([]*store.Store, shards)
	mems[0] = store.FromState(st.Store)
	for i := 1; i < shards; i++ {
		mems[i] = store.FromState(st.ExtraStores[i-1])
	}
	// The residue (the snapshot's, and recGone records) stays until a
	// watermark replayed after it covers it.
	var gone agent.GoneSet
	gone.Merge(st.Marks, st.Gone)
	var r wire.Reader
	for i, rec := range records {
		var err error
		r.Reset(rec.Data)
		switch rec.Type {
		case recApply:
			u := store.DecodeUpdate(&r)
			if err = r.Finish(); err == nil {
				err = mems[shard.Of(u.Key, shards)].ApplyCommitted(u)
			}
		case recPrepare:
			u := store.DecodeUpdate(&r)
			if err = r.Finish(); err == nil {
				err = mems[shard.Of(u.Key, shards)].Prepare(u)
			}
		case recCommitTxn:
			txn := r.String()
			if err = r.Finish(); err == nil {
				// The record does not name a shard (its encoding predates
				// sharding); the tentative transaction lives on exactly one.
				err = store.ErrUnknownTxn
				for _, mem := range mems {
					if cErr := mem.Commit(txn); cErr != store.ErrUnknownTxn {
						err = cErr
						break
					}
				}
			}
		case recAbortTxn:
			txn := r.String()
			if err = r.Finish(); err == nil {
				for _, mem := range mems {
					mem.Abort(txn)
				}
			}
		case recLock:
			ls := readLock(&r)
			if err = r.Finish(); err == nil {
				st.Lock = ls
			}
		case recLockS:
			shrd := r.Uvarint()
			ls := readLock(&r)
			if err = r.Finish(); err == nil {
				switch {
				case shrd >= uint64(shards):
					err = fmt.Errorf("%w: a lock record names shard %d, the replica has %d", ErrShardCount, shrd, shards)
				case shrd == 0:
					st.Lock = ls
				default:
					st.ExtraLocks[shrd-1] = ls
				}
			}
		case recGone:
			id := agent.DecodeID(&r)
			if err = r.Finish(); err == nil {
				gone.Add(id)
			}
		case recGoneMark:
			w := agent.DecodeWatermark(&r)
			if err = r.Finish(); err == nil {
				gone.Raise(w)
			}
		case recRelNext:
			n := r.Uvarint()
			if err = r.Finish(); err == nil && n > st.RelNextSeq {
				st.RelNextSeq = n
			}
		case recRelSeen:
			err = ErrRetiredRecord
		case recRelMark:
			from := runtime.NodeID(r.Varint())
			w := st.RelSeen[from]
			w.Raise(r.Uvarint())
			for i, n := 0, r.Count(1); i < n; i++ {
				w.Accept(r.Uvarint())
			}
			if err = r.Finish(); err == nil {
				st.RelSeen[from] = w
			}
		default:
			err = fmt.Errorf("unknown record type %d", rec.Type)
		}
		if err != nil {
			return nil, fmt.Errorf("durable: replaying record %d (type %d): %w", i, rec.Type, err)
		}
	}
	st.Store = mems[0].State()
	for i := 1; i < shards; i++ {
		st.ExtraStores[i-1] = mems[i].State()
	}
	st.Gone, st.Marks = gone.IDs(), gone.Marks()
	return st, nil
}

// AddSource registers a contributor to compaction snapshots. The replica
// contributes its store/locking state, the cluster contributes the
// reliable-delivery endpoint; each fills its part of the State.
func (j *Journal) AddSource(fn func(*State)) { j.sources = append(j.sources, fn) }

// Prepared implements store.Journal.
func (j *Journal) Prepared(u store.Update) { j.append(recPrepare, store.AppendUpdate(nil, u), false) }

// Committed implements store.Journal. Commit barrier.
func (j *Journal) Committed(txnID string) {
	j.append(recCommitTxn, wire.AppendString(nil, txnID), true)
}

// Applied implements store.Journal. Commit barrier: this is the record
// behind invariant 11.
func (j *Journal) Applied(u store.Update) { j.append(recApply, store.AppendUpdate(nil, u), true) }

// Aborted implements store.Journal.
func (j *Journal) Aborted(txnID string) { j.append(recAbortTxn, wire.AppendString(nil, txnID), false) }

// LogLockShard journals one shard's full locking state after a mutation.
// barrier marks grant transitions — the mutations whose loss could
// re-grant a lock the replica already released. Shard 0 writes a record
// type of its own, without the shard number.
func (j *Journal) LogLockShard(shrd int, ls LockState, barrier bool) {
	if shrd == 0 {
		j.append(recLock, appendLock(nil, ls), barrier)
		return
	}
	j.append(recLockS, appendLock(wire.AppendUvarint(nil, uint64(shrd)), ls), barrier)
}

// LogGone journals one agent joining the gone set (the Updated List).
func (j *Journal) LogGone(id agent.ID) { j.append(recGone, agent.AppendID(nil, id), false) }

// LogGoneMark journals a gone-set watermark being raised. Like LogGone it
// is no barrier: losing the tail only means the replica re-learns the fact
// from its peers.
func (j *Journal) LogGoneMark(w agent.Watermark) {
	j.append(recGoneMark, agent.AppendWatermark(nil, &w), false)
}

// NextSeq implements the reliable layer's journal: it persists the highest
// send counter of any link one stride ahead, so a restart can never reuse a
// sequence number on any of them. Commit barrier: the high-water mark must
// be on disk before any send in its stride leaves the node, or a crash
// restores a stale counter and the restarted node reuses sequence numbers
// that peers' receive windows silently swallow. The stride amortizes the
// extra fsync to at most one per relNextStride sends.
func (j *Journal) NextSeq(seq uint64) {
	if seq < j.relNextHi {
		return
	}
	j.relNextHi = (seq/relNextStride + 1) * relNextStride
	j.append(recRelNext, wire.AppendUvarint(nil, j.relNextHi), true)
}

// Acked implements the reliable layer's journal: one record per
// acknowledgement that reveals new receive-window state, so the window
// survives a restart and a retransmit of an acknowledged frame straddling
// the crash is still suppressed. No barrier, like the per-frame record it
// replaces: a lost tail means a frame the sender still holds may be
// delivered twice, which the protocol handlers tolerate.
func (j *Journal) Acked(from runtime.NodeID, mark uint64, above []uint64) {
	b := wire.AppendVarint(nil, int64(from))
	b = wire.AppendUvarint(b, mark)
	b = wire.AppendUvarint(b, uint64(len(above)))
	for _, seq := range above {
		b = wire.AppendUvarint(b, seq)
	}
	j.append(recRelMark, b, false)
}

// MaybeCompact installs a fresh snapshot once enough records accumulated
// since the last one. The replica calls it from quiescent points (after a
// commit lands); sources must be registered by then.
func (j *Journal) MaybeCompact() {
	if j.compactDue() {
		j.fail(j.Compact())
	}
}

// Compact gathers the current state from the registered sources and
// installs it as the log's snapshot, superseding all records so far.
func (j *Journal) Compact() error {
	st := &State{RelSeen: make(map[runtime.NodeID]reliable.Window)}
	for _, fn := range j.sources {
		fn(st)
	}
	st.fit(j.opts.Shards)
	// Persist the send-counter high-water, not the exact counter: the
	// snapshot supersedes earlier recRelNext records, and sends between the
	// exact value and the high-water would otherwise journal nothing — a
	// crash there must still never reuse a sequence number.
	if j.relNextHi > st.RelNextSeq {
		st.RelNextSeq = j.relNextHi
	}
	return j.saveSnapshot(encodeState(st))
}

// fit gives the state one store and one lock per shard beyond the first.
func (st *State) fit(shards int) {
	for len(st.ExtraStores) < shards-1 {
		st.ExtraStores = append(st.ExtraStores, store.State{})
	}
	for len(st.ExtraLocks) < shards-1 {
		st.ExtraLocks = append(st.ExtraLocks, LockState{})
	}
}

// --- encoding -----------------------------------------------------------
//
// Records and snapshots are internal/wire values: integers are varints,
// strings and slices are length-prefixed, and map-shaped state is sorted
// before writing so the encoding is deterministic. Every count is read
// through Reader.Count with a true lower bound on its element's size.

func appendLock(b []byte, ls LockState) []byte {
	b = wire.AppendUvarint(b, ls.Epoch)
	b = wire.AppendUvarint(b, ls.LLVersion)
	b = wire.AppendUvarint(b, ls.HeadVersion)
	b = agent.AppendID(b, ls.Grant)
	b = wire.AppendVarint(b, int64(ls.GrantAttempt))
	b = wire.AppendUvarint(b, uint64(len(ls.LL)))
	for _, id := range ls.LL {
		b = agent.AppendID(b, id)
	}
	return b
}

// readLock reads a LockState written by appendLock (at least 8 bytes).
func readLock(r *wire.Reader) LockState {
	ls := LockState{
		Epoch:        r.Uvarint(),
		LLVersion:    r.Uvarint(),
		HeadVersion:  r.Uvarint(),
		Grant:        agent.DecodeID(r),
		GrantAttempt: int(r.Varint()),
	}
	for i, n := 0, r.Count(3); i < n; i++ {
		ls.LL = append(ls.LL, agent.DecodeID(r))
	}
	return ls
}

func appendStoreState(b []byte, ss store.State) []byte {
	b = wire.AppendUvarint(b, uint64(len(ss.Log)))
	for _, u := range ss.Log {
		b = store.AppendUpdate(b, u)
	}
	b = wire.AppendUvarint(b, uint64(len(ss.Tentative)))
	for _, u := range ss.Tentative {
		b = store.AppendUpdate(b, u)
	}
	return b
}

// readStoreState reads a store.State written by appendStoreState (at least
// 2 bytes). A log that does not run Seq 1, 2, … is refused: the store keeps
// an update's Seq as its position.
func readStoreState(r *wire.Reader) store.State {
	var ss store.State
	for i, n := 0, r.Count(5); i < n; i++ {
		if ss.Log = append(ss.Log, store.DecodeUpdate(r)); ss.Log[i].Seq != uint64(i+1) {
			r.Fail("store log out of sequence")
		}
	}
	for i, n := 0, r.Count(5); i < n; i++ {
		ss.Tentative = append(ss.Tentative, store.DecodeUpdate(r))
	}
	return ss
}

// marpTag and optTag open every snapshot of their journal kind, after
// wire.Preamble: a magic naming the kind, then its layout version. The two
// kinds' record numbers overlap (MARP's 10 and 11 are optimistic types
// too), so the tag is what tells their data dirs apart.
var (
	marpTag = [5]byte{'J', 'N', 'L', 'M', 1}
	optTag  = [5]byte{'J', 'N', 'L', 'O', 1}
)

// untag checks a snapshot's tag and returns a reader over what follows it.
func untag(b []byte, want, other [5]byte) (*wire.Reader, error) {
	switch {
	case bytes.HasPrefix(b, want[:]):
		return wire.NewReader(b[len(want):]), nil
	case bytes.HasPrefix(b, other[:]):
		return nil, ErrOtherKind
	}
	return nil, ErrSnapshotLayout
}

// encodeState writes the MARP snapshot layout: the tag; the shard count
// and each shard's store and locking state; the gone set's residue and
// watermarks; the send mark; and each sender's receive window (watermark,
// then the numbers held above it), senders in order. Every section is
// always present. The state must hold a lock per extra store (fit).
func encodeState(st *State) []byte {
	b := append([]byte(nil), marpTag[:]...)
	b = wire.AppendUvarint(b, uint64(1+len(st.ExtraStores)))
	b = appendStoreState(b, st.Store)
	b = appendLock(b, st.Lock)
	for i, ss := range st.ExtraStores {
		b = appendStoreState(b, ss)
		b = appendLock(b, st.ExtraLocks[i])
	}
	b = wire.AppendUvarint(b, uint64(len(st.Gone)))
	for _, id := range st.Gone {
		b = agent.AppendID(b, id)
	}
	b = agent.AppendWatermarks(b, st.Marks)
	b = wire.AppendUvarint(b, st.RelNextSeq)
	senders := make([]runtime.NodeID, 0, len(st.RelSeen))
	for from := range st.RelSeen {
		senders = append(senders, from)
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
	b = wire.AppendUvarint(b, uint64(len(senders)))
	for _, from := range senders {
		w := st.RelSeen[from]
		b = wire.AppendVarint(b, int64(from))
		b = wire.AppendUvarint(b, w.Mark)
		b = wire.AppendUvarint(b, uint64(len(w.Above)))
		for _, q := range w.Above {
			b = wire.AppendUvarint(b, q)
		}
	}
	return b
}

func decodeState(b []byte) (*State, error) {
	r, err := untag(b, marpTag, optTag)
	if err != nil {
		return nil, err
	}
	st := &State{RelSeen: make(map[runtime.NodeID]reliable.Window)}
	shards := r.Count(10) // a store (2 bytes) and a lock (8) per shard
	if shards == 0 {
		r.Fail("snapshot names no shard")
	}
	for i := 0; i < shards; i++ {
		ss, ls := readStoreState(r), readLock(r)
		if i == 0 {
			st.Store, st.Lock = ss, ls
			continue
		}
		st.ExtraStores = append(st.ExtraStores, ss)
		st.ExtraLocks = append(st.ExtraLocks, ls)
	}
	for i, n := 0, r.Count(3); i < n; i++ {
		st.Gone = append(st.Gone, agent.DecodeID(r))
	}
	st.Marks = agent.DecodeWatermarksInto(nil, r)
	st.RelNextSeq = r.Uvarint()
	for i, n := 0, r.Count(3); i < n; i++ {
		from := runtime.NodeID(r.Varint())
		var w reliable.Window
		w.Raise(r.Uvarint())
		for k, m := 0, r.Count(1); k < m; k++ {
			w.Accept(r.Uvarint())
		}
		st.RelSeen[from] = w
	}
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("durable: snapshot: %w", err)
	}
	return st, nil
}
