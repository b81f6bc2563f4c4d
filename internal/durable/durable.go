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
// Records are hand-framed (no gob) for two reasons: a committed update is
// ~40 bytes instead of ~300, and the encoding is deterministic, which
// keeps simulated durability runs byte-for-byte reproducible.
package durable

import (
	"encoding/binary"
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
	recRelSeen   byte = 8 // reliable-delivery first-seen frame (written before receive windows; still replayed)
	recLockS     byte = 9 // locking-state snapshot of a shard > 0 (shard-prefixed)

	recGoneMark byte = 10 // gone-set watermark raised (agent.Watermark)
	recRelMark  byte = 11 // reliable-delivery receive window: watermark raised, frames held above it
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
	// replicas, keeping their snapshots byte-identical to the pre-sharding
	// format.
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

// Options tunes a journal.
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
	// ordered log while the shards restore independently.
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

// Journal is one replica's open durability log. It implements
// store.Journal and reliable.Journal, and the replica logs its locking
// mutations through LogLock/LogGone. Like every protocol-layer object it
// is single-threaded: its owner drives it from the engine's execution
// context.
//
// A stable-storage failure is fail-stop by design: a replica that cannot
// journal must not keep acknowledging, so every logging method panics on
// I/O error rather than silently degrading to volatility.
type Journal struct {
	log       *wal.Log
	opts      Options
	sources   []func(*State)
	sinceSnap int
	relNextHi uint64 // highest send counter journaled so far

	// Group-commit hooks (OnBarrier): hold runs synchronously when a commit
	// barrier parks instead of fsyncing; release runs once the covering
	// fsync lands (from the flush goroutine — the registrar marshals it
	// back onto the engine's execution context).
	hold    func()
	release func()
}

// Open replays the journal on b and returns the recovered state, or a nil
// state when the backend holds no history (a fresh data dir).
func Open(b disk.Backend, opts Options) (*Journal, *State, error) {
	opts = opts.withDefaults()
	log, snap, records, err := wal.Open(b, wal.Options{
		Policy:           opts.Policy,
		SegmentBytes:     opts.SegmentBytes,
		GroupCommitDelay: opts.GroupCommitDelay,
		Scheduler:        opts.Scheduler,
		OnSync:           opts.OnSync,
	})
	if err != nil {
		return nil, nil, err
	}
	j := &Journal{log: log, opts: opts, sinceSnap: len(records)}
	if snap == nil && len(records) == 0 {
		return j, nil, nil
	}
	st, err := replay(snap, records, opts.Shards)
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
// explicitly (shard 0 uses the legacy record type, so unsharded logs are
// unchanged on disk).
func replay(snap []byte, records []wal.Record, shards int) (*State, error) {
	st := &State{RelSeen: make(map[runtime.NodeID]reliable.Window)}
	if snap != nil {
		s, err := decodeState(snap)
		if err != nil {
			return nil, err
		}
		st = s
	}
	if shards > 1 {
		for len(st.ExtraStores) < shards-1 {
			st.ExtraStores = append(st.ExtraStores, store.State{})
		}
		for len(st.ExtraLocks) < shards-1 {
			st.ExtraLocks = append(st.ExtraLocks, LockState{})
		}
	}
	mems := make([]*store.Store, shards)
	mems[0] = store.FromState(st.Store)
	for i := 1; i < shards; i++ {
		mems[i] = store.FromState(st.ExtraStores[i-1])
	}
	// An explicit list (a pre-watermark snapshot, or recGone records) is a
	// valid residue; watermarks replayed after it prune what they cover.
	var gone agent.GoneSet
	gone.Merge(st.Marks, st.Gone)
	for i, rec := range records {
		var err error
		switch rec.Type {
		case recApply:
			var u store.Update
			if u, err = decodeUpdate(rec.Data); err == nil {
				err = mems[shard.Of(u.Key, shards)].ApplyCommitted(u)
			}
		case recPrepare:
			var u store.Update
			if u, err = decodeUpdate(rec.Data); err == nil {
				err = mems[shard.Of(u.Key, shards)].Prepare(u)
			}
		case recCommitTxn:
			var txn string
			if txn, err = decodeString(rec.Data); err == nil {
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
			var txn string
			if txn, err = decodeString(rec.Data); err == nil {
				for _, mem := range mems {
					mem.Abort(txn)
				}
			}
		case recLock:
			st.Lock, err = decodeLock(rec.Data)
		case recLockS:
			var shrd int
			var ls LockState
			if shrd, ls, err = decodeLockShard(rec.Data); err == nil {
				switch {
				case shrd == 0:
					st.Lock = ls
				case shrd-1 < len(st.ExtraLocks):
					st.ExtraLocks[shrd-1] = ls
				default:
					err = fmt.Errorf("lock record for shard %d beyond %d shards", shrd, shards)
				}
			}
		case recGone:
			var id agent.ID
			if id, err = decodeAgentID(rec.Data); err == nil {
				gone.Add(id)
			}
		case recGoneMark:
			d := &decoder{b: rec.Data}
			w := d.watermark()
			if err = d.finish(); err == nil {
				gone.Raise(w)
			}
		case recRelNext:
			var n uint64
			if n, err = decodeUvarint(rec.Data); err == nil && n > st.RelNextSeq {
				st.RelNextSeq = n
			}
		case recRelSeen:
			var from runtime.NodeID
			var seq uint64
			if from, seq, err = decodeRelSeen(rec.Data); err == nil {
				w := st.RelSeen[from]
				w.Accept(seq)
				st.RelSeen[from] = w
			}
		case recRelMark:
			d := &decoder{b: rec.Data}
			from := runtime.NodeID(d.varint())
			w := st.RelSeen[from]
			w.Raise(d.uvarint())
			for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
				w.Accept(d.uvarint())
			}
			if err = d.finish(); err == nil {
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

// fail is the fail-stop policy for stable-storage errors.
func (j *Journal) fail(err error) {
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
func (j *Journal) OnBarrier(hold, release func()) {
	j.hold, j.release = hold, release
}

// groupActive reports whether commit barriers defer through the group
// coalescer rather than fsync inline.
func (j *Journal) groupActive() bool {
	return j.opts.GroupCommitDelay > 0 && j.opts.Policy == wal.PolicyCommit && j.release != nil
}

func (j *Journal) append(typ byte, data []byte, commit bool) {
	if commit && j.groupActive() {
		j.hold()
		j.fail(j.log.AppendBarrier(wal.Record{Type: typ, Data: data}, commit, j.release))
	} else {
		j.fail(j.log.Append(wal.Record{Type: typ, Data: data}, commit))
	}
	j.sinceSnap++
}

// Prepared implements store.Journal.
func (j *Journal) Prepared(u store.Update) { j.append(recPrepare, encodeUpdate(u), false) }

// Committed implements store.Journal. Commit barrier.
func (j *Journal) Committed(txnID string) { j.append(recCommitTxn, encodeString(txnID), true) }

// Applied implements store.Journal. Commit barrier: this is the record
// behind invariant 11.
func (j *Journal) Applied(u store.Update) { j.append(recApply, encodeUpdate(u), true) }

// Aborted implements store.Journal.
func (j *Journal) Aborted(txnID string) { j.append(recAbortTxn, encodeString(txnID), false) }

// LogLock journals the replica's full locking state after a mutation.
// barrier marks grant transitions — the mutations whose loss could
// re-grant a lock the replica already released.
func (j *Journal) LogLock(ls LockState, barrier bool) { j.append(recLock, encodeLock(ls), barrier) }

// LogLockShard journals one shard's locking state. Shard 0 writes the
// legacy record type, so an unsharded replica's log bytes are unchanged.
func (j *Journal) LogLockShard(shrd int, ls LockState, barrier bool) {
	if shrd == 0 {
		j.LogLock(ls, barrier)
		return
	}
	j.append(recLockS, encodeLockShard(shrd, ls), barrier)
}

// LogGone journals one agent joining the gone set (the Updated List).
func (j *Journal) LogGone(id agent.ID) { j.append(recGone, encodeAgentID(id), false) }

// LogGoneMark journals a gone-set watermark being raised. Like LogGone it
// is no barrier: losing the tail only means the replica re-learns the fact
// from its peers.
func (j *Journal) LogGoneMark(w agent.Watermark) {
	j.append(recGoneMark, appendWatermark(nil, w), false)
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
	j.append(recRelNext, encodeUvarint(j.relNextHi), true)
}

// Acked implements the reliable layer's journal: one record per
// acknowledgement that reveals new receive-window state, so the window
// survives a restart and a retransmit of an acknowledged frame straddling
// the crash is still suppressed. No barrier, like the per-frame record it
// replaces: a lost tail means a frame the sender still holds may be
// delivered twice, which the protocol handlers tolerate.
func (j *Journal) Acked(from runtime.NodeID, mark uint64, above []uint64) {
	b := binary.AppendVarint(nil, int64(from))
	b = binary.AppendUvarint(b, mark)
	b = binary.AppendUvarint(b, uint64(len(above)))
	for _, seq := range above {
		b = binary.AppendUvarint(b, seq)
	}
	j.append(recRelMark, b, false)
}

// MaybeCompact installs a fresh snapshot once enough records accumulated
// since the last one. The replica calls it from quiescent points (after a
// commit lands); sources must be registered by then.
func (j *Journal) MaybeCompact() {
	if j.opts.CompactEvery > 0 && j.sinceSnap >= j.opts.CompactEvery {
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
	// Persist the send-counter high-water, not the exact counter: the
	// snapshot supersedes earlier recRelNext records, and sends between the
	// exact value and the high-water would otherwise journal nothing — a
	// crash there must still never reuse a sequence number.
	if j.relNextHi > st.RelNextSeq {
		st.RelNextSeq = j.relNextHi
	}
	if err := j.log.SaveSnapshot(encodeState(st)); err != nil {
		return err
	}
	j.sinceSnap = 0
	return nil
}

// Sync flushes the journal tail to stable storage regardless of policy.
func (j *Journal) Sync() error { return j.log.Sync() }

// Close syncs and closes the journal — the graceful-shutdown path, after
// which the next Open replays a clean log with nothing torn and nothing
// lost.
func (j *Journal) Close() error { return j.log.Close() }

// Kill abandons the journal without syncing — the crash path for
// simulated restarts. Pair with the backend's Crash.
func (j *Journal) Kill() { j.log.Kill() }

// Stats returns the underlying wal counters.
func (j *Journal) Stats() wal.Stats { return j.log.Stats() }

// --- encoding -----------------------------------------------------------
//
// All integers are varints, strings and slices are length-prefixed. The
// encoding is deterministic: map-shaped state is sorted before writing.

func encodeUvarint(v uint64) []byte { return binary.AppendUvarint(nil, v) }

func decodeUvarint(b []byte) (uint64, error) {
	d := &decoder{b: b}
	v := d.uvarint()
	return v, d.finish()
}

func encodeString(s string) []byte {
	b := binary.AppendUvarint(nil, uint64(len(s)))
	return append(b, s...)
}

func decodeString(b []byte) (string, error) {
	d := &decoder{b: b}
	s := d.str()
	return s, d.finish()
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendUpdate(b []byte, u store.Update) []byte {
	b = appendString(b, u.TxnID)
	b = appendString(b, u.Key)
	b = appendString(b, u.Data)
	b = binary.AppendUvarint(b, u.Seq)
	return binary.AppendVarint(b, u.Stamp)
}

func encodeUpdate(u store.Update) []byte { return appendUpdate(nil, u) }

func decodeUpdate(b []byte) (store.Update, error) {
	d := &decoder{b: b}
	u := d.update()
	return u, d.finish()
}

func appendAgentID(b []byte, id agent.ID) []byte {
	b = binary.AppendVarint(b, int64(id.Home))
	b = binary.AppendVarint(b, id.Born)
	return binary.AppendUvarint(b, id.Seq)
}

func encodeAgentID(id agent.ID) []byte { return appendAgentID(nil, id) }

func decodeAgentID(b []byte) (agent.ID, error) {
	d := &decoder{b: b}
	id := d.agentID()
	return id, d.finish()
}

func appendWatermark(b []byte, w agent.Watermark) []byte {
	b = binary.AppendVarint(b, int64(w.Home))
	b = binary.AppendVarint(b, w.Since)
	b = binary.AppendVarint(b, w.Upto.Born)
	b = binary.AppendUvarint(b, w.Upto.Seq)
	return binary.AppendUvarint(b, w.Count)
}

func encodeLock(ls LockState) []byte { return appendLock(nil, ls) }

func appendLock(b []byte, ls LockState) []byte {
	b = binary.AppendUvarint(b, ls.Epoch)
	b = binary.AppendUvarint(b, ls.LLVersion)
	b = binary.AppendUvarint(b, ls.HeadVersion)
	b = appendAgentID(b, ls.Grant)
	b = binary.AppendVarint(b, int64(ls.GrantAttempt))
	b = binary.AppendUvarint(b, uint64(len(ls.LL)))
	for _, id := range ls.LL {
		b = appendAgentID(b, id)
	}
	return b
}

func decodeLock(b []byte) (LockState, error) {
	d := &decoder{b: b}
	ls := d.lock()
	return ls, d.finish()
}

func encodeLockShard(shrd int, ls LockState) []byte {
	b := binary.AppendUvarint(nil, uint64(shrd))
	return appendLock(b, ls)
}

func decodeLockShard(b []byte) (int, LockState, error) {
	d := &decoder{b: b}
	shrd := int(d.uvarint())
	ls := d.lock()
	return shrd, ls, d.finish()
}

func decodeRelSeen(b []byte) (runtime.NodeID, uint64, error) {
	d := &decoder{b: b}
	from := runtime.NodeID(d.varint())
	seq := d.uvarint()
	return from, seq, d.finish()
}

func appendStoreState(b []byte, ss store.State) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss.Log)))
	for _, u := range ss.Log {
		b = appendUpdate(b, u)
	}
	b = binary.AppendUvarint(b, uint64(len(ss.Tentative)))
	for _, u := range ss.Tentative {
		b = appendUpdate(b, u)
	}
	return b
}

func encodeState(st *State) []byte {
	var b []byte
	b = appendStoreState(b, st.Store)
	b = appendLock(b, st.Lock)
	b = binary.AppendUvarint(b, uint64(len(st.Gone)))
	for _, id := range st.Gone {
		b = appendAgentID(b, id)
	}
	b = binary.AppendUvarint(b, st.RelNextSeq)
	senders := make([]runtime.NodeID, 0, len(st.RelSeen))
	for from := range st.RelSeen {
		senders = append(senders, from)
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i] < senders[j] })
	b = binary.AppendUvarint(b, uint64(len(senders)))
	relMarks := false
	for _, from := range senders {
		w := st.RelSeen[from]
		relMarks = relMarks || w.Mark > 0
		b = binary.AppendVarint(b, int64(from))
		b = binary.AppendUvarint(b, uint64(len(w.Above)))
		for _, q := range w.Above {
			b = binary.AppendUvarint(b, q)
		}
	}
	// Shard extension, appended only when present: the unsharded snapshot
	// encoding is bit-for-bit the pre-sharding format, and the decoder
	// reads the extension iff bytes remain. The two watermark extensions
	// after it follow the same rule, so each forces the (empty) ones before
	// it.
	if len(st.ExtraStores) > 0 || len(st.ExtraLocks) > 0 || len(st.Marks) > 0 || relMarks {
		b = binary.AppendUvarint(b, uint64(len(st.ExtraStores)))
		for _, ss := range st.ExtraStores {
			b = appendStoreState(b, ss)
		}
		b = binary.AppendUvarint(b, uint64(len(st.ExtraLocks)))
		for _, ls := range st.ExtraLocks {
			b = appendLock(b, ls)
		}
	}
	if len(st.Marks) > 0 || relMarks {
		b = binary.AppendUvarint(b, uint64(len(st.Marks)))
		for _, w := range st.Marks {
			b = appendWatermark(b, w)
		}
	}
	// Receive-window extension: one watermark per sender of the base
	// section, in its order. The per-sender lists there are the numbers held
	// above these — and, in a snapshot written before receive windows (which
	// has no such extension), every number ever seen, above a watermark of 0.
	if relMarks {
		for _, from := range senders {
			b = binary.AppendUvarint(b, st.RelSeen[from].Mark)
		}
	}
	return b
}

func decodeState(b []byte) (*State, error) {
	d := &decoder{b: b}
	st := &State{RelSeen: make(map[runtime.NodeID]reliable.Window)}
	st.Store = d.storeState()
	st.Lock = d.lock()
	for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
		st.Gone = append(st.Gone, d.agentID())
	}
	st.RelNextSeq = d.uvarint()
	var senders []runtime.NodeID
	for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
		from := runtime.NodeID(d.varint())
		var w reliable.Window
		for k, m := 0, int(d.uvarint()); k < m && d.err == nil; k++ {
			w.Accept(d.uvarint())
		}
		st.RelSeen[from] = w
		senders = append(senders, from)
	}
	if d.err == nil && len(d.b) > 0 { // shard extension present
		for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
			st.ExtraStores = append(st.ExtraStores, d.storeState())
		}
		for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
			st.ExtraLocks = append(st.ExtraLocks, d.lock())
		}
	}
	if d.err == nil && len(d.b) > 0 { // watermark extension present
		for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
			st.Marks = append(st.Marks, d.watermark())
		}
	}
	if d.err == nil && len(d.b) > 0 { // receive-window extension present
		for _, from := range senders {
			w := st.RelSeen[from]
			w.Raise(d.uvarint())
			st.RelSeen[from] = w
		}
	}
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("durable: snapshot: %w", err)
	}
	return st, nil
}

// decoder is a sticky-error reader over one record payload.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("durable: short uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("durable: short varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.b)) < n {
		d.err = fmt.Errorf("durable: short string")
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *decoder) update() store.Update {
	return store.Update{
		TxnID: d.str(),
		Key:   d.str(),
		Data:  d.str(),
		Seq:   d.uvarint(),
		Stamp: d.varint(),
	}
}

func (d *decoder) agentID() agent.ID {
	return agent.ID{
		Home: runtime.NodeID(d.varint()),
		Born: d.varint(),
		Seq:  d.uvarint(),
	}
}

func (d *decoder) watermark() agent.Watermark {
	return agent.Watermark{
		Home:  runtime.NodeID(d.varint()),
		Since: d.varint(),
		Upto:  agent.Mark{Born: d.varint(), Seq: d.uvarint()},
		Count: d.uvarint(),
	}
}

func (d *decoder) storeState() store.State {
	var ss store.State
	for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
		ss.Log = append(ss.Log, d.update())
	}
	for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
		ss.Tentative = append(ss.Tentative, d.update())
	}
	return ss
}

func (d *decoder) lock() LockState {
	ls := LockState{
		Epoch:        d.uvarint(),
		LLVersion:    d.uvarint(),
		HeadVersion:  d.uvarint(),
		Grant:        d.agentID(),
		GrantAttempt: int(d.varint()),
	}
	for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
		ls.LL = append(ls.LL, d.agentID())
	}
	return ls
}

func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("durable: %d trailing bytes", len(d.b))
	}
	return nil
}
