package durable

// The optimistic commitment protocol (internal/optimistic) journals through
// its own record vocabulary, mirroring its three-state update lifecycle —
// tentative, stable, aborted — plus the hybrid-clock high-water mark that
// keeps stamps monotone across restarts. The barrier discipline encodes the
// protocol's two recovery promises:
//
//   - a replica never re-mints an action sequence number a peer may already
//     hold: its OWN tentative records are commit barriers, fsynced before
//     the gossip layer may advertise the action (foreign tentatives are
//     not barriers — losing one only re-fetches it from a peer);
//   - the stable prefix never reorders or drops (invariant 15): stable
//     records are commit barriers, and replay rebuilds the prefix in
//     journal order;
//   - a replica never advertises a stable frontier it could fall back behind
//     (invariant 17): the abort record that ends an election batch is a
//     commit barrier too, so the batch's losers — and the foreign tentatives
//     before them — are as durable as its winners before the next
//     self-report leaves. Peers drop an action for good once every frontier
//     has passed it; nobody could hand it back;
//   - a restored clock is never below any clock the replica advertised:
//     clock records persist a high-water mark ahead of the clock (the
//     recRelNext pattern), durable before the advertisement leaves the
//     node — behind an own tentative's barrier while the replica submits,
//     behind a barrier of their own while it does not.

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/disk"
	"repro/internal/store"
	"repro/internal/wal"
)

// Optimistic record types. Values are part of the on-disk format alongside
// the pessimistic records 1-9: never renumber.
const (
	recOptTent   byte = 10 // optimistic tentative update (+guard, +deps); barrier iff own
	recOptStable byte = 11 // update promoted into the stable prefix (commit barrier)
	recOptAbort  byte = 12 // tentative update aborted by the election (guard loser); barrier iff it ends the batch
	recOptClock  byte = 13 // clock high-water mark (commit barrier)
)

// optClockSpan is how coarsely the clock is journaled. The optimistic tier's
// clock is a hybrid logical clock in nanoseconds, so it crosses any fixed
// number of ticks with every report; a span of time costs about one clock
// record per second per replica. A replica that submits pays no fsync for
// them (Tentative), an idle one one per second, and a restart resumes at
// most two spans ahead. Stamps only need to be monotone, so
// over-approximating after a crash costs nothing but that head start.
const optClockSpan = int64(time.Second)

// OptRecord is one tentative action as journaled: the update plus the
// constraint metadata the election needs (the CAS guard and the notAfter
// dependency edges, as TxnIDs).
type OptRecord struct {
	U     store.Update
	Guard string
	Deps  []string
}

// OptState is everything a recovering optimistic replica restores. Stable
// holds the stable prefix in promotion order (all shards interleaved — the
// per-shard sequence numbers in the updates keep each shard's order
// checkable); Overlay holds the still-tentative actions; Aborted keeps the
// election losers. All three tiers keep the FULL records — constraint
// metadata included, and for losers the whole action — because a recovered
// replica must still be able to hand any action, whatever its local fate,
// to peers that have not yet elected it.
//
// Except below the stable-everywhere watermark, where no such peer exists:
// Dropped[s][o-1] says that origin o's first so many actions on shard s are
// decided at every replica. A snapshot keeps the stable ones among them as
// bare updates (the stable prefix stays whole; guard and notAfter edges are
// gone) and the losers not at all — the replica's history holds none of
// them, so their count is all it restores. Records replayed on top of a
// snapshot are full again.
type OptState struct {
	Stable  []OptRecord
	Overlay []OptRecord
	Aborted []OptRecord
	Dropped [][]uint64
	ClockHi int64
}

// OptOptions tunes an optimistic journal.
type OptOptions struct {
	// Policy is the wal fsync policy (default wal.PolicyCommit).
	Policy wal.Policy
	// SegmentBytes is the wal segment size (default 1 MiB).
	SegmentBytes int
	// CompactEvery lets MaybeCompact install a fresh snapshot once this
	// many records have accumulated (default 4096; negative disables).
	CompactEvery int
}

// OptJournal is one optimistic replica's open durability log. Like Journal
// it is single-threaded and fail-stop: a replica that cannot journal must
// not keep acknowledging, so every logging method panics on I/O error.
type OptJournal struct {
	log       *wal.Log
	opts      OptOptions
	clockHi   int64
	sinceSnap int
	source    func() *OptState
}

// OpenOpt replays an optimistic journal on b and returns the recovered
// state, or a nil state when the backend holds no history.
func OpenOpt(b disk.Backend, opts OptOptions) (*OptJournal, *OptState, error) {
	if opts.CompactEvery == 0 {
		opts.CompactEvery = 4096
	}
	log, snap, records, err := wal.Open(b, wal.Options{
		Policy:       opts.Policy,
		SegmentBytes: opts.SegmentBytes,
	})
	if err != nil {
		return nil, nil, err
	}
	j := &OptJournal{log: log, opts: opts, sinceSnap: len(records)}
	if snap == nil && len(records) == 0 {
		return j, nil, nil
	}
	st, err := replayOpt(snap, records)
	if err != nil {
		return nil, nil, err
	}
	j.clockHi = st.ClockHi
	return j, st, nil
}

// replayOpt rebuilds the optimistic state from a snapshot plus the records
// journaled after it. Any replay error is corruption: records were only
// written for operations that succeeded.
func replayOpt(snap []byte, records []wal.Record) (*OptState, error) {
	st := &OptState{}
	if snap != nil {
		s, err := decodeOptState(snap)
		if err != nil {
			return nil, err
		}
		st = s
	}
	pending := make(map[string]int, len(st.Overlay)) // TxnID -> overlay index
	for i, rec := range st.Overlay {
		pending[rec.U.TxnID] = i
	}
	take := func(txn string) (OptRecord, bool) {
		i, ok := pending[txn]
		if !ok {
			return OptRecord{}, false
		}
		rec := st.Overlay[i]
		last := len(st.Overlay) - 1
		if i != last {
			st.Overlay[i] = st.Overlay[last]
			pending[st.Overlay[i].U.TxnID] = i
		}
		st.Overlay = st.Overlay[:last]
		delete(pending, txn)
		return rec, true
	}
	for i, rec := range records {
		var err error
		switch rec.Type {
		case recOptTent:
			var or OptRecord
			if or, err = decodeOptRecord(rec.Data); err == nil {
				if _, dup := pending[or.U.TxnID]; dup {
					err = fmt.Errorf("tentative %s journaled twice", or.U.TxnID)
				} else {
					pending[or.U.TxnID] = len(st.Overlay)
					st.Overlay = append(st.Overlay, or)
				}
			}
		case recOptStable:
			var or OptRecord
			if or, err = decodeOptRecord(rec.Data); err == nil {
				take(or.U.TxnID)
				st.Stable = append(st.Stable, or)
			}
		case recOptAbort:
			var txn string
			if txn, err = decodeString(rec.Data); err == nil {
				if or, ok := take(txn); ok {
					st.Aborted = append(st.Aborted, or)
				}
			}
		case recOptClock:
			var hi int64
			if hi, err = decodeVarint(rec.Data); err == nil && hi > st.ClockHi {
				st.ClockHi = hi
			}
		default:
			err = fmt.Errorf("unknown record type %d", rec.Type)
		}
		if err != nil {
			return nil, fmt.Errorf("durable: replaying optimistic record %d (type %d): %w", i, rec.Type, err)
		}
	}
	return st, nil
}

// fail is the fail-stop policy for stable-storage errors.
func (j *OptJournal) fail(err error) {
	if err != nil {
		panic("durable: optimistic journal write failed (stable storage is fail-stop): " + err.Error())
	}
}

func (j *OptJournal) append(typ byte, data []byte, commit bool) {
	j.fail(j.log.Append(wal.Record{Type: typ, Data: data}, commit))
	j.sinceSnap++
}

// Tentative journals a staged action. barrier must be true for the
// replica's OWN submissions: the record must be durable before the action
// is advertised, or a crashed origin could re-mint an OSeq peers already
// hold under different contents.
//
// An own action's stamp is the clock at its submit, and its barrier is paid
// for anyway: once the stamp comes within a span of the clock's high-water
// mark, the mark moves a span past the stamp in a record the same fsync
// covers, so the reports that follow stay below it and need no barrier of
// their own.
func (j *OptJournal) Tentative(rec OptRecord, barrier bool) {
	if barrier && rec.U.Stamp >= j.clockHi-optClockSpan {
		j.raiseClock(rec.U.Stamp+optClockSpan, false)
	}
	j.append(recOptTent, encodeOptRecord(rec), barrier)
}

// Stable journals an action's promotion into the stable prefix; rec.U.Seq
// must carry the assigned stable sequence number. Commit barrier: this is
// the record behind invariant 15.
func (j *OptJournal) Stable(rec OptRecord) { j.append(recOptStable, encodeOptRecord(rec), true) }

// Abort journals an election loser's discard. barrier must be true for the
// last record of an election batch: the batch raises the stable frontier the
// next self-report advertises, and peers drop for good what every frontier
// has passed — so a batch that ends in losers must be as durable as one that
// ends in a stable record.
func (j *OptJournal) Abort(txnID string, barrier bool) {
	j.append(recOptAbort, encodeString(txnID), barrier)
}

// Clock persists the clock's high-water mark, the next whole span above c.
// Callers must invoke it before advertising a clock value; restarts restore
// a clock at least as high as anything ever advertised. Below the journaled
// high water it is free.
func (j *OptJournal) Clock(c int64) {
	if c < j.clockHi {
		return
	}
	j.raiseClock(c, true)
}

func (j *OptJournal) raiseClock(c int64, barrier bool) {
	j.clockHi = (c/optClockSpan + 1) * optClockSpan
	j.append(recOptClock, encodeVarint(j.clockHi), barrier)
}

// SetSource registers the snapshot contributor used by compaction.
func (j *OptJournal) SetSource(fn func() *OptState) { j.source = fn }

// MaybeCompact installs a fresh snapshot once CompactEvery records have
// accumulated since the last one — Journal.MaybeCompact's contract: the
// snapshot supersedes every record before it and none after, so the owner
// calls it between operations, when the state its source returns says
// exactly what the journal says. Never inside one: an election batch is
// applied to the store whole and journaled record by record, so a snapshot
// in its middle would already hold the promotions whose stable records
// follow it, and replay would restore them twice.
func (j *OptJournal) MaybeCompact() {
	if j.source == nil || j.opts.CompactEvery <= 0 || j.sinceSnap < j.opts.CompactEvery {
		return
	}
	st := j.source()
	if st.ClockHi < j.clockHi {
		st.ClockHi = j.clockHi
	}
	j.fail(j.log.SaveSnapshot(encodeOptState(st)))
	j.sinceSnap = 0
}

// Sync flushes the journal tail to stable storage regardless of policy.
func (j *OptJournal) Sync() error { return j.log.Sync() }

// Close syncs and closes the journal (graceful shutdown).
func (j *OptJournal) Close() error { return j.log.Close() }

// Kill abandons the journal without syncing — the crash path. Pair with
// the backend's Crash.
func (j *OptJournal) Kill() { j.log.Kill() }

// Stats returns the underlying wal counters.
func (j *OptJournal) Stats() wal.Stats { return j.log.Stats() }

// --- encoding -----------------------------------------------------------

func encodeVarint(v int64) []byte { return binary.AppendVarint(nil, v) }

func decodeVarint(b []byte) (int64, error) {
	d := &decoder{b: b}
	v := d.varint()
	return v, d.finish()
}

func appendOptRecord(b []byte, rec OptRecord) []byte {
	b = appendUpdate(b, rec.U)
	b = appendString(b, rec.Guard)
	b = binary.AppendUvarint(b, uint64(len(rec.Deps)))
	for _, dep := range rec.Deps {
		b = appendString(b, dep)
	}
	return b
}

func encodeOptRecord(rec OptRecord) []byte { return appendOptRecord(nil, rec) }

func (d *decoder) optRecord() OptRecord {
	rec := OptRecord{U: d.update(), Guard: d.str()}
	for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
		rec.Deps = append(rec.Deps, d.str())
	}
	return rec
}

func decodeOptRecord(b []byte) (OptRecord, error) {
	d := &decoder{b: b}
	rec := d.optRecord()
	return rec, d.finish()
}

func encodeOptState(st *OptState) []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(st.Stable)))
	for _, rec := range st.Stable {
		b = appendOptRecord(b, rec)
	}
	b = binary.AppendUvarint(b, uint64(len(st.Overlay)))
	for _, rec := range st.Overlay {
		b = appendOptRecord(b, rec)
	}
	b = binary.AppendUvarint(b, uint64(len(st.Aborted)))
	for _, rec := range st.Aborted {
		b = appendOptRecord(b, rec)
	}
	b = binary.AppendVarint(b, st.ClockHi)
	b = binary.AppendUvarint(b, uint64(len(st.Dropped)))
	for _, row := range st.Dropped {
		b = binary.AppendUvarint(b, uint64(len(row)))
		for _, n := range row {
			b = binary.AppendUvarint(b, n)
		}
	}
	return b
}

func decodeOptState(b []byte) (*OptState, error) {
	d := &decoder{b: b}
	st := &OptState{}
	for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
		st.Stable = append(st.Stable, d.optRecord())
	}
	for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
		st.Overlay = append(st.Overlay, d.optRecord())
	}
	for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
		st.Aborted = append(st.Aborted, d.optRecord())
	}
	st.ClockHi = d.varint()
	// A snapshot written before histories were truncated ends here, which
	// reads as nothing dropped.
	if d.err == nil && len(d.b) > 0 {
		for i, n := 0, int(d.uvarint()); i < n && d.err == nil; i++ {
			var row []uint64
			for k, m := 0, int(d.uvarint()); k < m && d.err == nil; k++ {
				row = append(row, d.uvarint())
			}
			st.Dropped = append(st.Dropped, row)
		}
	}
	if err := d.finish(); err != nil {
		return nil, fmt.Errorf("durable: optimistic snapshot: %w", err)
	}
	return st, nil
}
