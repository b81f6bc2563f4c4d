package durable

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/store"
)

func optRec(txn, key, data string, stamp int64, guard string, deps ...string) OptRecord {
	return OptRecord{
		U:     store.Update{TxnID: txn, Key: key, Data: data, Stamp: stamp},
		Guard: guard,
		Deps:  deps,
	}
}

func openOpt(t *testing.T, b disk.Backend, opts Options) (*OptJournal, *OptState) {
	t.Helper()
	j, st, err := OpenOpt(b, opts)
	if err != nil {
		t.Fatalf("OpenOpt: %v", err)
	}
	return j, st
}

func TestOptJournalReplayLifecycle(t *testing.T) {
	b := disk.NewMem()
	j, st := openOpt(t, b, Options{})
	if st != nil {
		t.Fatalf("fresh backend replayed state %+v", st)
	}
	own := optRec("o001-s000-000000001", "k", "a", 1, "")
	foreign := optRec("o002-s000-000000001", "k", "b", 1, GuardStringForTest, "o001-s000-000000001")
	loser := optRec("o003-s000-000000001", "k", "c", 2, "")
	j.Tentative(own, true)
	j.Tentative(foreign, false)
	j.Tentative(loser, false)
	stable := own
	stable.U.Seq = 1
	j.Stable(stable)
	j.Abort(loser.U.TxnID, false)
	j.Clock(int64(1500 * time.Millisecond))
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, st = openOpt(t, b, Options{})
	if st == nil {
		t.Fatal("no state replayed")
	}
	if len(st.Stable) != 1 || st.Stable[0].U != stable.U {
		t.Fatalf("Stable = %+v, want the promoted record", st.Stable)
	}
	if len(st.Overlay) != 1 || st.Overlay[0].U.TxnID != foreign.U.TxnID {
		t.Fatalf("Overlay = %+v, want only the undecided foreign record", st.Overlay)
	}
	if g, d := st.Overlay[0].Guard, st.Overlay[0].Deps; g != foreign.Guard || len(d) != 1 || d[0] != foreign.Deps[0] {
		t.Fatalf("constraint metadata lost: %+v", st.Overlay[0])
	}
	if len(st.Aborted) != 1 || st.Aborted[0].U != loser.U {
		t.Fatalf("Aborted = %+v, want the full loser record", st.Aborted)
	}
	// A clock of 1.5 s journals the next whole second above it.
	if want := int64(2 * time.Second); st.ClockHi != want {
		t.Fatalf("ClockHi = %d, want %d", st.ClockHi, want)
	}
}

// TestOptClockBarrierIsOncePerSecond: the clock is a hybrid clock in
// nanoseconds, advertised with every report. Ten seconds of reports every
// 50 ms from an idle replica cost ten clock barriers, whatever the clock's
// resolution; from a replica that submits between them they cost none —
// its own tentatives' barriers carry the mark — and either way a power cut
// restores a clock above every one advertised.
func TestOptClockBarrierIsOncePerSecond(t *testing.T) {
	const step = int64(50*time.Millisecond) + 7
	for _, submitting := range []bool{false, true} {
		b := disk.NewMem()
		j, _ := openOpt(t, b, Options{})
		tentatives, advertised := 0, int64(0)
		for c := int64(0); c < int64(10*time.Second); c += step {
			if submitting {
				tentatives++
				j.Tentative(optRec(fmt.Sprintf("o001-s000-%09d", tentatives), "k", "v", c, ""), true)
			}
			j.Clock(c + step/2)
			advertised = c + step/2
		}
		if got, want := b.Stats().Syncs-tentatives, map[bool]int{false: 10, true: 0}[submitting]; got != want {
			t.Errorf("submitting=%v: 10 s of reports cost %d clock barriers, want %d", submitting, got, want)
		}
		j.Kill()
		b.Crash()
		if _, st := openOpt(t, b, Options{}); st.ClockHi <= advertised {
			t.Errorf("submitting=%v: restored clock %d, advertised %d", submitting, st.ClockHi, advertised)
		}
	}
}

// GuardStringForTest exercises a non-empty guard through the codec.
const GuardStringForTest = "o009-s000-000000009"

// TestOptJournalCrashKeepsBarriers: a power cut past the last fsync loses
// non-barrier foreign tentatives but never an own tentative, a stable
// record, an advertised clock — or an election batch that ended in losers:
// the last abort record is a barrier for the whole batch, the foreign
// tentatives before it included.
func TestOptJournalCrashKeepsBarriers(t *testing.T) {
	b := disk.NewMem()
	j, _ := openOpt(t, b, Options{})
	own := optRec("o001-s000-000000001", "k", "a", 1, "")
	j.Tentative(own, true) // barrier: fsynced
	j.Clock(1)             // barrier: fsynced
	losers := []OptRecord{
		optRec("o002-s000-000000001", "k", "x", 2, GuardStringForTest),
		optRec("o003-s000-000000001", "k", "y", 2, GuardStringForTest),
	}
	for _, rec := range losers {
		j.Tentative(rec, false)
	}
	j.Abort(losers[0].U.TxnID, false)
	j.Abort(losers[1].U.TxnID, true) // ends the batch: barrier for all four records
	foreign := optRec("o002-s000-000000002", "k", "b", 5, "")
	j.Tentative(foreign, false) // no barrier: at the crash's mercy
	late := optRec("o003-s000-000000002", "k", "z", 6, GuardStringForTest)
	j.Tentative(late, false)
	j.Abort(late.U.TxnID, false) // mid-batch, as far as the journal can tell
	j.Kill()
	b.Crash()

	_, st := openOpt(t, b, Options{})
	if st == nil {
		t.Fatal("no state replayed")
	}
	if len(st.Aborted) != 2 || st.Aborted[0].U != losers[0].U || st.Aborted[1].U != losers[1].U {
		t.Fatalf("Aborted = %+v, want the batch behind the barrier and not the one after it", st.Aborted)
	}
	found := false
	for _, rec := range st.Overlay {
		switch rec.U.TxnID {
		case own.U.TxnID:
			found = true
		case foreign.U.TxnID, late.U.TxnID:
			t.Fatal("un-fsynced foreign tentative survived a power cut (Mem backend should truncate)")
		}
	}
	if !found {
		t.Fatal("own (barrier'd) tentative lost in crash")
	}
	if st.ClockHi < 1 {
		t.Fatalf("ClockHi = %d, want >= the advertised clock", st.ClockHi)
	}
}

// TestOptJournalCompaction: the snapshot round-trips the state — the counts
// of what the histories dropped, the bare stable updates below them and the
// full records above — and replaces the record tail; records journaled
// after it replay on top. A snapshot is taken only when asked for, between
// operations: a batch journaled record by record is never cut in two.
func TestOptJournalCompaction(t *testing.T) {
	b := disk.NewMem()
	j, _ := openOpt(t, b, Options{CompactEvery: 8})
	var stable, overlay, aborted []OptRecord
	dropped := [][]uint64{{0, 0, 0}}
	j.SetSource(func() *OptState {
		return &OptState{
			Stable:  append([]OptRecord(nil), stable...),
			Overlay: append([]OptRecord(nil), overlay...),
			Aborted: append([]OptRecord(nil), aborted...),
			Dropped: [][]uint64{append([]uint64(nil), dropped[0]...)},
		}
	})
	for i := 0; i < 20; i++ {
		rec := optRec(fmt.Sprintf("o001-s000-%09d", i+1), fmt.Sprintf("k%d", i), "v", int64(i+1), "", "o003-s000-000000001")
		before := j.Stats().Snapshots
		j.Tentative(rec, true)
		rec.U.Seq = uint64(i + 1)
		j.Stable(rec)
		if j.Stats().Snapshots != before {
			t.Fatalf("a snapshot inside operation %d: the source does not say yet what the journal says", i)
		}
		stable = append(stable, rec)
		if i == 11 {
			// The watermark passes the first ten: the owner keeps a count of
			// them, their stable updates bare.
			dropped[0][0] = 10
			for k := range stable[:10] {
				stable[k].Guard, stable[k].Deps = "", nil
			}
		}
		j.MaybeCompact()
	}
	if j.Stats().Snapshots < 4 {
		t.Fatalf("%d snapshots of 40 records at CompactEvery 8", j.Stats().Snapshots)
	}
	// On top of the last snapshot: a pending record, and a loser's life.
	last := optRec("o002-s000-000000001", "pending", "p", 99, "")
	j.Tentative(last, false)
	loser := optRec("o003-s000-000000001", "k0", "l", 100, GuardStringForTest)
	j.Tentative(loser, false)
	j.Abort(loser.U.TxnID, true)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, st := openOpt(t, b, Options{})
	if st == nil {
		t.Fatal("no state replayed")
	}
	if len(st.Stable) != 20 {
		t.Fatalf("replayed %d stable records, want 20", len(st.Stable))
	}
	for i, rec := range st.Stable {
		if rec.U.Seq != uint64(i+1) {
			t.Fatalf("stable[%d].Seq = %d", i, rec.U.Seq)
		}
		if bare := rec.Guard == "" && rec.Deps == nil; bare != (i < 10) {
			t.Fatalf("stable[%d] = %+v: want the first ten bare and the rest with their constraints", i, rec)
		}
	}
	if len(st.Dropped) != 1 || len(st.Dropped[0]) != 3 || st.Dropped[0][0] != 10 || st.Dropped[0][1] != 0 {
		t.Fatalf("Dropped = %v, want [[10 0 0]]", st.Dropped)
	}
	if len(st.Overlay) != 1 || st.Overlay[0].U.TxnID != last.U.TxnID {
		t.Fatalf("Overlay = %+v, want the pending record", st.Overlay)
	}
	if len(st.Aborted) != 1 || st.Aborted[0].U != loser.U || st.Aborted[0].Guard != loser.Guard {
		t.Fatalf("Aborted = %+v, want the loser journaled after the snapshot, whole", st.Aborted)
	}
}
