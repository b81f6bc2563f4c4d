package durable

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/agent"
	"repro/internal/disk"
	"repro/internal/reliable"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/wal"
)

func upd(i int) store.Update {
	return store.Update{
		TxnID: fmt.Sprintf("txn-%03d", i),
		Key:   fmt.Sprintf("key-%d", i%3),
		Data:  fmt.Sprintf("value-%03d", i),
		Seq:   uint64(i),
		Stamp: int64(1000 * i),
	}
}

func aid(n, seq int) agent.ID {
	return agent.ID{Home: runtime.NodeID(n), Born: int64(n * 17), Seq: uint64(seq)}
}

func TestJournalRoundTrip(t *testing.T) {
	m := disk.NewMem()
	j, st, err := Open(m, Options{Policy: wal.PolicyCommit})
	if err != nil || st != nil {
		t.Fatalf("fresh Open = %v, state %v", err, st)
	}
	// Drive a store through the journal the way a replica does.
	s := store.New()
	s.SetJournal(j)
	for i := 1; i <= 5; i++ {
		if err := s.ApplyCommitted(upd(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Prepare(upd(6)); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(upd(6).TxnID); err != nil {
		t.Fatal(err)
	}
	if err := s.Prepare(upd(7)); err != nil {
		t.Fatal(err)
	}
	s.Abort(upd(7).TxnID)
	if err := s.Prepare(upd(7)); err != nil {
		t.Fatal(err) // staged tentative, never committed
	}
	ls := LockState{
		Epoch: 2, LLVersion: 9, HeadVersion: 7,
		LL:    []agent.ID{aid(1, 1), aid(2, 1)},
		Grant: aid(1, 1), GrantAttempt: 3,
	}
	j.LogLock(ls, true)
	j.LogGone(aid(3, 1))
	j.NextSeq(1)
	j.Acked(4, 10, []uint64{12})
	j.Acked(4, 10, []uint64{14, 12})
	j.Acked(4, 12, nil)
	j.Close()

	j2, st2, err := Open(m, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	if st2 == nil {
		t.Fatal("reopen returned nil state")
	}
	if got := len(st2.Store.Log); got != 6 {
		t.Fatalf("replayed %d committed updates, want 6", got)
	}
	for i, u := range st2.Store.Log {
		if u != upd(i+1) {
			t.Fatalf("log[%d] = %+v, want %+v", i, u, upd(i+1))
		}
	}
	if len(st2.Store.Tentative) != 1 || st2.Store.Tentative[0] != upd(7) {
		t.Fatalf("tentative = %+v, want [upd(7)]", st2.Store.Tentative)
	}
	if !reflect.DeepEqual(st2.Lock, ls) {
		t.Fatalf("lock = %+v, want %+v", st2.Lock, ls)
	}
	if len(st2.Gone) != 1 || st2.Gone[0] != aid(3, 1) {
		t.Fatalf("gone = %+v", st2.Gone)
	}
	if st2.RelNextSeq != relNextStride {
		t.Fatalf("RelNextSeq = %d, want the first stride %d", st2.RelNextSeq, relNextStride)
	}
	if want := (reliable.Window{Mark: 12, Above: []uint64{14}}); !reflect.DeepEqual(st2.RelSeen[4], want) {
		t.Fatalf("RelSeen[4] = %+v, want %+v", st2.RelSeen[4], want)
	}
}

func TestCompactionSupersedesRecords(t *testing.T) {
	m := disk.NewMem()
	j, _, err := Open(m, Options{Policy: wal.PolicyAlways, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := store.New()
	s.SetJournal(j)
	for i := 1; i <= 10; i++ {
		s.ApplyCommitted(upd(i))
	}
	j.AddSource(func(ds *State) {
		ds.Store = s.State()
		ds.Lock = LockState{Epoch: 1}
	})
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 11; i <= 12; i++ {
		s.ApplyCommitted(upd(i))
	}
	j.Close()

	_, st, err := Open(m, Options{})
	if err != nil || st == nil {
		t.Fatalf("reopen: %v, %v", err, st)
	}
	if len(st.Store.Log) != 12 || st.Lock.Epoch != 1 {
		t.Fatalf("after compaction: %d updates, epoch %d", len(st.Store.Log), st.Lock.Epoch)
	}
	rebuilt := store.FromState(st.Store)
	if rebuilt.LastSeq() != 12 {
		t.Fatalf("rebuilt LastSeq = %d", rebuilt.LastSeq())
	}
}

func TestMaybeCompactTriggersAtThreshold(t *testing.T) {
	m := disk.NewMem()
	j, _, err := Open(m, Options{Policy: wal.PolicyNone, CompactEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := store.New()
	s.SetJournal(j)
	j.AddSource(func(ds *State) { ds.Store = s.State() })
	for i := 1; i <= 20; i++ {
		s.ApplyCommitted(upd(i))
		j.MaybeCompact()
	}
	if snaps := j.Stats().Snapshots; snaps < 2 {
		t.Fatalf("Snapshots = %d, want >= 2 at CompactEvery=8 over 20 records", snaps)
	}
	j.Close()
	_, st, err := Open(m, Options{})
	if err != nil || len(st.Store.Log) != 20 {
		t.Fatalf("reopen: %v, %d updates", err, len(st.Store.Log))
	}
}

func TestRelNextStrideNeverReusesSequence(t *testing.T) {
	// Crash after any number of sends: the restored counter must be at
	// least the highest sequence number ever handed out.
	for _, sends := range []int{1, relNextStride - 1, relNextStride, relNextStride + 1, 3 * relNextStride} {
		m := disk.NewMem()
		j, _, _ := Open(m, Options{Policy: wal.PolicyAlways})
		for seq := 1; seq <= sends; seq++ {
			j.NextSeq(uint64(seq))
		}
		j.Kill() // crash: PolicyAlways synced every record
		_, st, err := Open(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if st == nil || st.RelNextSeq < uint64(sends) {
			t.Fatalf("after %d sends, restored RelNextSeq = %v", sends, st)
		}
	}
}

func TestNextSeqIsDurableBeforeTheSend(t *testing.T) {
	// recRelNext is a commit barrier: under the default PolicyCommit the
	// high-water mark must be on disk before the stride's first message
	// leaves the node. A crash right after NextSeq — with no other commit in
	// between — must still restore the full stride, or the restarted node
	// would reuse sequence numbers its peers' dedup tables silently swallow.
	m := disk.NewMem()
	j, _, _ := Open(m, Options{Policy: wal.PolicyCommit})
	j.NextSeq(1)
	j.Kill()
	m.Crash()
	_, st, err := Open(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.RelNextSeq != relNextStride {
		t.Fatalf("after crash, restored state = %+v, want RelNextSeq %d", st, relNextStride)
	}
}

func TestSnapshotKeepsSendCounterHighWater(t *testing.T) {
	// Sends between a snapshot and the journaled high-water write no
	// records; the snapshot must carry the high-water so they still cannot
	// be reused after a crash.
	m := disk.NewMem()
	j, _, _ := Open(m, Options{Policy: wal.PolicyAlways})
	j.NextSeq(1)                                       // journals high-water = relNextStride
	j.AddSource(func(ds *State) { ds.RelNextSeq = 1 }) // exact counter only
	if err := j.Compact(); err != nil {
		t.Fatal(err)
	}
	j.Kill()
	_, st, err := Open(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.RelNextSeq != relNextStride {
		t.Fatalf("RelNextSeq = %d, want high-water %d", st.RelNextSeq, relNextStride)
	}
}

func TestReplayFailsOnForeignRecord(t *testing.T) {
	m := disk.NewMem()
	l, _, _, _ := wal.Open(m, wal.Options{Policy: wal.PolicyAlways})
	l.Append(wal.Record{Type: 200, Data: []byte("not ours")}, true)
	l.Close()
	if _, _, err := Open(m, Options{}); err == nil {
		t.Fatal("Open replayed a record of unknown type")
	}
}

// TestQuickCrashPointReplaysCommitPrefix is the paper-facing durability
// property (ISSUE satellite): take a valid journal recording a committed
// update sequence, truncate its WAL at ANY byte (a simulated crash point
// under PolicyNone — the worst case), and the replayed store state must be
// a prefix of the committed sequence. Never a gap, never an invented
// update, never a replay error.
func TestQuickCrashPointReplaysCommitPrefix(t *testing.T) {
	const commits = 30
	segName := func(m *disk.Mem) string {
		names, _ := m.List()
		for _, n := range names {
			if len(n) > 4 && n[:4] == "wal-" {
				return n
			}
		}
		t.Fatal("no segment file")
		return ""
	}
	build := func() *disk.Mem {
		m := disk.NewMem()
		j, _, _ := Open(m, Options{Policy: wal.PolicyNone, CompactEvery: -1})
		s := store.New()
		s.SetJournal(j)
		for i := 1; i <= commits; i++ {
			if err := s.Prepare(upd(i)); err != nil {
				t.Fatal(err)
			}
			if err := s.Commit(upd(i).TxnID); err != nil {
				t.Fatal(err)
			}
		}
		j.Sync() // make all bytes visible to Truncate-after-Crash
		j.Kill()
		return m
	}
	prop := func(cut uint16) bool {
		m := build()
		seg := segName(m)
		at := int(cut) % (m.Size(seg) + 1)
		if err := m.Truncate(seg, at); err != nil {
			return false
		}
		_, st, err := Open(m, Options{})
		if err != nil {
			return false
		}
		if st == nil {
			return true // truncated to nothing: the empty prefix
		}
		rebuilt := store.FromState(st.Store)
		last := rebuilt.LastSeq()
		if last > commits {
			return false
		}
		log := rebuilt.Log()
		if uint64(len(log)) != last {
			return false
		}
		for i, u := range log {
			if u != upd(i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodingRejectsTrailingBytes(t *testing.T) {
	b := encodeUpdate(upd(3))
	if _, err := decodeUpdate(append(b, 0xAA)); err == nil {
		t.Fatal("decodeUpdate accepted trailing bytes")
	}
	if _, err := decodeUpdate(b[:len(b)-1]); err == nil {
		t.Fatal("decodeUpdate accepted a short buffer")
	}
}

func TestStateEncodingDeterministic(t *testing.T) {
	st := &State{
		Store: store.State{Log: []store.Update{upd(1), upd(2)}},
		Lock:  LockState{Epoch: 3, LL: []agent.ID{aid(2, 4)}},
		Gone:  []agent.ID{aid(1, 1)},
		RelSeen: map[runtime.NodeID]reliable.Window{
			5: {Mark: 4, Above: []uint64{7, 9}},
			2: {Mark: 1},
		},
		RelNextSeq: 64,
	}
	a := encodeState(st)
	b := encodeState(st)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("encodeState not deterministic")
	}
	got, err := decodeState(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.RelSeen, st.RelSeen) {
		t.Fatalf("RelSeen = %+v, want %+v", got.RelSeen, st.RelSeen)
	}
	if got.Lock.Epoch != 3 || len(got.Store.Log) != 2 || got.RelNextSeq != 64 {
		t.Fatalf("round trip: %+v", got)
	}
}

// TestGoneSetSurvivesAsWatermarksAndResidue: watermark advances are
// journaled like gone records, replay prunes the residue they cover, the
// compaction snapshot carries both parts, and BirthFloor lands above every
// watermark so a restarted home never mints an ID under one.
func TestGoneSetSurvivesAsWatermarksAndResidue(t *testing.T) {
	m := disk.NewMem()
	j, _, err := Open(m, Options{Policy: wal.PolicyAlways, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	early, late, other := agent.ID{Home: 1, Born: 10, Seq: 1}, agent.ID{Home: 1, Born: 30, Seq: 3}, agent.ID{Home: 2, Born: 20, Seq: 2}
	wm := agent.Watermark{Home: 1, Since: 10, Upto: agent.After(agent.ID{Home: 1, Born: 20, Seq: 2}), Count: 2}
	j.LogGone(early)
	j.LogGone(late)
	j.LogGone(other)
	j.LogGoneMark(wm)
	j.Kill()

	check := func(label string, st *State) {
		t.Helper()
		if !reflect.DeepEqual(st.Marks, []agent.Watermark{wm}) {
			t.Fatalf("%s: marks = %+v", label, st.Marks)
		}
		if !reflect.DeepEqual(st.Gone, []agent.ID{other, late}) {
			t.Fatalf("%s: residue = %+v, want the two the watermark does not cover", label, st.Gone)
		}
		if st.BirthFloor() < late.Born {
			t.Fatalf("%s: BirthFloor = %d", label, st.BirthFloor())
		}
	}
	j2, st, err := Open(m, Options{Policy: wal.PolicyAlways, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	check("replayed records", st)
	j2.AddSource(func(dst *State) { dst.Gone, dst.Marks = st.Gone, st.Marks })
	if err := j2.Compact(); err != nil {
		t.Fatal(err)
	}
	j2.Kill()
	_, st3, err := Open(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check("snapshot", st3)

	// A watermark that outruns every individual record still raises the floor.
	st3.Marks = append(st3.Marks, agent.Watermark{Home: 3, Upto: agent.Mark{Born: 999}})
	if got := st3.BirthFloor(); got != 999 {
		t.Fatalf("BirthFloor = %d, want the highest watermark's 999", got)
	}
}

// TestPreWatermarkSnapshotStillDecodes: a data dir written before the gone
// set became a summary holds an explicit list and no watermark extension;
// it decodes, and the list is the residue.
func TestPreWatermarkSnapshotStillDecodes(t *testing.T) {
	old := &State{
		Store: store.State{Log: []store.Update{upd(1)}},
		Gone:  []agent.ID{aid(1, 1), aid(2, 2)},
	}
	got, err := decodeState(encodeState(old)) // no Marks: byte-identical to the old layout
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Gone, old.Gone) || got.Marks != nil {
		t.Fatalf("gone = %+v marks = %+v", got.Gone, got.Marks)
	}
	sharded := &State{Gone: old.Gone, ExtraStores: []store.State{{}}, ExtraLocks: []LockState{{Epoch: 2}}}
	if got, err = decodeState(encodeState(sharded)); err != nil || got.Marks != nil || len(got.ExtraLocks) != 1 {
		t.Fatalf("sharded pre-watermark snapshot: %+v, %v", got, err)
	}
	sharded.Marks = []agent.Watermark{{Home: 1, Upto: agent.Mark{Born: 5, Seq: 1}}}
	if got, err = decodeState(encodeState(sharded)); err != nil || len(got.Marks) != 1 || len(got.ExtraLocks) != 1 {
		t.Fatalf("sharded snapshot with watermarks: %+v, %v", got, err)
	}
}

// TestReceiveWindowsSurviveAsWatermarkAndResidue: one record per revealed
// window change replays to watermark + residue, the compaction snapshot
// carries both parts, and its size does not know how many frames the
// watermark covers.
func TestReceiveWindowsSurviveAsWatermarkAndResidue(t *testing.T) {
	m := disk.NewMem()
	j, _, err := Open(m, Options{Policy: wal.PolicyAlways, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	j.Acked(2, 3, []uint64{6, 5}) // arrival order, not sorted
	j.Acked(2, 6, []uint64{9})    // the hole at 4 filled: 5 and 6 fold into the watermark
	j.Acked(3, 0, []uint64{2})
	j.Kill()
	want := map[runtime.NodeID]reliable.Window{
		2: {Mark: 6, Above: []uint64{9}},
		3: {Above: []uint64{2}},
	}
	j2, st, err := Open(m, Options{Policy: wal.PolicyAlways, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.RelSeen, want) {
		t.Fatalf("replayed records: RelSeen = %+v, want %+v", st.RelSeen, want)
	}
	j2.AddSource(func(dst *State) { dst.RelSeen = st.RelSeen })
	if err := j2.Compact(); err != nil {
		t.Fatal(err)
	}
	j2.Kill()
	_, st3, err := Open(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st3.RelSeen, want) {
		t.Fatalf("snapshot: RelSeen = %+v, want %+v", st3.RelSeen, want)
	}

	small := encodeState(&State{RelSeen: map[runtime.NodeID]reliable.Window{2: {Mark: 100, Above: []uint64{102}}}})
	large := encodeState(&State{RelSeen: map[runtime.NodeID]reliable.Window{2: {Mark: 100000, Above: []uint64{100002}}}})
	if len(large) > len(small)+4 { // two varints, each two bytes longer
		t.Fatalf("snapshot grew from %d to %d bytes with the watermark", len(small), len(large))
	}
	if empty := encodeState(&State{}); len(empty) != len(encodeState(&State{RelSeen: map[runtime.NodeID]reliable.Window{}})) {
		t.Fatal("an empty RelSeen changed the snapshot bytes")
	}
}

// TestPreWindowJournalStillDecodes: a data dir written before receive
// windows holds one relSeen record per frame and snapshots listing every
// number ever seen, with no watermark extension. Both decode: contiguous
// numbers from 1 fold into the watermark, the rest are residue until a
// frame's floor passes them.
func TestPreWindowJournalStillDecodes(t *testing.T) {
	relSeen := func(from runtime.NodeID, seq uint64) []byte {
		return binary.AppendUvarint(binary.AppendVarint(nil, int64(from)), seq)
	}
	m := disk.NewMem()
	j, _, err := Open(m, Options{Policy: wal.PolicyAlways, CompactEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range []uint64{1, 2, 7, 4, 7} {
		j.append(recRelSeen, relSeen(5, seq), false)
	}
	j.Kill()
	_, st, err := Open(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := reliable.Window{Mark: 2, Above: []uint64{4, 7}}
	if !reflect.DeepEqual(st.RelSeen[5], want) {
		t.Fatalf("replayed relSeen records: %+v, want %+v", st.RelSeen[5], want)
	}

	// The old snapshot layout, by hand: the base section only, RelSeen as
	// sender, count, sorted numbers.
	var old []byte
	old = appendStoreState(old, store.State{Log: []store.Update{upd(1)}})
	old = appendLock(old, LockState{Epoch: 3})
	old = binary.AppendUvarint(old, 0)  // gone
	old = binary.AppendUvarint(old, 64) // RelNextSeq
	old = binary.AppendUvarint(old, 1)  // one sender
	old = binary.AppendVarint(old, 5)
	old = binary.AppendUvarint(old, 3)
	for _, seq := range []uint64{3, 9, 17} { // per-node numbering: never contiguous
		old = binary.AppendUvarint(old, seq)
	}
	got, err := decodeState(old)
	if err != nil {
		t.Fatal(err)
	}
	if want := (reliable.Window{Above: []uint64{3, 9, 17}}); !reflect.DeepEqual(got.RelSeen[5], want) || got.RelNextSeq != 64 {
		t.Fatalf("old snapshot: RelSeen[5] = %+v RelNextSeq = %d", got.RelSeen[5], got.RelNextSeq)
	}
	// Without watermarks the new encoder writes that layout byte for byte.
	if !reflect.DeepEqual(encodeState(got), old) {
		t.Fatal("a window without a watermark no longer encodes to the old layout")
	}
	// With one, every extension before the receive-window one is forced.
	got.RelSeen[5] = reliable.Window{Mark: 20, Above: []uint64{22}}
	again, err := decodeState(encodeState(got))
	if err != nil || !reflect.DeepEqual(again.RelSeen, got.RelSeen) || again.Marks != nil || again.ExtraLocks != nil {
		t.Fatalf("round trip with a watermark: %+v, %v", again, err)
	}
}
