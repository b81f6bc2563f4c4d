package store

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

// listModel is the obviously-right committed log: a plain list of updates
// and a map from each key to its last writer's value.
type listModel struct {
	log  []Update
	last map[string]Value
}

func (m *listModel) add(u Update) {
	m.log = append(m.log, u)
	m.last[u.Key] = Value{Data: u.Data, Version: Version{Seq: u.Seq, Stamp: u.Stamp, Writer: u.TxnID}}
}

func (m *listModel) since(seq uint64) []Update {
	return m.log[min(seq, uint64(len(m.log))):]
}

// logRun commits a random stream of updates into a Store, by prepare and
// commit, by anti-entropy, or both, with aborted, stale and gapped ones in
// between, and into a Staged's stable prefix, by restore or by staging and
// promotion; after every step both must answer every question about the
// committed log as the list does. Keys come from a small pool that the
// stream widens now and then, so the key table grows while old keys are
// written again.
func logRun(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	s, g := New(), NewStaged()
	m := &listModel{last: map[string]Value{}}
	keys := []string{"a", "b", "c"}
	length := 1 + rng.Intn(4*BlockLen)
	for step := 0; len(m.log) < length; step++ {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("seed %d step %d (%d committed): %s", seed, step, len(m.log), fmt.Sprintf(format, args...))
		}
		if rng.Intn(8) == 0 {
			keys = append(keys, fmt.Sprint("k", step))
		}
		n := uint64(len(m.log))
		u := Update{TxnID: fmt.Sprint("t", step), Key: keys[rng.Intn(len(keys))],
			Data: fmt.Sprint("d", rng.Intn(50)), Seq: n + 1, Stamp: int64(10 * step)}
		switch op := rng.Intn(10); {
		case op < 4:
			if err := s.Prepare(u); err != nil {
				return fail("Prepare(%+v): %v", u, err)
			}
			if err := s.Commit(u.TxnID); err != nil {
				return fail("Commit(%s): %v", u.TxnID, err)
			}
		case op < 6:
			if err := s.ApplyCommitted(u); err != nil {
				return fail("ApplyCommitted(%+v): %v", u, err)
			}
		case op < 7: // anti-entropy overtakes a prepared update
			if err := s.Prepare(u); err != nil {
				return fail("Prepare(%+v): %v", u, err)
			}
			if err := s.ApplyCommitted(u); err != nil {
				return fail("ApplyCommitted(%+v): %v", u, err)
			}
			if err := s.Commit(u.TxnID); err != nil {
				return fail("Commit(%s) after anti-entropy: %v", u.TxnID, err)
			}
		case op < 8:
			if err := s.Prepare(u); err != nil {
				return fail("Prepare(%+v): %v", u, err)
			}
			s.Abort(u.TxnID)
			continue
		default: // stale and gapped updates change nothing
			if n > 0 {
				stale := u
				stale.Seq = 1 + uint64(rng.Int63n(int64(n)))
				if err := s.ApplyCommitted(stale); err != nil {
					return fail("ApplyCommitted(stale %+v): %v", stale, err)
				}
				if err := s.Prepare(stale); !errors.Is(err, ErrStale) {
					return fail("Prepare(stale %+v) = %v", stale, err)
				}
			}
			gap := u
			gap.Seq = n + 2
			if err := s.ApplyCommitted(gap); !errors.Is(err, ErrSeqGap) {
				return fail("ApplyCommitted(gapped %+v) = %v", gap, err)
			}
			continue
		}
		if rng.Intn(2) == 0 {
			if err := g.RestoreStable(u); err != nil {
				return fail("RestoreStable(%+v): %v", u, err)
			}
		} else {
			if _, err := g.Stage(u); err != nil {
				return fail("Stage(%+v): %v", u, err)
			}
			if p, _ := g.PromoteUpTo(u.Stamp, nil); p != 1 {
				return fail("PromoteUpTo(%d) promoted %d", u.Stamp, p)
			}
		}
		m.add(u)
		if err := sameAsList(s, g, m, append(keys, "never"), rng); err != nil {
			return fail("%v", err)
		}
	}
	return nil
}

// sameAsList compares every read of the committed log of s and g with m's.
func sameAsList(s *Store, g *Staged, m *listModel, keys []string, rng *rand.Rand) error {
	n := uint64(len(m.log))
	if s.LastSeq() != n || s.LogLen() != len(m.log) || g.StableLen() != len(m.log) {
		return fmt.Errorf("LastSeq %d LogLen %d StableLen %d", s.LastSeq(), s.LogLen(), g.StableLen())
	}
	if !slices.Equal(s.Log(), m.log) || !slices.Equal(g.StableLog(), m.log) {
		return fmt.Errorf("Log %+v, StableLog %+v", s.Log(), g.StableLog())
	}
	for _, seq := range []uint64{0, uint64(rng.Int63n(int64(n) + 3)), n, n + 1, math.MaxUint64} {
		if got := s.UpdatesSince(seq); got == nil || !slices.Equal(got, m.since(seq)) {
			return fmt.Errorf("UpdatesSince(%d) = %+v", seq, got)
		}
	}
	for i, u := range m.log {
		if got := g.StableAt(i); got != u {
			return fmt.Errorf("StableAt(%d) = %+v, want %+v", i, got, u)
		}
	}
	for _, key := range keys {
		want, wok := m.last[key]
		if got, ok := s.Get(key); got != want || ok != wok {
			return fmt.Errorf("Get(%q) = %+v %v, want %+v %v", key, got, ok, want, wok)
		}
		if got, ok := g.Get(key); got != want || ok != wok {
			return fmt.Errorf("Staged.Get(%q) = %+v %v, want %+v %v", key, got, ok, want, wok)
		}
		if got := s.VersionOf(key); got != want.Version {
			return fmt.Errorf("VersionOf(%q) = %+v, want %+v", key, got, want.Version)
		}
		if got := g.StableWriter(key); got != want.Version.Writer {
			return fmt.Errorf("StableWriter(%q) = %q, want %q", key, got, want.Version.Writer)
		}
	}
	names := make([]string, 0, len(m.last))
	for k := range m.last {
		names = append(names, k)
	}
	sort.Strings(names)
	if got := s.Keys(); !slices.Equal(got, names) {
		return fmt.Errorf("Keys = %v, want %v", got, names)
	}
	if got := s.Snapshot(); !reflect.DeepEqual(got, m.last) {
		return fmt.Errorf("Snapshot = %v, want %v", got, m.last)
	}
	if r := FromState(s.State()); !slices.Equal(r.Log(), m.log) || !reflect.DeepEqual(r.Snapshot(), m.last) {
		return fmt.Errorf("the store rebuilt from its State holds %+v", r.Log())
	}
	return nil
}

// TestCommittedLogsMatchPlainList: Store and Staged keep their committed
// logs in one layout, and both answer every read of it — Get, VersionOf,
// Keys, Snapshot, Log, UpdatesSince, LastSeq, StableAt, StableLog,
// StableWriter — as a plain list of updates and a map of last writers do,
// at every step of runs long enough to cross several blocks.
func TestCommittedLogsMatchPlainList(t *testing.T) {
	prop := func(seed int64) bool {
		if err := logRun(seed); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCommitLogLayout: an entry is 48 bytes, a log never leaves more than
// BlockLen-1 entries idle (an empty one holds no block), a block is never
// re-allocated — every entry stays where it was written — and the key
// table keeps each key once.
func TestCommitLogLayout(t *testing.T) {
	if size := unsafe.Sizeof(logEntry{}); size > 48 {
		t.Fatalf("a log entry is %d bytes, want at most 48", size)
	}
	var l commitLog
	var seen []*logEntry // each block's first entry
	const keys = 7
	for i := 0; i <= 5*BlockLen+3; i++ {
		blocks, pinned := l.entries.Footprint()
		if idle := blocks*BlockLen - pinned - l.len(); idle < 0 || idle > BlockLen-1 {
			t.Fatalf("a log of %d entries holds %d blocks: %d idle", l.len(), blocks, idle)
		}
		if i == 5*BlockLen+3 {
			break
		}
		l.add(Update{TxnID: fmt.Sprint("t", i), Key: fmt.Sprint("k", i%keys), Data: "v"})
		if l.len()%BlockLen == 1 {
			seen = append(seen, l.entries.At(l.len()-1))
		}
		for b, first := range seen {
			if l.entries.At(b*BlockLen) != first {
				t.Fatalf("after %d entries block %d moved", l.len(), b)
			}
		}
	}
	for i := 0; i < l.len(); i++ {
		if u := l.at(i); u.TxnID != fmt.Sprint("t", i) || u.Seq != uint64(i+1) || u.Key != fmt.Sprint("k", i%keys) {
			t.Fatalf("position %d holds %+v", i, u)
		}
	}
	if len(l.keys) != keys || len(l.keyOf) != keys {
		t.Fatalf("the key table holds %d keys (%d indexed), want %d", len(l.keys), len(l.keyOf), keys)
	}
}
