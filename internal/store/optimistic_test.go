package store

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func stagedUpdate(txn, key, data string, stamp int64) Update {
	return Update{TxnID: txn, Key: key, Data: data, Stamp: stamp}
}

func TestStagedCandidateOrder(t *testing.T) {
	s := NewStaged()
	// Arrivals out of candidate order; the overlay must sort by
	// (Stamp, TxnID) regardless.
	ins := []Update{
		stagedUpdate("o002-s000-000000001", "k", "b", 3),
		stagedUpdate("o001-s000-000000001", "k", "a", 1),
		stagedUpdate("o001-s000-000000002", "k", "c", 3),
	}
	displaced := make([]int, len(ins))
	for i, u := range ins {
		var err error
		if displaced[i], err = s.Stage(u); err != nil {
			t.Fatalf("Stage(%s): %v", u.TxnID, err)
		}
	}
	// First insert displaces nothing; the stamp-1 arrival displaces one;
	// stamp-3 with smaller TxnID displaces the stamp-3 tail entry.
	if displaced[0] != 0 || displaced[1] != 1 || displaced[2] != 1 {
		t.Fatalf("displaced = %v, want [0 1 1]", displaced)
	}
	if got := s.Rollbacks(); got != 2 {
		t.Fatalf("Rollbacks = %d, want 2", got)
	}
	ov := s.Overlay()
	want := []string{"o001-s000-000000001", "o001-s000-000000002", "o002-s000-000000001"}
	for i, txn := range want {
		if ov[i].TxnID != txn {
			t.Fatalf("overlay[%d] = %s, want %s", i, ov[i].TxnID, txn)
		}
	}
	// Tentative read sees the overlay's last writer; stable read nothing.
	if v, ok := s.TentativeGet("k"); !ok || v.Data != "b" {
		t.Fatalf("TentativeGet = %+v %v, want last-writer b", v, ok)
	}
	if _, ok := s.Get("k"); ok {
		t.Fatal("stable Get visible before promotion")
	}
}

func TestStagedDuplicateRejected(t *testing.T) {
	s := NewStaged()
	u := stagedUpdate("o001-s000-000000001", "k", "a", 1)
	if _, err := s.Stage(u); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stage(u); !errors.Is(err, ErrTxnCollision) {
		t.Fatalf("restaging = %v, want ErrTxnCollision", err)
	}
	if _, _ = s.PromoteUpTo(10, nil); !s.InStable(u.TxnID) {
		t.Fatal("not promoted")
	}
	if _, err := s.Stage(u); !errors.Is(err, ErrTxnCollision) {
		t.Fatalf("restaging after promotion = %v, want ErrTxnCollision", err)
	}
}

// TestStagedForget: forgetting a stable transaction shrinks the index and
// nothing else — the stable prefix, its digest and the values stay whole —
// and an overlay entry cannot be forgotten.
func TestStagedForget(t *testing.T) {
	s := NewStaged()
	old := stagedUpdate("o001-s000-000000001", "k", "a", 1)
	pending := stagedUpdate("o002-s000-000000001", "k", "b", 7)
	for _, u := range []Update{old, pending} {
		if _, err := s.Stage(u); err != nil {
			t.Fatal(err)
		}
	}
	s.PromoteUpTo(1, nil)
	digest, n := s.StableDigest()

	s.Forget(old.TxnID)
	s.Forget(pending.TxnID)
	s.Forget("o009-s000-000000009") // never seen: nothing to do
	if s.InStable(old.TxnID) {
		t.Fatal("a forgotten transaction is still indexed")
	}
	if !s.InOverlay(pending.TxnID) {
		t.Fatal("Forget dropped an overlay entry from the index: the election could stage it twice")
	}
	if _, err := s.Stage(pending); !errors.Is(err, ErrTxnCollision) {
		t.Fatalf("restaging a tentative update after Forget = %v, want ErrTxnCollision", err)
	}
	if d, m := s.StableDigest(); d != digest || m != n || s.StableLen() != 1 || s.StableAt(0).TxnID != old.TxnID {
		t.Fatalf("Forget changed the stable prefix: digest %s/%d, was %s/%d", d, m, digest, n)
	}
	if v := mustGet(t, s, "k"); v.Data != "a" || s.StableWriter("k") != old.TxnID {
		t.Fatalf("Forget changed the stable value: %+v", v)
	}
	if len(s.tier) != 1 {
		t.Fatalf("the index holds %d transactions, want the tentative one", len(s.tier))
	}
}

func TestStagedPromoteGuardAndSeq(t *testing.T) {
	s := NewStaged()
	for _, u := range []Update{
		stagedUpdate("o001-s000-000000001", "k", "a", 1),
		stagedUpdate("o002-s000-000000001", "k", "b", 1),
		stagedUpdate("o003-s000-000000001", "q", "z", 5),
	} {
		if _, err := s.Stage(u); err != nil {
			t.Fatal(err)
		}
	}
	// Election up to stamp 1: both k-writers are candidates; the guard
	// admits only the first writer of each key (a CAS race).
	n, aborted := s.PromoteUpTo(1, func(u Update) bool { return s.StableWriter(u.Key) == "" })
	promoted := lastStable(s, n)
	if len(promoted) != 1 || promoted[0].TxnID != "o001-s000-000000001" || promoted[0].Seq != 1 {
		t.Fatalf("promoted = %+v, want o001 at seq 1", promoted)
	}
	if len(aborted) != 1 || aborted[0].TxnID != "o002-s000-000000001" {
		t.Fatalf("aborted = %+v, want o002", aborted)
	}
	if s.OverlayLen() != 1 {
		t.Fatalf("overlay len %d, want the stamp-5 entry left", s.OverlayLen())
	}
	// The stamp-5 entry promotes in a later batch with the next Seq.
	n, aborted = s.PromoteUpTo(5, nil)
	promoted = lastStable(s, n)
	if len(aborted) != 0 || len(promoted) != 1 || promoted[0].Seq != 2 {
		t.Fatalf("second batch = %+v / %+v, want one promotion at seq 2", promoted, aborted)
	}
	if v, ok := s.Get("k"); !ok || v.Data != "a" {
		t.Fatalf("stable k = %+v %v, want a", v, ok)
	}
	if got := s.StableWriter("k"); got != "o001-s000-000000001" {
		t.Fatalf("StableWriter(k) = %s", got)
	}
}

func TestStagedRestoreMatchesPromotion(t *testing.T) {
	a := NewStaged()
	for _, u := range []Update{
		stagedUpdate("o001-s000-000000001", "k", "a", 1),
		stagedUpdate("o002-s000-000000001", "k", "b", 2),
	} {
		if _, err := a.Stage(u); err != nil {
			t.Fatal(err)
		}
	}
	a.PromoteUpTo(10, nil)

	b := NewStaged()
	for _, u := range a.StableLog() {
		if err := b.RestoreStable(u); err != nil {
			t.Fatalf("RestoreStable: %v", err)
		}
	}
	da, na := a.StableDigest()
	db, nb := b.StableDigest()
	if da != db || na != nb {
		t.Fatalf("restored digest %s/%d, want %s/%d", db, nb, da, na)
	}
	if va, _ := a.Get("k"); va != mustGet(t, b, "k") {
		t.Fatal("restored value mismatch")
	}
	// A gap in the restore sequence is corruption.
	c := NewStaged()
	if err := c.RestoreStable(a.StableLog()[1]); !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gap restore = %v, want ErrSeqGap", err)
	}
}

// lastStable returns the stable prefix's last n updates: what the
// PromoteUpTo that returned n promoted.
func lastStable(s *Staged, n int) []Update {
	log := s.StableLog()
	return log[len(log)-n:]
}

func mustGet(t *testing.T, s *Staged, key string) Value {
	t.Helper()
	v, ok := s.Get(key)
	if !ok {
		t.Fatalf("missing stable %q", key)
	}
	return v
}

func TestStagedDigestIsOrderDependent(t *testing.T) {
	mk := func(first, second Update) string {
		s := NewStaged()
		first.Seq, second.Seq = 1, 2
		if err := s.RestoreStable(first); err != nil {
			t.Fatal(err)
		}
		if err := s.RestoreStable(second); err != nil {
			t.Fatal(err)
		}
		d, _ := s.StableDigest()
		return d
	}
	u1 := stagedUpdate("o001-s000-000000001", "k", "a", 1)
	u2 := stagedUpdate("o002-s000-000000001", "k", "b", 2)
	if mk(u1, u2) == mk(u2, u1) {
		t.Fatal("digest ignores stable order")
	}
}

// stagedModel is the obviously-right Staged: two plain lists, the tentative
// one in arrival order, every question answered by a scan or a sort.
type stagedModel struct {
	pending   []Update
	stable    []Update
	rollbacks uint64
}

func (m *stagedModel) find(list []Update, txn string) bool {
	for _, u := range list {
		if u.TxnID == txn {
			return true
		}
	}
	return false
}

func (m *stagedModel) overlay() []Update {
	out := append([]Update{}, m.pending...)
	sort.SliceStable(out, func(i, j int) bool { return StagedLess(out[i], out[j]) })
	return out
}

func (m *stagedModel) stage(u Update) (int, error) {
	if u.TxnID == "" || u.Key == "" {
		return 0, errors.New("malformed")
	}
	if m.find(m.pending, u.TxnID) || m.find(m.stable, u.TxnID) {
		return 0, ErrTxnCollision
	}
	displaced := 0
	for _, p := range m.pending {
		if StagedLess(u, p) {
			displaced++
		}
	}
	m.pending = append(m.pending, u)
	m.rollbacks += uint64(displaced)
	return displaced, nil
}

func (m *stagedModel) stableWriter(key string) string {
	for i := len(m.stable) - 1; i >= 0; i-- {
		if m.stable[i].Key == key {
			return m.stable[i].TxnID
		}
	}
	return ""
}

func (m *stagedModel) promote(bound int64, guardOK func(Update) bool) (promoted, aborted []Update) {
	var rest []Update
	for _, u := range m.overlay() {
		switch {
		case u.Stamp > bound || len(rest) > 0: // the prefix ended
			rest = append(rest, u)
		case guardOK != nil && !guardOK(u):
			aborted = append(aborted, u)
		default:
			u.Seq = uint64(len(m.stable) + 1)
			m.stable = append(m.stable, u)
			promoted = append(promoted, u)
		}
	}
	m.pending = rest
	return promoted, aborted
}

func (m *stagedModel) restore(u Update) error {
	if u.Seq != uint64(len(m.stable)+1) {
		return ErrSeqGap
	}
	if m.find(m.pending, u.TxnID) || m.find(m.stable, u.TxnID) {
		return ErrTxnCollision
	}
	m.stable = append(m.stable, u)
	return nil
}

func (m *stagedModel) get(key string, tentative bool) (Value, bool) {
	if ov := m.overlay(); tentative {
		for i := len(ov) - 1; i >= 0; i-- {
			if u := ov[i]; u.Key == key {
				return Value{Data: u.Data, Version: Version{Stamp: u.Stamp, Writer: u.TxnID}}, true
			}
		}
	}
	for i := len(m.stable) - 1; i >= 0; i-- {
		if u := m.stable[i]; u.Key == key {
			return Value{Data: u.Data, Version: Version{Seq: u.Seq, Stamp: u.Stamp, Writer: u.TxnID}}, true
		}
	}
	return Value{}, false
}

// sameErr: both nil, or the same sentinel, or both the (unnamed) malformed
// refusal.
func sameErr(got, want error) bool {
	for _, sentinel := range []error{ErrTxnCollision, ErrSeqGap} {
		if errors.Is(want, sentinel) {
			return errors.Is(got, sentinel)
		}
	}
	return (got == nil) == (want == nil)
}

// listDigest is StableDigest's definition over a plain list.
func listDigest(list []Update) string {
	h := fnv.New64a()
	for _, u := range list {
		h.Write([]byte(u.Key + "\x00" + u.TxnID + "\x00" + u.Data + "\xff"))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// stagedRun drives a Staged and the lists through one random sequence of
// Stage / PromoteUpTo (plain, with a pure guard, with a guard that reads the
// stable state mid-batch) / RestoreStable / Forget and returns the first
// disagreement. The transactions come from a window of 18 IDs, so
// duplicates, ties, mid-overlay inserts and re-staging after an abort all
// happen. With grow set, bursts of fresh IDs, staged or restored, also slide
// the window on, and the run lasts until the stable prefix has filled eight
// blocks and half of a ninth.
func stagedRun(seed int64, grow bool) error {
	keys := []string{"a", "b", "c", ""}
	rng := rand.New(rand.NewSource(seed))
	s, m := NewStaged(), &stagedModel{}
	var txns []string
	fresh := func() string {
		i := len(txns)
		txns = append(txns, fmt.Sprintf("o%03d-s000-%09d", 1+i%3, 1+i/3))
		return txns[i]
	}
	for i := 0; i < 18; i++ {
		fresh()
	}
	forgotten := map[string]bool{}
	steps, until := 200, 0
	if grow {
		steps, until = 1<<20, 8*BlockLen+BlockLen/2
	}
	for step := 0; step < steps && len(m.stable) <= until; step++ {
		fail := func(format string, args ...any) error {
			return fmt.Errorf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
		}
		window := txns[len(txns)-18:]
		txn := window[rng.Intn(len(window))]
		if forgotten[txn] {
			continue
		}
		op := rng.Intn(21)
		if grow && rng.Intn(4) == 0 {
			op = 21
		}
		switch {
		case op == 21:
			burst := 1 + rng.Intn(BlockLen)
			restore := rng.Intn(2) == 0
			for i := 0; i < burst; i++ {
				u := Update{TxnID: fresh(), Key: keys[rng.Intn(3)], Data: fmt.Sprint("b", step, "-", i), Stamp: int64(rng.Intn(8))}
				var gerr, werr error
				if restore {
					u.Seq = uint64(len(m.stable) + 1)
					gerr, werr = s.RestoreStable(u), m.restore(u)
				} else {
					_, gerr = s.Stage(u)
					_, werr = m.stage(u)
				}
				if gerr != nil || werr != nil {
					return fail("fresh %+v (restore %v): %v; lists say %v", u, restore, gerr, werr)
				}
			}
		case op == 20:
			if s.Forget(txn); m.find(m.stable, txn) {
				forgotten[txn] = true
			}
		case op%10 < 6:
			u := Update{TxnID: txn, Key: keys[rng.Intn(len(keys))],
				Data: fmt.Sprint("d", step), Stamp: int64(rng.Intn(8))}
			got, gerr := s.Stage(u)
			want, werr := m.stage(u)
			if got != want || !sameErr(gerr, werr) {
				return fail("Stage(%+v) = %d, %v; lists say %d, %v", u, got, gerr, want, werr)
			}
		case op%10 < 9:
			bound := int64(rng.Intn(9))
			var sg, mg func(Update) bool
			switch rng.Intn(3) {
			case 1:
				sg = func(u Update) bool { return len(u.Data)%2 == 0 }
				mg = sg
			case 2: // a CAS race: only a key's first stable writer wins
				sg = func(u Update) bool { return s.StableWriter(u.Key) == "" }
				mg = func(u Update) bool { return m.stableWriter(u.Key) == "" }
			}
			gn, ga := s.PromoteUpTo(bound, sg)
			wp, wa := m.promote(bound, mg)
			if gp := lastStable(s, gn); len(gp) != len(wp) || len(wp) > 0 && !reflect.DeepEqual(gp, wp) || !reflect.DeepEqual(ga, wa) {
				return fail("PromoteUpTo(%d) = %+v / %+v; lists say %+v / %+v", bound, gp, ga, wp, wa)
			}
		default:
			u := Update{TxnID: txn, Key: "a", Data: "r",
				Stamp: int64(rng.Intn(8)), Seq: uint64(len(m.stable) + rng.Intn(2))}
			if gerr, werr := s.RestoreStable(u), m.restore(u); !sameErr(gerr, werr) {
				return fail("RestoreStable(%+v) = %v; lists say %v", u, gerr, werr)
			}
		}
		if got, want := s.Overlay(), m.overlay(); !reflect.DeepEqual(got, want) || s.OverlayLen() != len(want) {
			return fail("overlay %+v; lists say %+v", got, want)
		}
		log := s.StableLog()
		if len(log) != len(m.stable) || s.StableLen() != len(m.stable) {
			return fail("%d stable (StableLen %d); lists say %d", len(log), s.StableLen(), len(m.stable))
		}
		for i, u := range m.stable {
			if log[i] != u || s.StableAt(i) != u {
				return fail("StableLog[%d] = %+v, StableAt(%d) = %+v; the list has %+v", i, log[i], i, s.StableAt(i), u)
			}
		}
		if d, n := s.StableDigest(); d != listDigest(m.stable) || n != len(m.stable) {
			return fail("StableDigest = %s/%d; the list's is %s/%d", d, n, listDigest(m.stable), len(m.stable))
		}
		if s.Rollbacks() != m.rollbacks {
			return fail("Rollbacks = %d; lists say %d", s.Rollbacks(), m.rollbacks)
		}
		for _, txn := range window {
			stable := m.find(m.stable, txn) && !forgotten[txn]
			if s.InOverlay(txn) != m.find(m.pending, txn) || s.InStable(txn) != stable {
				return fail("%s: InOverlay %v InStable %v; lists say %v %v", txn,
					s.InOverlay(txn), s.InStable(txn), m.find(m.pending, txn), stable)
			}
		}
		if want := len(m.pending) + len(m.stable) - len(forgotten); len(s.tier) != want {
			return fail("the index holds %d transactions; lists say %d", len(s.tier), want)
		}
		for _, key := range keys {
			for _, tentative := range []bool{false, true} {
				got, gok := s.Get(key)
				if tentative {
					got, gok = s.TentativeGet(key)
				}
				if want, wok := m.get(key, tentative); got != want || gok != wok {
					return fail("read %q (tentative=%v) = %+v %v; lists say %+v %v", key, tentative, got, gok, want, wok)
				}
			}
			var writers []string
			for _, u := range m.overlay() {
				if u.Key == key {
					writers = append(writers, u.TxnID)
				}
			}
			if got := s.TentativeWriters(key); !reflect.DeepEqual(got, writers) || s.StableWriter(key) != m.stableWriter(key) {
				return fail("writers of %q: tentative %v stable %q; lists say %v %q", key, got, s.StableWriter(key), writers, m.stableWriter(key))
			}
		}
	}
	if grow && len(m.stable) <= until {
		return fmt.Errorf("seed %d: the stable prefix reached %d updates, not %d", seed, len(m.stable), until+1)
	}
	// The journal-replay path rebuilds the same prefix.
	r := NewStaged()
	for _, u := range m.stable {
		if err := r.RestoreStable(u); err != nil {
			return fmt.Errorf("seed %d: replaying %+v: %v", seed, u, err)
		}
	}
	if dr, ds := listDigest(r.StableLog()), listDigest(s.StableLog()); dr != ds {
		return fmt.Errorf("seed %d: the replayed prefix digests to %s, the live one to %s", seed, dr, ds)
	}
	return nil
}

// TestStagedMatchesPlainLists: Staged returns what two unsorted lists
// return at every step of stagedRun — results, error kinds, both tiers,
// every position of the stable prefix, its digest and every read — over
// many short runs in a small pool and a few long ones that take the stable
// prefix, by promotion and by restore, across block boundaries. Forgetting is the owner's promise that a transaction will not be
// presented again, so the generator keeps it: the lists know nothing of an
// index, only that a forgotten transaction is no longer reported stable.
func TestStagedMatchesPlainLists(t *testing.T) {
	prop := func(seed int64) bool {
		if err := stagedRun(seed, false); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		if err := stagedRun(seed, true); err != nil {
			t.Fatal(err)
		}
	}
}
