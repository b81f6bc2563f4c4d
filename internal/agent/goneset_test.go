package agent

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/runtime"
)

// goneWorld is the reference the GoneSet properties are checked against:
// a few homes minting IDs in spawn order, and per replica the plain set of
// agents it has been told are gone — what the explicit Updated List held.
type goneWorld struct {
	rng    *rand.Rand
	clock  int64
	seq    uint64
	minted [][]ID // per home, in spawn order (index 0 unused)
	// Per home: the era's Since and how far into minted the home's ledger
	// has advanced its watermark. A restart starts a new era and forgets
	// the ledger, as a rebuilt cluster does.
	since  []int64
	start  []int // where in minted the era began
	cursor []int
	sets   []*GoneSet    // replica i+1's summary; replica h hosts home h
	ref    []map[ID]bool // what replica i+1 has been told, explicitly
	all    []ID          // every ID ever minted
	bad    string        // first disagreement about what was news
}

func newGoneWorld(seed int64, homes int) *goneWorld {
	w := &goneWorld{rng: rand.New(rand.NewSource(seed))}
	w.minted = make([][]ID, homes+1)
	w.since = make([]int64, homes+1)
	w.start = make([]int, homes+1)
	w.cursor = make([]int, homes+1)
	for i := 0; i < homes; i++ {
		w.sets = append(w.sets, &GoneSet{})
		w.ref = append(w.ref, map[ID]bool{})
	}
	for h := range w.since {
		w.since[h] = -1
	}
	return w
}

// mint spawns the next agent of home h: Born never goes back, same-instant
// siblings share it, Seq always grows.
func (w *goneWorld) mint(h int) ID {
	w.clock += int64(w.rng.Intn(3)) // 0 keeps siblings in one instant
	w.seq++
	id := ID{Home: runtime.NodeID(h), Born: w.clock, Seq: w.seq}
	if w.since[h] < 0 {
		w.since[h] = id.Born
	}
	w.minted[h] = append(w.minted[h], id)
	w.all = append(w.all, id)
	return id
}

// restart rebuilds home h: the ledger is lost, births jump past everything
// minted so far, and the next agent starts a new era.
func (w *goneWorld) restart(h int) {
	w.clock += 10
	w.seq = 0
	w.since[h] = -1
	w.start[h] = len(w.minted[h])
	w.cursor[h] = len(w.minted[h])
}

// advance is the home cluster's ledger: raise home h's watermark over the
// longest prefix of its own dispatches that its own replica holds as gone.
func (w *goneWorld) advance(h int) {
	n := w.cursor[h]
	for n < len(w.minted[h]) && w.ref[h-1][w.minted[h][n]] {
		n++
	}
	if n == w.cursor[h] {
		return
	}
	wm := Watermark{Home: runtime.NodeID(h), Since: w.since[h], Upto: After(w.minted[h][n-1]), Count: uint64(n - w.start[h])}
	if raised, news := w.sets[h-1].Raise(wm); !raised || news {
		w.bad = fmt.Sprintf("home %d raising %+v over its own residue: raised %v, news %v", h, wm, raised, news)
	}
	w.cursor[h] = n
}

func (w *goneWorld) step() {
	homes := len(w.sets)
	switch op := w.rng.Intn(10); {
	case op < 3:
		w.mint(1 + w.rng.Intn(homes))
	case op < 6: // an agent finishes (or dies) and some replica hears of it
		if len(w.all) == 0 {
			return
		}
		id, r := w.all[w.rng.Intn(len(w.all))], w.rng.Intn(homes)
		w.sets[r].Add(id)
		w.ref[r][id] = true
	case op < 8:
		w.advance(1 + w.rng.Intn(homes))
	case op < 9: // a summary travels from one replica to another
		from, to := w.rng.Intn(homes), w.rng.Intn(homes)
		news := w.sets[to].Merge(w.sets[from].Marks(), w.sets[from].IDs())
		before := len(w.ref[to])
		for id := range w.ref[from] {
			w.ref[to][id] = true
		}
		if grew := len(w.ref[to]) > before; grew != (news > 0) {
			w.bad = fmt.Sprintf("merge %d -> %d: %d facts were news, the list grew: %v", from+1, to+1, news, grew)
		}
	default:
		if w.rng.Intn(8) == 0 {
			w.restart(1 + w.rng.Intn(homes))
		}
	}
}

// TestGoneSetMatchesExplicitList: under random interleavings of spawn,
// finish, watermark advance, merge and home restart, every replica's summary
// answers Contains exactly as the explicit list would, for every ID ever
// minted — so it never names an agent nobody reported gone (soundness) and
// never forgets one (refusal is kept) — and a merge reports news exactly when
// the explicit list would have grown, so a watermark that only summarises
// what a replica already held wakes nobody.
func TestGoneSetMatchesExplicitList(t *testing.T) {
	prop := func(seed int64) bool {
		w := newGoneWorld(seed, 3)
		for i := 0; i < 400; i++ {
			w.step()
			if w.bad != "" {
				t.Logf("seed %d step %d: %s", seed, i, w.bad)
				return false
			}
			for r, set := range w.sets {
				for _, id := range w.all {
					if set.Contains(id) != w.ref[r][id] {
						t.Logf("seed %d step %d: replica %d Contains(%v) = %v, list says %v",
							seed, i, r+1, id, set.Contains(id), w.ref[r][id])
						return false
					}
				}
				if len(set.IDs()) > len(w.ref[r]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// canon is a GoneSet's value: its watermarks and its residue as a sorted set.
func canon(g *GoneSet) ([]Watermark, []ID) {
	ids := append([]ID(nil), g.IDs()...)
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return append([]Watermark(nil), g.Marks()...), ids
}

func union(sets ...*GoneSet) *GoneSet {
	out := &GoneSet{}
	for _, s := range sets {
		out.Merge(s.Marks(), s.IDs())
	}
	return out
}

func sameSet(a, b *GoneSet) bool {
	am, ai := canon(a)
	bm, bi := canon(b)
	return reflect.DeepEqual(am, bm) && reflect.DeepEqual(ai, bi)
}

// TestGoneSetMergeIsASemilattice: merge is commutative, associative and
// idempotent, so summaries may spread in any order and any number of times.
func TestGoneSetMergeIsASemilattice(t *testing.T) {
	prop := func(seed int64) bool {
		w := newGoneWorld(seed, 3)
		for i := 0; i < 300; i++ {
			w.step()
		}
		a, b, c := w.sets[0], w.sets[1], w.sets[2]
		return sameSet(union(a, b), union(b, a)) &&
			sameSet(union(union(a, b), c), union(a, union(b, c))) &&
			sameSet(union(a, a), union(a)) &&
			sameSet(union(a, b, a, b), union(a, b))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestGoneSetResidueIsBounded: with every home advancing its watermark, the
// residue holds only agents finished out of order, however many finished.
func TestGoneSetResidueIsBounded(t *testing.T) {
	w := newGoneWorld(1, 3)
	const inFlight = 4
	var live []ID
	for i := 0; i < 5000; i++ {
		id := w.mint(1 + i%3)
		live = append(live, id)
		if len(live) > inFlight {
			k := w.rng.Intn(len(live))
			done := live[k]
			live = append(live[:k], live[k+1:]...)
			h := int(done.Home)
			w.sets[h-1].Add(done)
			w.ref[h-1][done] = true
			w.advance(h)
		}
	}
	all := union(w.sets...)
	if n := len(all.IDs()); n > 3*inFlight {
		t.Fatalf("residue holds %d IDs after 5000 finishes with %d in flight", n, inFlight)
	}
	if n := len(all.Marks()); n != 3 {
		t.Fatalf("%d watermarks for 3 homes", n)
	}
}

// TestWatermarkNeverCoversAnEarlierEra: a rebuilt home cannot account for
// what its predecessor dispatched, so its watermark starts above it — an old
// agent still alive elsewhere stays claimable however far the new era runs.
func TestWatermarkNeverCoversAnEarlierEra(t *testing.T) {
	w := newGoneWorld(2, 1)
	old := w.mint(1) // dispatched, never heard of again before the restart
	w.restart(1)
	for i := 0; i < 50; i++ {
		id := w.mint(1)
		w.sets[0].Add(id)
		w.ref[0][id] = true
		w.advance(1)
	}
	if w.sets[0].Contains(old) {
		t.Fatal("the new era's watermark covers an agent of the old one")
	}
	if n := len(w.sets[0].IDs()); n != 0 {
		t.Fatalf("residue = %d, want 0", n)
	}
	w.sets[0].Add(old) // its commit arrives after all
	if !w.sets[0].Contains(old) || len(w.sets[0].IDs()) != 1 {
		t.Fatal("late finisher of the old era not held in the residue")
	}
}
