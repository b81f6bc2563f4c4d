package agent

import (
	"sort"

	"repro/internal/runtime"
	"repro/internal/wire"
)

// Mark is a position in one home's spawn order. Spawn mints the IDs of a
// home with non-decreasing Born and strictly increasing Seq, so among the
// agents one platform created for one home the ID order (Less) is the order
// of creation, and "every agent of home h before mark m" names a prefix of
// it. A platform that restarts resets Seq but lands Born above everything
// its predecessor minted (AdvanceBirth), which keeps the order across
// incarnations.
type Mark struct {
	Born int64
	Seq  uint64
}

// Before reports whether m is an earlier position than o.
func (m Mark) Before(o Mark) bool {
	if m.Born != o.Born {
		return m.Born < o.Born
	}
	return m.Seq < o.Seq
}

// After returns the position just past id in its home's spawn order.
func After(id ID) Mark { return Mark{Born: id.Born, Seq: id.Seq + 1} }

// Watermark states that every agent of Home born at or after Since and
// positioned before Upto has finished or died. Since is the start of an era:
// the Born of the first agent one incarnation of the home's cluster
// dispatched. Only that incarnation knows which IDs it minted, so only it
// raises Upto, and it never raises it over an ID it did not mint itself —
// agents of an earlier incarnation lie below Since and stay outside. Count is
// how many agents that is: a receiver cannot enumerate the IDs a watermark
// covers, but by counting the residue entries it replaces it can tell a
// summary of what it already held from news.
type Watermark struct {
	Home  runtime.NodeID
	Since int64
	Upto  Mark
	Count uint64
}

// Covers reports whether the watermark says id is gone.
func (w Watermark) Covers(id ID) bool {
	return id.Home == w.Home && id.Born >= w.Since && Mark{id.Born, id.Seq}.Before(w.Upto)
}

// GoneSet is the bounded summary of the agents known to have finished or
// died — the paper's Updated List at a server and Updated Agents List in an
// agent. It holds one watermark per home and era plus a residue of
// individual IDs no watermark covers yet, so its size follows the number of
// homes and of agents in flight, not the number of agents that ever
// finished. Merging two sets takes the higher Upto per (home, era) and the
// union of the residues less what the watermarks then cover; the merge is
// commutative, associative and idempotent, which is what lets the set
// spread epidemically in any order. The zero value is an empty set.
//
// Export hands out the set's own arrays, so a visit or a sync reply costs no
// copy; the set copies them on its next write instead (copy on write).
type GoneSet struct {
	marks  []Watermark // ascending (Home, Since)
	ids    []ID        // residue, ascending by Less
	shared bool        // Export handed marks and ids out: copy before writing
}

// own makes the set's arrays its own again before a write, if Export handed
// them out.
func (g *GoneSet) own() {
	if g.shared {
		g.marks = append(make([]Watermark, 0, len(g.marks)+1), g.marks...)
		g.ids = append(make([]ID, 0, len(g.ids)+1), g.ids...)
		g.shared = false
	}
}

// Contains reports whether id is known to be gone.
func (g *GoneSet) Contains(id ID) bool {
	for i := range g.marks {
		if g.marks[i].Home > id.Home {
			break
		}
		if g.marks[i].Covers(id) {
			return true
		}
	}
	i := g.search(id)
	return i < len(g.ids) && g.ids[i] == id
}

// search returns where id is, or belongs, in the residue.
func (g *GoneSet) search(id ID) int {
	return sort.Search(len(g.ids), func(i int) bool { return !g.ids[i].Less(id) })
}

// Add records one gone agent and reports whether that was news.
func (g *GoneSet) Add(id ID) bool {
	if g.Contains(id) {
		return false
	}
	g.own()
	i := g.search(id)
	g.ids = append(g.ids, ID{})
	copy(g.ids[i+1:], g.ids[i:])
	g.ids[i] = id
	return true
}

// Raise folds one watermark in and drops the residue entries it covers. It
// reports whether the set's watermark for that home and era moved, and
// whether that was news: whether the watermark covers an agent the set did
// not contain before, which is so when it covers more agents than the
// watermark and the residue entries it replaces did.
func (g *GoneSet) Raise(w Watermark) (raised, news bool) {
	if !(Mark{Born: w.Since}).Before(w.Upto) {
		return false, false // covers nothing
	}
	i := sort.Search(len(g.marks), func(i int) bool {
		m := &g.marks[i]
		return m.Home > w.Home || (m.Home == w.Home && m.Since >= w.Since)
	})
	held := uint64(0)
	if i < len(g.marks) && g.marks[i].Home == w.Home && g.marks[i].Since == w.Since {
		if !g.marks[i].Upto.Before(w.Upto) {
			return false, false
		}
		g.own()
		held = g.marks[i].Count
		g.marks[i] = w
	} else {
		g.own()
		g.marks = append(g.marks, Watermark{})
		copy(g.marks[i+1:], g.marks[i:])
		g.marks[i] = w
	}
	kept := g.ids[:0]
	for _, id := range g.ids {
		if !w.Covers(id) {
			kept = append(kept, id)
		}
	}
	held += uint64(len(g.ids) - len(kept))
	g.ids = kept
	return true, w.Count > held
}

// Merge folds another set in, given in its exchanged form, and returns how
// many of its facts were news.
func (g *GoneSet) Merge(marks []Watermark, ids []ID) int {
	n := 0
	for _, w := range marks {
		if _, news := g.Raise(w); news {
			n++
		}
	}
	for _, id := range ids {
		if g.Add(id) {
			n++
		}
	}
	return n
}

// Marks returns the watermarks, ascending by (Home, Since). The slice
// aliases the set: callers that keep it past the set's next mutation copy.
func (g *GoneSet) Marks() []Watermark {
	if g == nil {
		return nil
	}
	return g.marks
}

// IDs returns the residue in ascending ID order, aliased like Marks.
func (g *GoneSet) IDs() []ID {
	if g == nil {
		return nil
	}
	return g.ids
}

// Export returns the set in its exchanged form, for messages and snapshots
// that outlive the set's next mutation. The slices are the set's own; the
// set copies them before it next writes, so they never change, and holders
// must not write to them either.
func (g *GoneSet) Export() ([]Watermark, []ID) {
	g.shared = true
	return g.marks[:len(g.marks):len(g.marks)], g.ids[:len(g.ids):len(g.ids)]
}

// GoneWireSize is the modelled size in bytes of a gone set in its exchanged
// form: what DES byte accounting charges a message that carries one.
func GoneWireSize(marks []Watermark, ids []ID) int { return 40*len(marks) + 24*len(ids) }

// AppendWatermarks appends a count-prefixed watermark list in wire-codec
// form, the companion of AppendID for every message that carries a gone set.
func AppendWatermarks(b []byte, marks []Watermark) []byte {
	b = wire.AppendUvarint(b, uint64(len(marks)))
	for i := range marks {
		b = AppendWatermark(b, &marks[i])
	}
	return b
}

// AppendWatermark appends one watermark in wire-codec form (at least 5
// bytes): an element of AppendWatermarks' list, and the journal's record of
// a raised watermark.
func AppendWatermark(b []byte, w *Watermark) []byte {
	b = wire.AppendVarint(b, int64(w.Home))
	b = wire.AppendVarint(b, w.Since)
	b = wire.AppendVarint(b, w.Upto.Born)
	b = wire.AppendUvarint(b, w.Upto.Seq)
	return wire.AppendUvarint(b, w.Count)
}

// DecodeWatermarksInto reads a list written by AppendWatermarks into dst,
// reusing its capacity.
func DecodeWatermarksInto(dst []Watermark, r *wire.Reader) []Watermark {
	n := r.Count(5)
	dst = wire.Grow(dst, n)
	for i := range dst {
		dst[i] = DecodeWatermark(r)
	}
	return dst
}

// DecodeWatermark reads a watermark written by AppendWatermark.
func DecodeWatermark(r *wire.Reader) Watermark {
	return Watermark{
		Home:  runtime.NodeID(r.Varint()),
		Since: r.Varint(),
		Upto:  Mark{Born: r.Varint(), Seq: r.Uvarint()},
		Count: r.Uvarint(),
	}
}
