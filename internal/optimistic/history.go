package optimistic

import (
	"sort"

	"repro/internal/store"
)

// history is what a replica keeps of one origin's actions on one shard: the
// contiguously delivered prefix, in OSeq order. Its first base actions are
// stable at every replica and have been dropped — nobody will ask for them,
// elect them or look up their constraints again, so a count is all that is
// left of them (agent.GoneSet's shape: a watermark's worth of count, plus the
// residue held one by one). acts are the rest, OSeq base+1 onwards.
type history struct {
	base uint64
	acts store.Blocks[Action]
}

// count is the delivery counter: how many of the origin's actions have been
// delivered here, dropped ones included.
func (h *history) count() uint64 { return h.base + uint64(h.acts.Len()) }

// held is how many actions the history holds: OSeq base+1 to count().
func (h *history) held() int { return h.acts.Len() }

// at returns the held action with this OSeq, nil if it was dropped or has
// not been delivered.
func (h *history) at(oseq uint64) *Action {
	if oseq <= h.base || oseq > h.count() {
		return nil
	}
	return h.acts.At(int(oseq - h.base - 1))
}

// after returns held actions that follow the first n delivered ones, at most
// room of them and no further than the end of the block the first lies in: a
// segment of the history itself, its capacity cut to its length so that
// nobody can append into the history. The rest follows from the next call,
// with n moved past the segment's last OSeq. n below base reads as base —
// whoever counts fewer is a replica, and every replica has the dropped ones.
func (h *history) after(n uint64, room int) []Action {
	i := int(max(n, h.base) - h.base)
	if i >= h.acts.Len() {
		return nil
	}
	return h.acts.Segment(i, room)
}

// upTo returns how many held actions are stamped at or below stamp. One
// origin's stamps rise with its OSeq, so they are a prefix.
func (h *history) upTo(stamp int64) int {
	return sort.Search(h.acts.Len(), func(i int) bool { return h.acts.At(i).Stamp > stamp })
}

func (h *history) add(a *Action) { h.acts.Add(a) }

// drop lets go of the first k held actions: see store.Blocks.Drop for what stays
// reachable.
func (h *history) drop(k int) {
	h.base += uint64(k)
	h.acts.Drop(k)
}
