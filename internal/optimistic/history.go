package optimistic

import "sort"

// history is what a replica keeps of one origin's actions on one shard: the
// contiguously delivered prefix, in OSeq order. Its first base actions are
// stable at every replica and have been dropped — nobody will ask for them,
// elect them or look up their constraints again, so a count is all that is
// left of them (agent.GoneSet's shape: a watermark's worth of count, plus the
// residue held one by one). acts are the rest, OSeq base+1 onwards.
type history struct {
	base uint64
	acts blocks[Action]
}

// count is the delivery counter: how many of the origin's actions have been
// delivered here, dropped ones included.
func (h *history) count() uint64 { return h.base + uint64(h.acts.n) }

// held is how many actions the history holds: OSeq base+1 to count().
func (h *history) held() int { return h.acts.n }

// at returns the held action with this OSeq, nil if it was dropped or has
// not been delivered.
func (h *history) at(oseq uint64) *Action {
	if oseq <= h.base || oseq > h.count() {
		return nil
	}
	return h.acts.at(int(oseq - h.base - 1))
}

// after returns held actions that follow the first n delivered ones, at most
// room of them and no further than the end of the block the first lies in: a
// segment of the history itself, its capacity cut to its length so that
// nobody can append into the history. The rest follows from the next call,
// with n moved past the segment's last OSeq. n below base reads as base —
// whoever counts fewer is a replica, and every replica has the dropped ones.
func (h *history) after(n uint64, room int) []Action {
	i := int(max(n, h.base) - h.base)
	if i >= h.acts.n {
		return nil
	}
	return h.acts.segment(i, room)
}

// upTo returns how many held actions are stamped at or below stamp. One
// origin's stamps rise with its OSeq, so they are a prefix.
func (h *history) upTo(stamp int64) int {
	return sort.Search(h.acts.n, func(i int) bool { return h.acts.at(i).Stamp > stamp })
}

func (h *history) add(a *Action) { h.acts.add(a) }

// drop lets go of the first k held actions: see blocks.drop for what stays
// reachable.
func (h *history) drop(k int) {
	h.base += uint64(k)
	h.acts.drop(k)
}

// blockLen is how many elements one block of a blocks list holds: a
// history with anything in flight costs 7.5 KB of 120-byte actions, and a
// full MaxCarry run of the default 512 spans at most nine blocks. Sized on
// des-optimistic (medians of three seeds): blocks of 16, 64, 256 and 512
// read heap_live_mb 10.35, 10.24, 10.28 and 10.20 — the histories are
// empty where it is read, so the outcome table moves it — and
// cpu_ms_per_commit 0.0168, 0.0175, 0.0165 and 0.0166, within its
// run-to-run spread. So the smallest block that keeps MaxCarry runs to a
// few segments wins: 64.
const blockLen = 64

// blocks is a list kept in fixed-capacity blocks: appending never moves
// what the list holds, so a pointer to an element or a segment of a block
// stays valid and unchanged for as long as anybody holds it, and the front
// goes block by block.
type blocks[T any] struct {
	b    [][]T // each of capacity blockLen; all but the last are full
	head int   // elements dropped from the front of b[0]
	n    int   // elements held
}

// at returns the i-th held element.
func (l *blocks[T]) at(i int) *T {
	p := l.head + i
	return &l.b[p/blockLen][p%blockLen]
}

func (l *blocks[T]) add(v *T) {
	if last := len(l.b) - 1; last >= 0 && len(l.b[last]) < blockLen {
		l.b[last] = append(l.b[last], *v)
	} else {
		l.b = append(l.b, append(make([]T, 0, blockLen), *v))
	}
	l.n++
}

// segment returns held elements i onwards, at most room of them and none
// past the end of i's block, with the capacity cut to the length.
func (l *blocks[T]) segment(i, room int) []T {
	p := l.head + i
	blk := l.b[p/blockLen]
	off := p % blockLen
	end := min(len(blk), off+room)
	return blk[off:end:end]
}

// drop lets go of the first k held elements. Segments handed out may still
// be read, so nothing is cleared: a block goes once all of it has been
// dropped, and an emptied list keeps no block. At most blockLen-1 dropped
// elements stay reachable from the list, none once it is empty.
func (l *blocks[T]) drop(k int) {
	if l.n -= k; l.n == 0 {
		*l = blocks[T]{}
		return
	}
	l.head += k
	gone := l.head / blockLen
	clear(l.b[:gone])
	l.b, l.head = l.b[gone:], l.head%blockLen
}

// appendTo appends the held elements to dst in order.
func (l *blocks[T]) appendTo(dst []T) []T {
	for i, blk := range l.b {
		if i == 0 {
			blk = blk[l.head:]
		}
		dst = append(dst, blk...)
	}
	return dst
}
