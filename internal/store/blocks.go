package store

// BlockLen is how many elements one block of a Blocks list holds. Sized on
// des-optimistic, whose histories and outcome table were the first lists
// kept this way (medians of three seeds): blocks of 16, 64, 256 and 512 read
// heap_live_mb 10.35, 10.24, 10.28 and 10.20 and cpu_ms_per_commit 0.0168,
// 0.0175, 0.0165 and 0.0166, within its run-to-run spread. So the smallest
// block that keeps a full MaxCarry run of the default 512 actions to a few
// segments wins: 64. It is also what a short committed log or outcome table
// costs, and at most what a long one leaves idle.
const BlockLen = 64

// Blocks is a list kept in fixed-capacity blocks: appending never moves
// what the list holds, so a pointer to an element or a segment of a block
// stays valid and unchanged for as long as anybody holds it, and the front
// goes block by block. The zero Blocks is empty and ready. The committed
// log, the optimistic tier's histories and both tiers' outcome tables keep
// their elements in one.
type Blocks[T any] struct {
	b    []*[BlockLen]T // all but the last full
	head int            // elements dropped from the front of b[0]
	n    int            // elements held
}

// Len returns how many elements the list holds.
func (l *Blocks[T]) Len() int { return l.n }

// At returns the i-th held element.
func (l *Blocks[T]) At(i int) *T {
	p := l.head + i
	return &l.b[p/BlockLen][p%BlockLen]
}

// Add appends a copy of *v.
func (l *Blocks[T]) Add(v *T) {
	p := l.head + l.n
	if p == len(l.b)*BlockLen {
		l.b = append(l.b, new([BlockLen]T))
	}
	l.b[p/BlockLen][p%BlockLen] = *v
	l.n++
}

// Segment returns held elements i onwards, at most room of them and none
// past the end of i's block, with the capacity cut to the length.
func (l *Blocks[T]) Segment(i, room int) []T {
	p := l.head + i
	off := p % BlockLen
	end := min(BlockLen, off+room, l.head+l.n-(p-off))
	return l.b[p/BlockLen][off:end:end]
}

// Drop lets go of the first k held elements. Segments handed out may still
// be read, so nothing is cleared: a block goes once all of it has been
// dropped, and an emptied list keeps no block. At most BlockLen-1 dropped
// elements stay reachable from the list, none once it is empty.
func (l *Blocks[T]) Drop(k int) {
	if l.n -= k; l.n == 0 {
		*l = Blocks[T]{}
		return
	}
	l.head += k
	gone := l.head / BlockLen
	clear(l.b[:gone])
	l.b, l.head = l.b[gone:], l.head%BlockLen
}

// AppendTo appends the held elements to dst in order.
func (l *Blocks[T]) AppendTo(dst []T) []T {
	for i := 0; i < l.n; {
		seg := l.Segment(i, l.n-i)
		dst = append(dst, seg...)
		i += len(seg)
	}
	return dst
}

// Footprint reports what the list keeps beside what it holds: the blocks
// it has, and the dropped elements at the front of the first that it still
// pins.
func (l *Blocks[T]) Footprint() (blocks, pinned int) { return len(l.b), l.head }
