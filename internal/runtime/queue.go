package runtime

// The event queue both engines schedule through. The simulator fires it in
// virtual time; the live engine's actor loop fires it against the wall
// clock. One queue means one set of timer semantics: a Timer cancelled on
// the execution context before its callback ran never runs, on either
// engine.
//
// Scheduling is the hottest path of a simulation: every simulated message
// delivery, timer and migration is one event. The queue therefore recycles
// its event records through a free list and keeps the priority queue as a
// concrete-typed binary heap, avoiding the interface boxing that
// container/heap forces on every push and pop. In steady state a
// schedule/fire or schedule/cancel cycle allocates nothing.
//
// Because records are recycled, the handle Schedule returns is a Timer: the
// record's pointer plus the generation at which it was scheduled. A Timer
// held after its event fired or was cancelled is stale — its generation no
// longer matches — so Cancel and Active on it are no-ops even if the record
// has been reused for a later event.

// event is the queue-owned record of one scheduled callback.
type event struct {
	when  Time
	seq   uint64 // tie-break: FIFO among equal timestamps
	fn    func()
	index int    // heap index; -1 when not queued
	gen   uint64 // bumped every time the event leaves the queue
	q     *Queue
}

// Timer is a handle to a scheduled callback. The zero Timer is valid and
// inert: Active is false and Cancel is a no-op. Timers are values; copy
// them freely. Active and Cancel run on the execution context of the engine
// that scheduled the timer.
type Timer struct {
	e   *event
	gen uint64
}

// Active reports whether the callback is still pending (not fired, not
// cancelled).
func (t Timer) Active() bool { return t.e != nil && t.e.gen == t.gen }

// Cancel prevents the callback from running and removes it from its queue
// at once, reporting whether it was still pending. Cancelling a timer that
// already fired or was already cancelled is a no-op — the generation check
// makes this safe even though the record may since have been recycled.
func (t Timer) Cancel() bool {
	e := t.e
	if e == nil || e.gen != t.gen {
		return false
	}
	q := e.q
	q.remove(e)
	q.release(e)
	return true
}

// Queue is a timed event queue, fired in (when, seq) order: events due at
// the same instant fire in the order they were scheduled. The zero Queue is
// empty and ready. A Queue belongs to one execution context and is not safe
// for concurrent use.
type Queue struct {
	events []*event // binary min-heap ordered by (when, seq)
	free   []*event // recycled records
	seq    uint64
}

// Schedule queues fn to run at t and returns its handle.
func (q *Queue) Schedule(t Time, fn func()) Timer {
	if fn == nil {
		panic("runtime: nil event function")
	}
	var e *event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
	} else {
		e = &event{q: q}
	}
	e.when, e.seq, e.fn = t, q.seq, fn
	q.seq++
	e.index = len(q.events)
	q.events = append(q.events, e)
	q.siftUp(e.index)
	return Timer{e: e, gen: e.gen}
}

// Next reports when the earliest pending event is due; ok is false when
// nothing is pending.
func (q *Queue) Next() (when Time, ok bool) {
	if len(q.events) == 0 {
		return 0, false
	}
	return q.events[0].when, true
}

// Pop takes the earliest pending event off the queue if it is due no later
// than until, and returns its time and callback. The event's Timers are
// stale before the caller runs fn: a self-cancel inside fn is a no-op, and
// fn may recycle the record for the events it schedules.
func (q *Queue) Pop(until Time) (when Time, fn func(), ok bool) {
	h := q.events
	if len(h) == 0 || h[0].when > until {
		return 0, nil, false
	}
	e := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[0].index = 0
	h[last] = nil
	q.events = h[:last]
	if last > 1 {
		q.siftDown(0)
	}
	e.index = -1
	when, fn = e.when, e.fn
	q.release(e)
	return when, fn, true
}

// release invalidates all outstanding Timers for e and returns it to the
// free list. e must already be out of the heap.
func (q *Queue) release(e *event) {
	e.gen++
	e.fn = nil // drop the closure so it can be collected
	q.free = append(q.free, e)
}

// remove deletes a queued event from anywhere in the heap in O(log n).
func (q *Queue) remove(e *event) {
	i := e.index
	h := q.events
	last := len(h) - 1
	if i != last {
		h[i] = h[last]
		h[i].index = i
	}
	h[last] = nil
	q.events = h[:last]
	if i != last {
		if !q.siftDown(i) {
			q.siftUp(i)
		}
	}
	e.index = -1
}

// Heap operations on the concrete []*event slice, hand-rolled rather than
// container/heap so a push or pop boxes nothing.

func (q *Queue) less(i, j int) bool {
	a, b := q.events[i], q.events[j]
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (q *Queue) swap(i, j int) {
	h := q.events
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (q *Queue) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

// siftDown restores the heap below i and reports whether anything moved.
func (q *Queue) siftDown(i int) bool {
	moved := false
	n := len(q.events)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.less(r, l) {
			m = r
		}
		if !q.less(m, i) {
			break
		}
		q.swap(m, i)
		i = m
		moved = true
	}
	return moved
}
