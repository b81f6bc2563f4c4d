// Package des implements a deterministic discrete-event simulator.
//
// The simulator maintains a virtual clock and a priority queue of timed
// events. Events scheduled for the same virtual instant fire in the order
// they were scheduled (FIFO within a timestamp), which makes every run with
// the same seed and the same schedule byte-for-byte reproducible. All of the
// simulated substrates in this repository — the network, the agent platform,
// the replicated servers — are driven by a single Simulator, so an entire
// distributed execution is a deterministic, single-threaded function of its
// inputs.
//
// Virtual time is expressed as a Time (nanoseconds since the start of the
// simulation). Durations use the standard time.Duration so call sites read
// naturally (sim.After(3*time.Millisecond, fn)). No wall-clock time is ever
// consulted, except by a simulator that SetPace was called on, and there it
// decides only how long a run takes, never what happens in it.
//
// # Allocation behaviour
//
// Scheduling is the hottest path in the whole reproduction: every simulated
// message delivery, timer, and migration is one event. The simulator
// therefore recycles Event structs through a per-simulator free list (safe
// because a Simulator is single-goroutine by construction) and keeps the
// priority queue as a concrete-typed binary heap, avoiding the interface
// boxing that container/heap forces on every Push/Pop. In steady state a
// schedule/fire cycle allocates nothing.
//
// Because Event structs are recycled, the handle returned by At/After is a
// Timer: a small value carrying the event pointer plus the generation at
// which it was scheduled. A Timer held after its event fired or was
// cancelled is stale — its generation no longer matches — so Cancel and
// Active on it are guaranteed no-ops even if the underlying struct has been
// reused for a later event.
package des

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/runtime"
)

// Time is a virtual timestamp: nanoseconds since the simulation epoch. It
// is the engine-neutral runtime.Time — protocol code sees only that name;
// this alias keeps simulator-side call sites reading naturally.
type Time = runtime.Time

// Event is the simulator-owned record of one scheduled callback. Events are
// pooled and recycled; user code never holds an Event directly, only a
// generation-checked Timer.
type Event struct {
	when  Time
	seq   uint64 // tie-break: FIFO among equal timestamps
	fn    func()
	index int    // heap index; -1 when not queued
	gen   uint64 // bumped every time the event leaves the queue
	sim   *Simulator
}

// Timer is a handle to a scheduled event, returned by At and After. The zero
// Timer is valid and inert. Timers are values: copy them freely.
type Timer struct {
	e   *Event
	gen uint64
}

// Active reports whether the event is still pending (not fired, not
// cancelled).
func (t Timer) Active() bool { return t.e != nil && t.e.gen == t.gen }

// When reports the virtual time at which the pending event fires; it
// returns 0 once the event has fired or been cancelled.
func (t Timer) When() Time {
	if !t.Active() {
		return 0
	}
	return t.e.when
}

// Cancel prevents the event from firing and removes it from the queue
// immediately. Cancelling an event that already fired or was already
// cancelled is a no-op (the generation check makes this safe even though
// the underlying Event struct may since have been recycled). Cancel reports
// whether the event was still pending.
func (t Timer) Cancel() bool {
	e := t.e
	if e == nil || e.gen != t.gen {
		return false
	}
	s := e.sim
	s.remove(e)
	s.release(e)
	return true
}

// Simulator is a deterministic discrete-event engine. It is not safe for
// concurrent use: all event handlers run on the caller's goroutine, one at a
// time, which is precisely what makes runs reproducible.
type Simulator struct {
	now     Time
	events  []*Event // binary min-heap ordered by (when, seq)
	free    []*Event // recycled Event structs
	seq     uint64
	rng     *rand.Rand
	steps   uint64
	maxStep uint64 // safety valve; 0 = unlimited
	stopped bool
	pace    *pacer // nil = as fast as the host runs
}

// New returns a simulator whose random source is seeded with seed. Two
// simulators created with the same seed and fed the same schedule produce
// identical executions.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand returns the simulator's seeded random source. All randomness in a
// simulation must come from this source to preserve determinism.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Steps reports how many events have fired so far.
func (s *Simulator) Steps() uint64 { return s.steps }

// SetMaxSteps installs a safety limit on the number of events a Run may
// process; 0 removes the limit. Exceeding the limit panics, which turns an
// accidental livelock in protocol code into a loud test failure instead of a
// hung test binary.
func (s *Simulator) SetMaxSteps(n uint64) { s.maxStep = n }

// paceEvery is how many events fire between two looks at the wall clock of
// a paced simulator.
const paceEvery = 128

// pacer is a token bucket on the wall clock: one event per gap, burst of
// them saved up.
type pacer struct {
	chunk time.Duration // wall time paceEvery events are allowed
	burst time.Duration // how far behind its schedule a simulator may fall and still catch up
	due   time.Time     // when the schedule allows the events fired so far
}

// SetPace holds the simulator to rate events per wall-clock second, after
// burst events at the host's speed. Virtual time, event order and every
// result are untouched: a paced run sleeps, it does not skip. Pacing makes
// the wall time of a run a function of its event count, where an unpaced
// run's follows the host's load.
func (s *Simulator) SetPace(rate float64, burst int) {
	gap := time.Duration(float64(time.Second) / rate)
	p := &pacer{chunk: paceEvery * gap, burst: time.Duration(burst) * gap}
	p.due = time.Now().Add(-p.burst)
	s.pace = p
}

// wait charges paceEvery events to the schedule and sleeps off whatever the
// simulator is ahead of it. The schedule is absolute, so a late wake-up is
// made good by the next chunks; time spent behind it beyond the burst
// (an idle simulator, a slow host) is forgotten.
func (p *pacer) wait() {
	p.due = p.due.Add(p.chunk)
	now := time.Now()
	switch ahead := p.due.Sub(now); {
	case ahead > 50*time.Microsecond:
		time.Sleep(ahead)
	case -ahead > p.burst:
		p.due = now.Add(-p.burst)
	}
}

// At schedules fn to run at virtual time t. Scheduling in the past (t before
// Now) panics: a simulated component can never affect its own past.
func (s *Simulator) At(t Time, fn func()) Timer {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("des: nil event function")
	}
	e := s.alloc(t, fn)
	s.push(e)
	return Timer{e: e, gen: e.gen}
}

// After schedules fn to run d after the current virtual time. Negative
// durations are clamped to zero.
func (s *Simulator) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// Pending reports the number of live events waiting in the queue. Cancelled
// events are removed from the queue immediately, so this count is exact —
// drain checks can rely on it.
func (s *Simulator) Pending() int { return len(s.events) }

// Step fires the next pending event, advancing virtual time to its
// timestamp. It reports false when no events remain.
func (s *Simulator) Step() bool {
	if len(s.events) == 0 {
		return false
	}
	e := s.popMin()
	if e.when < s.now {
		panic("des: event queue yielded an event from the past")
	}
	s.now = e.when
	s.steps++
	if s.maxStep != 0 && s.steps > s.maxStep {
		panic(fmt.Sprintf("des: exceeded max steps %d at t=%v (livelock?)", s.maxStep, s.now))
	}
	if s.pace != nil && s.steps%paceEvery == 0 {
		s.pace.wait()
	}
	fn := e.fn
	// Release before running fn: the generation bump makes any Timer for
	// this event stale (so a self-cancel inside fn is a no-op, matching
	// the fired-event semantics), and fn may immediately recycle the
	// struct for the events it schedules.
	s.release(e)
	fn()
	return true
}

// Run fires events until the queue drains or Stop is called.
func (s *Simulator) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil fires events with timestamps not after t, then sets the clock to
// t (if it is ahead of the last event). It stops early if Stop is called.
func (s *Simulator) RunUntil(t Time) {
	s.stopped = false
	for !s.stopped {
		if len(s.events) == 0 || s.events[0].when > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor advances the simulation by d of virtual time.
func (s *Simulator) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }

// Stop makes the innermost Run/RunUntil return after the current event
// handler completes. It may be called from inside an event handler.
func (s *Simulator) Stop() { s.stopped = true }

// NextEvent returns the timestamp of the next pending event, if any — used
// by real-time drivers to sleep precisely.
func (s *Simulator) NextEvent() (Time, bool) {
	if len(s.events) == 0 {
		return 0, false
	}
	return s.events[0].when, true
}

// alloc takes an Event from the free list (or allocates one) and stamps it
// with a fresh sequence number.
func (s *Simulator) alloc(t Time, fn func()) *Event {
	var e *Event
	if n := len(s.free); n > 0 {
		e = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		e = &Event{sim: s}
	}
	e.when, e.seq, e.fn = t, s.seq, fn
	s.seq++
	return e
}

// release invalidates all outstanding Timers for e and returns it to the
// free list. e must already be out of the queue.
func (s *Simulator) release(e *Event) {
	e.gen++
	e.fn = nil // drop the closure so it can be collected
	s.free = append(s.free, e)
}

// Heap operations on the concrete []*Event slice. Hand-rolled (rather than
// container/heap) so Push/Pop do not box every event into an interface
// value — this is the simulation's innermost loop.

func (s *Simulator) less(i, j int) bool {
	a, b := s.events[i], s.events[j]
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

func (s *Simulator) swap(i, j int) {
	h := s.events
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (s *Simulator) push(e *Event) {
	e.index = len(s.events)
	s.events = append(s.events, e)
	s.siftUp(e.index)
}

func (s *Simulator) popMin() *Event {
	h := s.events
	e := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[0].index = 0
	h[last] = nil
	s.events = h[:last]
	if last > 1 {
		s.siftDown(0)
	}
	e.index = -1
	return e
}

// remove deletes a queued event from anywhere in the heap in O(log n).
func (s *Simulator) remove(e *Event) {
	i := e.index
	h := s.events
	last := len(h) - 1
	if i != last {
		h[i] = h[last]
		h[i].index = i
	}
	h[last] = nil
	s.events = h[:last]
	if i != last {
		if !s.siftDown(i) {
			s.siftUp(i)
		}
	}
	e.index = -1
}

func (s *Simulator) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !s.less(i, parent) {
			break
		}
		s.swap(i, parent)
		i = parent
	}
}

// siftDown restores the heap below i and reports whether anything moved.
func (s *Simulator) siftDown(i int) bool {
	moved := false
	n := len(s.events)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s.less(r, l) {
			m = r
		}
		if !s.less(m, i) {
			break
		}
		s.swap(m, i)
		i = m
		moved = true
	}
	return moved
}
