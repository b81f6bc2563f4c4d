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
// The event queue itself — the (when, seq) heap, its free list and the
// generation-checked Timer — is runtime.Queue, the one the live engine's
// actor loop fires too; the simulator adds virtual time, the seeded random
// source, the step count and limit, and the pace.
package des

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/runtime"
)

// Time is a virtual timestamp: nanoseconds since the simulation epoch. It
// is the engine-neutral runtime.Time — protocol code sees only that name;
// this alias keeps simulator-side call sites reading naturally.
type Time = runtime.Time

// Simulator is a deterministic discrete-event engine. It is not safe for
// concurrent use: all event handlers run on the caller's goroutine, one at a
// time, which is precisely what makes runs reproducible.
type Simulator struct {
	now     Time
	q       runtime.Queue
	rng     *rand.Rand
	steps   uint64
	maxStep uint64 // safety valve; 0 = unlimited
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

// SetMaxSteps installs a safety limit on the number of events the simulator
// may fire; 0 removes the limit. Exceeding the limit panics, which turns an
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
func (s *Simulator) At(t Time, fn func()) runtime.Timer {
	if t < s.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, s.now))
	}
	return s.q.Schedule(t, fn)
}

// After schedules fn to run d after the current virtual time. Negative
// durations are clamped to zero.
func (s *Simulator) After(d time.Duration, fn func()) runtime.Timer {
	if d < 0 {
		d = 0
	}
	return s.At(s.now.Add(d), fn)
}

// Step fires the next pending event, advancing virtual time to its
// timestamp. It reports false when no events remain.
func (s *Simulator) Step() bool { return s.stepUntil(math.MaxInt64) }

// stepUntil fires the next pending event if it is due no later than t.
func (s *Simulator) stepUntil(t Time) bool {
	when, fn, ok := s.q.Pop(t)
	if !ok {
		return false
	}
	if when < s.now {
		panic("des: event queue yielded an event from the past")
	}
	s.now = when
	s.steps++
	if s.maxStep != 0 && s.steps > s.maxStep {
		panic(fmt.Sprintf("des: exceeded max steps %d at t=%v (livelock?)", s.maxStep, s.now))
	}
	if s.pace != nil && s.steps%paceEvery == 0 {
		s.pace.wait()
	}
	fn()
	return true
}

// RunUntil fires events with timestamps not after t, then sets the clock to
// t (if it is ahead of the last event).
func (s *Simulator) RunUntil(t Time) {
	for s.stepUntil(t) {
	}
	if s.now < t {
		s.now = t
	}
}

// RunFor advances the simulation by d of virtual time.
func (s *Simulator) RunFor(d time.Duration) { s.RunUntil(s.now.Add(d)) }
