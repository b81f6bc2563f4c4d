// Package live implements the runtime seam on real infrastructure: wall
// clock timers, one OS process per replica, and a wire-codec TCP fabric on
// which mobile agents migrate as serialized wire state.
//
// The protocol packages are written for a single-threaded execution
// context and carry no locks. The live engine keeps that contract with an
// actor loop: every protocol callback (timer fires, message deliveries,
// client submits) runs on one goroutine, one at a time, and its timers sit
// in the simulator's own event queue (runtime.Queue), fired against the
// wall clock. Concurrency lives at the edges (socket readers and writers,
// client goroutines, flush completions), which hand work in through Inject.
package live

import (
	"bytes"
	"math"
	"math/rand"
	goruntime "runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runtime"
)

var _ runtime.Engine = (*Engine)(nil)

// Engine is the live implementation of runtime.Engine. Create one per
// process with NewEngine and stop it with Close.
type Engine struct {
	start  time.Time
	rng    *rand.Rand    // guarded by the loop: only touched from loop callbacks
	timers runtime.Queue // guarded by the loop, like rng
	inbox  chan func()
	quit   chan struct{}
	once   sync.Once
	exited chan struct{} // closed when the loop has returned
	loopID atomic.Uint64 // the loop's goroutine, which Close must not wait on
}

// NewEngine starts the engine's actor loop. The seed feeds the protocol's
// random source; unlike the simulator, equal seeds do not make live runs
// identical (the wall clock and the network interleave for real).
func NewEngine(seed int64) *Engine {
	e := &Engine{
		start:  time.Now(),
		rng:    rand.New(rand.NewSource(seed)),
		inbox:  make(chan func(), 1024),
		quit:   make(chan struct{}),
		exited: make(chan struct{}),
	}
	go e.loop()
	return e
}

// loop runs injected functions and due timers until Close. One wall-clock
// timer, wake, is armed no later than the earliest deadline (armed). It is
// only Reset or Stopped, never drained: with the pre-Go 1.23 timer channels
// this module builds with, a drain after the loop took the tick blocks
// forever, while a stale tick is just a wake-up that finds nothing due.
func (e *Engine) loop() {
	defer close(e.exited)
	e.loopID.Store(goid())
	wake := time.NewTimer(time.Hour)
	defer wake.Stop()
	armed := runtime.Time(math.MaxInt64)
	for {
		if next, ok := e.timers.Next(); ok && next < armed {
			wake.Reset(next.Sub(e.Now()))
			armed = next
		}
		select {
		case fn := <-e.inbox:
			fn()
		case <-wake.C:
			// Fire what is due now, in (when, seq) order. The bound is read
			// once, so a zero-delay timer armed by a callback waits for the
			// next wake-up rather than holding the inbox off.
			armed = math.MaxInt64
			for now := e.Now(); ; {
				_, fn, ok := e.timers.Pop(now)
				if !ok {
					break
				}
				fn()
			}
		case <-e.quit:
			return
		}
	}
}

// Inject schedules fn to run on the engine's execution context. It is safe
// from any goroutine — the one way in for code off the loop — and never
// blocks forever: after Close the function is silently discarded.
func (e *Engine) Inject(fn func()) {
	select {
	case e.inbox <- fn:
	case <-e.quit:
	}
}

// Do runs fn on the engine's execution context and waits for it to finish.
// It reports false when the engine closed before fn could run.
func (e *Engine) Do(fn func()) bool {
	done := make(chan struct{})
	e.Inject(func() {
		defer close(done)
		fn()
	})
	select {
	case <-done:
		return true
	case <-e.quit:
		return false
	}
}

// Close stops the actor loop and waits for it to return, so that nothing
// runs on the loop once Close has — a killed node's last callback is not
// still writing its data dir. Called from a loop callback, it returns at
// once and the loop stops when that callback does. Idempotent.
func (e *Engine) Close() {
	e.once.Do(func() { close(e.quit) })
	if e.loopID.Load() != goid() {
		<-e.exited
	}
}

// goid returns the calling goroutine's ID, read from its stack header
// ("goroutine 42 [running]:").
func goid() uint64 {
	var buf [32]byte
	b := bytes.TrimPrefix(buf[:goruntime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:max(bytes.IndexByte(b, ' '), 0)]), 10, 64)
	return id
}

// Now returns wall-clock time since the engine started.
func (e *Engine) Now() runtime.Time { return runtime.Time(time.Since(e.start)) }

// Rand returns the engine's seeded random source. It must only be used
// from loop callbacks, which is exactly how protocol code reaches it.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// AfterFunc schedules fn on the actor loop d from now. Like Cancel and
// Active on the Timer it returns, it must be called on the loop; code on
// another goroutine uses Inject.
func (e *Engine) AfterFunc(d time.Duration, fn func()) runtime.Timer {
	return e.timers.Schedule(e.Now().Add(max(d, 0)), fn)
}

// Sleep blocks the caller for d of wall-clock time while the actor loop
// keeps running — the live counterpart of advancing virtual time.
func (e *Engine) Sleep(d time.Duration) { time.Sleep(d) }

// Wait polls done() on the actor loop until it reports true or the time
// budget elapses (runtime.ErrDeadline). A live engine never stalls: the
// wall clock always advances, so runtime.ErrStalled is returned only when
// the engine is closed underneath the wait.
func (e *Engine) Wait(d time.Duration, done func() bool) error {
	start := time.Now()
	deadline := start.Add(d)
	for {
		var ok bool
		if !e.Do(func() { ok = done() }) {
			return runtime.ErrStalled
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return runtime.ErrDeadline
		}
		// Poll finely at first and back off as the wait drags on: the
		// interval tracks 1/64 of the elapsed wait (200µs floor, 5ms
		// ceiling), so the overshoot past done() stays ~2% of the
		// workload's makespan whether it runs for milliseconds or
		// minutes. A fixed coarse tick was a measurable makespan tail
		// for sub-100ms workloads.
		iv := time.Since(start) / 64
		if iv < 200*time.Microsecond {
			iv = 200 * time.Microsecond
		} else if iv > 5*time.Millisecond {
			iv = 5 * time.Millisecond
		}
		time.Sleep(iv)
	}
}
