// Package runtime defines the seam between the MARP protocol layers and
// the engine that executes them. The protocol packages (internal/agent,
// internal/replica, internal/core, internal/reliable) depend only on the
// small interfaces here — a clock with cancellable timers, a seeded random
// source, and a message fabric between nodes — never on a concrete engine.
//
// Two engines implement the seam:
//
//   - the deterministic discrete-event simulator (internal/des as the
//     Engine, internal/simnet as the Fabric), where an entire multi-node
//     execution is a single-threaded, byte-for-byte reproducible function
//     of its seed — the test oracle;
//   - the live engine (internal/runtime/live), where each replica is its
//     own OS process with wall-clock timers and a wire-codec TCP fabric, and
//     mobile agents migrate across real sockets.
//
// The invariant this package exists to protect: engine choice is invisible
// to protocol code. The same agent and server logic that is model-checked
// under simulation is what runs in production.
package runtime

import (
	"errors"
	"math/rand"
	"time"
)

// NodeID identifies a host. The paper numbers its replicated servers 1..N;
// this package follows that convention (zero is reserved as "no node").
type NodeID int

// None is the zero NodeID, meaning "no node".
const None NodeID = 0

// Time is a virtual timestamp: nanoseconds since the engine's epoch. Under
// the simulation engine the epoch is the start of the simulation and time
// advances only when events fire; under the live engine it is process start
// and time tracks the wall clock.
type Time int64

// Duration converts a timestamp to the duration since the epoch.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns the timestamp d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between two timestamps.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// String formats the timestamp as a duration since the epoch.
func (t Time) String() string { return time.Duration(t).String() }

// Message is a single datagram on the fabric. Payload is an arbitrary
// protocol-level value; Size is the modelled wire size in bytes and exists
// for traffic accounting (a serializing fabric reports real sizes).
type Message struct {
	From    NodeID
	To      NodeID
	Payload any
	Size    int
}

// Kinder is implemented by payloads that want per-kind traffic accounting.
type Kinder interface{ Kind() string }

// Handler receives messages delivered to a node.
type Handler interface {
	Deliver(msg Message)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(Message)

// Deliver calls f(msg).
func (f HandlerFunc) Deliver(msg Message) { f(msg) }

// NetStats aggregates fabric traffic counters. Losses and duplicates
// injected by a fault model are counted separately from drops, so an
// experiment can tell "the link ate it" apart from "the destination was
// down or partitioned".
type NetStats struct {
	MessagesSent       int
	MessagesDelivered  int
	MessagesDropped    int // destination down, partitioned, or detached
	MessagesLost       int // eaten by the fault model on a live, connected link
	MessagesDuplicated int // delivered twice by the fault model
	QueueDrops         int // live fabric only: a full per-peer writer queue ate it
	BytesSent          int
	ByKind             map[string]int // messages sent, per Kinder kind
	BytesByKind        map[string]int // modelled bytes sent, per Kinder kind
}

// CountSent charges one sent message to the counters: the totals, and its
// kind's share when the payload names one.
func (s *NetStats) CountSent(msg Message) {
	s.MessagesSent++
	s.BytesSent += msg.Size
	k, ok := msg.Payload.(Kinder)
	if !ok {
		return
	}
	if s.ByKind == nil {
		s.ByKind = make(map[string]int)
		s.BytesByKind = make(map[string]int)
	}
	s.ByKind[k.Kind()]++
	s.BytesByKind[k.Kind()] += msg.Size
}

// Clone returns a copy that shares no map with s.
func (s NetStats) Clone() NetStats {
	s.ByKind = cloneCounts(s.ByKind)
	s.BytesByKind = cloneCounts(s.BytesByKind)
	return s
}

func cloneCounts(m map[string]int) map[string]int {
	if m == nil {
		return nil
	}
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Fabric is the message-passing surface the protocol layers run on: the
// simulated network, the reliability shim wrapping it, or the live TCP
// fabric. Send is fire-and-forget with fail-stop semantics: a message to an
// unreachable node is silently dropped and the sender finds out by timeout,
// exactly as the paper's system model prescribes (§2).
type Fabric interface {
	Attach(id NodeID, h Handler)
	Send(msg Message)
	Cost(from, to NodeID) float64
	Down(id NodeID) bool
}

// TimerHandle is the engine-specific state behind a Timer. Both methods
// must be safe to call after the timer fired.
type TimerHandle interface {
	// Active reports whether the timer is still pending.
	Active() bool
	// Cancel stops the timer, reporting whether it was still pending.
	Cancel() bool
}

// Timer is a cancellable handle to a scheduled callback. The zero Timer is
// valid and inert — Active is false, Cancel is a no-op — matching the
// semantics protocol code relied on under the simulator.
type Timer struct{ h TimerHandle }

// MakeTimer wraps an engine's timer state in the portable handle.
func MakeTimer(h TimerHandle) Timer { return Timer{h: h} }

// Active reports whether the timer is still pending.
func (t Timer) Active() bool { return t.h != nil && t.h.Active() }

// Cancel stops the timer, reporting whether it was still pending.
func (t Timer) Cancel() bool {
	if t.h == nil {
		return false
	}
	return t.h.Cancel()
}

// Clock tells time and schedules callbacks.
type Clock interface {
	// Now returns the current time.
	Now() Time
	// AfterFunc schedules fn to run d from now. Negative durations are
	// clamped to zero. The callback runs on the engine's execution context
	// (the simulation loop, or the live engine's actor goroutine) — never
	// concurrently with other protocol code.
	AfterFunc(d time.Duration, fn func()) Timer
}

// Errors distinguishing why a Wait gave up. Engines return these wrapped or
// bare; callers test with errors.Is.
var (
	// ErrDeadline reports that the wait's time budget elapsed first.
	ErrDeadline = errors.New("runtime: wait deadline exceeded")
	// ErrStalled reports that the engine ran out of work with the
	// condition still false (only the simulation engine can stall; live
	// time always advances).
	ErrStalled = errors.New("runtime: engine stalled")
)

// Engine is everything the protocol needs from its execution substrate.
type Engine interface {
	Clock
	// Rand returns the engine's seeded random source. All randomness in
	// protocol code must come from here: under simulation that preserves
	// determinism, and the source is only ever touched from the engine's
	// execution context.
	Rand() *rand.Rand
	// Sleep advances time by d, running everything that comes due. Under
	// simulation this is virtual and instant; live it blocks the caller.
	Sleep(d time.Duration)
	// Wait runs the engine until done() reports true, the time budget d
	// elapses (ErrDeadline), or the engine has no work left (ErrStalled).
	// done is polled from the engine's execution context.
	Wait(d time.Duration, done func() bool) error
}

// Capability interfaces: fault-injection surfaces an engine's fabric MAY
// support. Protocol code asserts for them and degrades to a no-op when the
// fabric does not cooperate — the live TCP fabric, for instance, has no
// loss dial, though it does partition (by filtering at the endpoints).

// StatsSource is a fabric that keeps traffic counters.
type StatsSource interface {
	NetStats() NetStats
}

// Crasher is a fabric that can fail-stop a node's connectivity.
type Crasher interface {
	SetDown(id NodeID, down bool)
}

// Partitioner is a fabric that can split nodes into disconnected groups.
type Partitioner interface {
	Partition(groups ...[]NodeID)
	Heal()
}

// ReachabilitySource is a fabric that can report whether it would
// currently attempt delivery from one node to another — the state the
// /healthz quorum computation reads. The answer reflects only what the
// fabric itself knows: the simulated network knows crashes and partitions;
// the live TCP fabric knows the partitions it was told about (remote
// liveness is unobservable there, exactly as for the protocol).
type ReachabilitySource interface {
	Reachable(from, to NodeID) bool
}

// LossController is a fabric whose transient message-loss level can be set
// at run time (zero restores clean links).
type LossController interface {
	SetExtraLoss(p float64)
}

// WireFabric is a fabric that physically serializes payloads — processes at
// each end do not share memory. Over such a fabric the agent platform must
// migrate agents as encoded WireState rather than live pointers.
type WireFabric interface {
	WireDelivery() bool
}
