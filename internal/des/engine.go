// The simulator doubles as the deterministic implementation of the
// runtime.Engine seam: AfterFunc/Sleep/Wait/Inject are thin views over the
// existing scheduling primitives, so protocol code written against the
// seam executes identically to code that called After/RunFor directly.

package des

import (
	"time"

	"repro/internal/runtime"
)

var _ runtime.Engine = (*Simulator)(nil)

// AfterFunc is After behind the runtime.Clock interface.
func (s *Simulator) AfterFunc(d time.Duration, fn func()) runtime.Timer { return s.After(d, fn) }

// Inject runs fn as an event due now, behind everything already due now.
func (s *Simulator) Inject(fn func()) { s.After(0, fn) }

// Sleep advances the simulation by d of virtual time, firing everything
// that comes due — RunFor behind the runtime.Engine interface.
func (s *Simulator) Sleep(d time.Duration) { s.RunFor(d) }

// Wait steps the simulation until done() reports true. It fails with
// runtime.ErrDeadline once virtual time passes d from the start of the
// wait, and with runtime.ErrStalled if the event queue drains first — a
// stall means the condition can never become true, which under this engine
// is a deadlock diagnosis, not a timeout.
func (s *Simulator) Wait(d time.Duration, done func() bool) error {
	deadline := s.now.Add(d)
	for !done() {
		if s.now > deadline {
			return runtime.ErrDeadline
		}
		if !s.Step() {
			return runtime.ErrStalled
		}
	}
	return nil
}
