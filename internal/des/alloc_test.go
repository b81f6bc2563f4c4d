package des

import (
	"testing"
	"time"

	"repro/internal/runtime"
)

// TestFreeListRecyclesOnFire: once the pool is warm, a schedule/fire cycle
// allocates no events — the struct the last fire released is the one the
// next After hands out.
func TestFreeListRecyclesOnFire(t *testing.T) {
	s := New(1)
	s.After(time.Microsecond, func() {})
	s.Step() // warm the free list
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(time.Microsecond, func() {})
		if !s.Step() {
			t.Fatal("no event to fire")
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state schedule/fire allocates %.1f objects/op, want 0", allocs)
	}
}

// TestFreeListRecyclesOnCancel: cancelling returns the event to the free
// list immediately, so schedule/cancel cycles are also allocation-free.
func TestFreeListRecyclesOnCancel(t *testing.T) {
	s := New(1)
	s.After(time.Second, func() {}).Cancel() // warm the free list
	allocs := testing.AllocsPerRun(1000, func() {
		tm := s.After(time.Second, func() {})
		if !tm.Cancel() {
			t.Fatal("Cancel reported not pending")
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state schedule/cancel allocates %.1f objects/op, want 0", allocs)
	}
}

// TestStaleTimerIsInert: a Timer held across its event's recycling must not
// touch the event's new occupant — the generation check makes stale Cancels
// provable no-ops.
func TestStaleTimerIsInert(t *testing.T) {
	s := New(1)
	stale := s.After(time.Millisecond, func() {})
	if !stale.Cancel() {
		t.Fatal("first Cancel should succeed")
	}
	// This schedule reuses the struct stale points at.
	fired := false
	fresh := s.After(time.Millisecond, func() { fired = true })
	if stale.Active() {
		t.Fatal("stale handle reports Active")
	}
	if stale.Cancel() {
		t.Fatal("stale Cancel should be a no-op")
	}
	if !fresh.Active() {
		t.Fatal("fresh event lost")
	}
	for s.Step() {
	}
	if !fired {
		t.Fatal("stale handle cancelled the recycled event")
	}
}

// TestSelfCancelDuringFire: cancelling the event that is currently firing
// (a timeout handler tidying up its own timer) is a no-op, not a
// double-free.
func TestSelfCancelDuringFire(t *testing.T) {
	s := New(1)
	var tm runtime.Timer
	tm = s.After(time.Millisecond, func() {
		if tm.Cancel() {
			t.Error("self-cancel during fire should report false")
		}
	})
	for s.Step() {
	}
	// The struct must be recyclable exactly once: schedule two events and
	// make sure both fire.
	count := 0
	s.After(time.Millisecond, func() { count++ })
	s.After(2*time.Millisecond, func() { count++ })
	for s.Step() {
	}
	if count != 2 {
		t.Fatalf("fired %d events after self-cancel, want 2", count)
	}
}

// BenchmarkSchedule measures a push/remove pair into a queue that stays
// 1024 events deep — the pure queue-maintenance cost with no firing.
func BenchmarkSchedule(b *testing.B) {
	s := New(1)
	for j := 0; j < 1024; j++ {
		s.After(time.Duration(j+1)*time.Millisecond, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(500*time.Microsecond, func() {}).Cancel()
	}
}

// BenchmarkStep measures a schedule/fire cycle at a realistic queue depth
// (1024 in-flight events, the order of a loaded 7-server run).
func BenchmarkStep(b *testing.B) {
	s := New(1)
	for j := 0; j < 1024; j++ {
		s.After(time.Duration(j+1)*time.Millisecond, func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, func() {})
		s.Step()
	}
}

// BenchmarkCancel measures schedule-then-cancel of the queue head (the
// reap-on-cancel fast path).
func BenchmarkCancel(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Millisecond, func() {}).Cancel()
	}
}
