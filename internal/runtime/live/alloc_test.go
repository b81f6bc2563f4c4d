//go:build !race

package live_test

import (
	"testing"
	"time"
)

// TestScheduleAndCancelAllocateNothing: arming a timer and cancelling it on
// the execution context, with the callback built once and the queue's free
// list warm, allocates nothing on either engine — no per-timer goroutine,
// closure or handle box. (The race detector's instrumentation allocates,
// so this gate builds without it.)
func TestScheduleAndCancelAllocateNothing(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			eng, _ := e.new(t)
			fn := func() {}
			allocs := observe(t, eng, func() float64 {
				eng.AfterFunc(time.Second, fn).Cancel() // warm the free list
				return testing.AllocsPerRun(1000, func() {
					if !eng.AfterFunc(time.Second, fn).Cancel() {
						t.Error("Cancel of a pending timer reported false")
					}
				})
			})
			if allocs != 0 {
				t.Fatalf("schedule+cancel allocates %.1f objects, want 0", allocs)
			}
		})
	}
}
