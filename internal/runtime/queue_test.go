package runtime

import (
	"math"
	"testing"
	"time"
)

// drain fires everything q holds, in order, and returns the times fired.
func drain(q *Queue) []Time {
	var fired []Time
	for {
		when, fn, ok := q.Pop(math.MaxInt64)
		if !ok {
			return fired
		}
		fn()
		fired = append(fired, when)
	}
}

// TestCancelRemovesFromQueue: cancellation reaps immediately, anywhere in
// the heap, so the queue's length is exact and drain checks cannot
// over-count.
func TestCancelRemovesFromQueue(t *testing.T) {
	var q Queue
	var timers []Timer
	for i := 1; i <= 10; i++ {
		timers = append(timers, q.Schedule(Time(time.Duration(i)*time.Millisecond), func() {}))
	}
	if len(q.events) != 10 {
		t.Fatalf("queued = %d, want 10", len(q.events))
	}
	timers[0].Cancel() // heap top
	timers[5].Cancel() // mid-heap
	timers[9].Cancel() // deep
	if len(q.events) != 7 {
		t.Fatalf("queued after 3 cancels = %d, want 7", len(q.events))
	}
	if next, _ := q.Next(); next != Time(2*time.Millisecond) {
		t.Fatalf("Next after cancelling the head = %v, want 2ms", next)
	}
	// The survivors still fire in timestamp order.
	fired := drain(&q)
	if len(fired) != 7 {
		t.Fatalf("fired %d events, want 7", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("out-of-order firing after mid-heap removal: %v", fired)
		}
	}
	if _, ok := q.Next(); ok || len(q.events) != 0 {
		t.Fatalf("queued after drain = %d, want 0", len(q.events))
	}
}
