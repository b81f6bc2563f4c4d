package des

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEmptyRun(t *testing.T) {
	s := New(1)
	for s.Step() {
	}
	if s.Now() != 0 {
		t.Fatalf("Now = %v, want 0", s.Now())
	}
	if s.Steps() != 0 {
		t.Fatalf("Steps = %d, want 0", s.Steps())
	}
}

func TestOrderingByTime(t *testing.T) {
	s := New(1)
	var got []int
	s.After(30*time.Millisecond, func() { got = append(got, 3) })
	s.After(10*time.Millisecond, func() { got = append(got, 1) })
	s.After(20*time.Millisecond, func() { got = append(got, 2) })
	for s.Step() {
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestFIFOWithinSameInstant(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(time.Millisecond, func() { got = append(got, i) })
	}
	for s.Step() {
	}
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("FIFO violated: got %v", got)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := New(1)
	var at Time
	s.After(42*time.Millisecond, func() { at = s.Now() })
	for s.Step() {
	}
	if at.Duration() != 42*time.Millisecond {
		t.Fatalf("event fired at %v, want 42ms", at)
	}
	if s.Now() != at {
		t.Fatalf("clock %v, want %v", s.Now(), at)
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New(1)
	var fired []time.Duration
	s.After(10*time.Millisecond, func() {
		fired = append(fired, s.Now().Duration())
		s.After(5*time.Millisecond, func() {
			fired = append(fired, s.Now().Duration())
		})
	})
	for s.Step() {
	}
	if len(fired) != 2 || fired[0] != 10*time.Millisecond || fired[1] != 15*time.Millisecond {
		t.Fatalf("fired = %v", fired)
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	e := s.After(time.Millisecond, func() { fired = true })
	if !e.Cancel() {
		t.Fatal("Cancel reported not pending")
	}
	if e.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	for s.Step() {
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelFiredEvent(t *testing.T) {
	s := New(1)
	e := s.After(0, func() {})
	for s.Step() {
	}
	if e.Cancel() {
		t.Fatal("Cancel of fired event should report false")
	}
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var count int
	for i := 1; i <= 5; i++ {
		s.After(time.Duration(i)*time.Millisecond, func() { count++ })
	}
	s.RunUntil(Time(3 * time.Millisecond))
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if s.Now().Duration() != 3*time.Millisecond {
		t.Fatalf("clock = %v, want 3ms", s.Now())
	}
	for s.Step() {
	}
	if count != 5 {
		t.Fatalf("count after draining = %d, want 5", count)
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New(1)
	s.RunUntil(Time(time.Second))
	if s.Now().Duration() != time.Second {
		t.Fatalf("idle clock = %v, want 1s", s.Now())
	}
}

func TestRunFor(t *testing.T) {
	s := New(1)
	fired := 0
	s.After(time.Millisecond, func() { fired++ })
	s.After(10*time.Millisecond, func() { fired++ })
	s.RunFor(5 * time.Millisecond)
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New(1)
	s.After(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in past")
			}
		}()
		s.At(Time(1*time.Millisecond), func() {})
	})
	for s.Step() {
	}
}

func TestNilFuncPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nil fn")
		}
	}()
	New(1).After(0, nil)
}

func TestMaxStepsPanics(t *testing.T) {
	s := New(1)
	s.SetMaxSteps(100)
	var loop func()
	loop = func() { s.After(time.Millisecond, loop) }
	s.After(0, loop)
	defer func() {
		if recover() == nil {
			t.Error("expected livelock panic")
		}
	}()
	for s.Step() {
	}
}

func TestNegativeAfterClamped(t *testing.T) {
	s := New(1)
	fired := false
	s.After(-time.Second, func() { fired = true })
	for s.Step() {
	}
	if !fired || s.Now() != 0 {
		t.Fatalf("fired=%v now=%v", fired, s.Now())
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	run := func(seed int64) []int64 {
		s := New(seed)
		var trace []int64
		var spawn func(depth int)
		spawn = func(depth int) {
			trace = append(trace, int64(s.Now()))
			if depth == 0 {
				return
			}
			n := s.Rand().Intn(3) + 1
			for i := 0; i < n; i++ {
				d := time.Duration(s.Rand().Intn(1000)) * time.Microsecond
				s.After(d, func() { spawn(depth - 1) })
			}
		}
		s.After(0, func() { spawn(6) })
		for s.Step() {
		}
		return trace
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces (suspicious)")
	}
}

// Property: for any batch of scheduled delays, events fire in nondecreasing
// time order and the clock ends at the max delay.
func TestPropertyMonotonicFiring(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(7)
		var fired []Time
		var max time.Duration
		for _, d := range delays {
			dd := time.Duration(d) * time.Microsecond
			if dd > max {
				max = dd
			}
			s.After(dd, func() { fired = append(fired, s.Now()) })
		}
		for s.Step() {
		}
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(delays) == 0 || s.Now().Duration() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeHelpers(t *testing.T) {
	x := Time(time.Second)
	if x.Add(time.Second) != Time(2*time.Second) {
		t.Fatal("Add")
	}
	if x.Sub(Time(time.Millisecond)) != time.Second-time.Millisecond {
		t.Fatal("Sub")
	}
	if x.String() != "1s" {
		t.Fatalf("String = %q", x.String())
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, func() {})
		s.Step()
	}
}

func BenchmarkDeepEventQueue(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(1)
		for j := 0; j < 1000; j++ {
			s.After(time.Duration(j)*time.Microsecond, func() {})
		}
		for s.Step() {
		}
	}
}

// A paced simulator takes (events - burst) / rate of wall time and fires
// what an unpaced one fires, in the same order at the same virtual times.
func TestSetPaceSleepsAndChangesNothingElse(t *testing.T) {
	run := func(paced bool) (order []int, end Time, wall time.Duration) {
		s := New(1)
		if paced {
			s.SetPace(100_000, 1000)
		}
		for i := 0; i < 6000; i++ {
			i := i
			s.After(time.Duration(i%7)*time.Millisecond, func() { order = append(order, i) })
		}
		start := time.Now()
		for s.Step() {
		}
		return order, s.Now(), time.Since(start)
	}
	free, freeEnd, _ := run(false)
	paced, pacedEnd, wall := run(true)
	if freeEnd != pacedEnd || len(free) != len(paced) {
		t.Fatalf("paced run ended at %v after %d events, unpaced at %v after %d", pacedEnd, len(paced), freeEnd, len(free))
	}
	for i := range free {
		if free[i] != paced[i] {
			t.Fatalf("event %d: paced run fired %d, unpaced %d", i, paced[i], free[i])
		}
	}
	// 6000 events, 1000 of them the burst, the last look at the clock at
	// event 5888: at least 48 ms.
	if wall < 45*time.Millisecond {
		t.Fatalf("6000 events at 100 000/s after a burst of 1000 took %v", wall)
	}
}
