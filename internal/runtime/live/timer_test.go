package live_test

import (
	"bytes"
	goruntime "runtime"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/reliable"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
)

// engines are the two implementations of the seam, each with hold: what
// keeping the execution context busy for d looks like there. The live loop
// sleeps; the simulator's virtual time cannot pass inside a callback, so
// there a timer comes due while the loop is busy only when another event
// due at the same instant was scheduled first, and hold does nothing.
var engines = []struct {
	name string
	new  func(t *testing.T) (eng runtime.Engine, hold func(time.Duration))
}{
	{"des", func(*testing.T) (runtime.Engine, func(time.Duration)) {
		return des.New(1), func(time.Duration) {}
	}},
	{"live", func(t *testing.T) (runtime.Engine, func(time.Duration)) {
		eng := live.NewEngine(1)
		t.Cleanup(eng.Close)
		return eng, time.Sleep
	}},
}

// observe reads what fn returns on the execution context.
func observe[T any](t *testing.T, eng runtime.Engine, fn func() T) T {
	t.Helper()
	var v T
	if err := eng.Wait(time.Second, func() bool { v = fn(); return true }); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestCancelledTimerNeverRuns (invariant 10): a timer cancelled on the
// execution context before its callback ran never runs, and Cancel says it
// was pending — even when its deadline passed while the loop was busy, so
// a timer that fires off the loop and queues its callback behind the inbox
// fails it. The reliable layer is where that shows: an arrival while the
// ack timer is due but has not run must not arm a second one, so two
// arrivals cost one acknowledgement.
func TestCancelledTimerNeverRuns(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			const d = 2 * time.Millisecond
			eng, hold := e.new(t)
			var cancelled, ran, done bool
			eng.Inject(func() {
				var victim runtime.Timer
				// Armed first, so it runs first when both are due: the
				// loop is busy past the victim's deadline.
				eng.AfterFunc(d, func() {
					hold(3 * d)
					cancelled = victim.Cancel()
					done = true
				})
				victim = eng.AfterFunc(d, func() { ran = true })
			})
			if err := eng.Wait(time.Second, func() bool { return done }); err != nil {
				t.Fatal(err)
			}
			eng.Sleep(5 * d) // a callback queued behind the Cancel would run now
			if !observe(t, eng, func() bool { return cancelled }) {
				t.Fatal("Cancel of a timer whose callback had not run reported false")
			}
			if observe(t, eng, func() bool { return ran }) {
				t.Fatal("a cancelled timer's callback ran")
			}
		})
		t.Run(e.name+"/reliable-ack", func(t *testing.T) {
			eng, hold := e.new(t)
			cfg := reliable.Config{Base: 20 * time.Millisecond}
			ackDelay := cfg.Base / 4
			fab := &ackCounter{handlers: make(map[runtime.NodeID]runtime.Handler)}
			var done bool
			eng.Inject(func() {
				l := reliable.NewLayer(eng, fab, cfg)
				l.Attach(1, runtime.HandlerFunc(func(runtime.Message) {}))
				l.Attach(2, runtime.HandlerFunc(func(runtime.Message) {}))
				l.Send(runtime.Message{From: 1, To: 2, Payload: "a"})
				l.Send(runtime.Message{From: 1, To: 2, Payload: "b"})
				first, second := fab.frames[0], fab.frames[1]
				// Armed before the ack timer the first arrival arms: it
				// runs first when both are due, and the second frame
				// arrives while the ack timer is due but has not run.
				eng.AfterFunc(ackDelay, func() {
					hold(3 * ackDelay)
					fab.handlers[2].Deliver(second)
					done = true
				})
				fab.handlers[2].Deliver(first)
			})
			if err := eng.Wait(time.Second, func() bool { return done }); err != nil {
				t.Fatal(err)
			}
			eng.Sleep(5 * ackDelay) // past a second ack timer, had one been armed
			if acks := observe(t, eng, func() int { return fab.acks }); acks != 1 {
				t.Fatalf("two arrivals, the second while the ack timer was due, sent %d acknowledgements, want 1", acks)
			}
		})
	}
}

// ackCounter is the network under a reliable layer: it keeps data frames
// for the test to deliver by hand and counts standalone acknowledgements.
type ackCounter struct {
	handlers map[runtime.NodeID]runtime.Handler
	frames   []runtime.Message
	acks     int
}

func (f *ackCounter) Attach(id runtime.NodeID, h runtime.Handler) { f.handlers[id] = h }
func (f *ackCounter) Cost(from, to runtime.NodeID) float64        { return 1 }
func (f *ackCounter) Down(runtime.NodeID) bool                    { return false }

func (f *ackCounter) Send(m runtime.Message) {
	if k, ok := m.Payload.(runtime.Kinder); ok && k.Kind() == "rel-ack" {
		f.acks++
		return
	}
	f.frames = append(f.frames, m)
}

// TestCloseEndsWithTimersPending: a node closed while its loop still holds
// timers — its own and the protocol's, mid-commit — returns from Close,
// refuses work afterwards, and leaves no goroutine behind. The loop stops
// its wall-clock timer and never waits on that timer's channel.
func TestCloseEndsWithTimersPending(t *testing.T) {
	before := goruntime.NumGoroutine()
	nodes, err := live.StartCluster(3, func(id runtime.NodeID, addrs map[runtime.NodeID]string) (*live.Node, error) {
		return live.StartNode(live.NodeConfig{Self: id, Addrs: addrs, Seed: int64(id)})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, node := range nodes {
		node.Eng.Do(func() {
			node.Eng.AfterFunc(time.Hour, func() {})
			node.Eng.AfterFunc(0, func() {})
		})
		submitAt(t, node, runtime.NodeID(i+1), core.Set("k", "v"))
	}
	closed := make(chan struct{})
	go func() {
		for _, node := range nodes {
			node.Close()
		}
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	for i, node := range nodes {
		if node.Eng.Do(func() {}) {
			t.Fatalf("node %d's engine ran work after Close", i+1)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for goruntime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			var stacks bytes.Buffer
			pprof.Lookup("goroutine").WriteTo(&stacks, 1)
			t.Fatalf("%d goroutines 5 s after Close, %d before the cluster started:\n%s", goruntime.NumGoroutine(), before, stacks.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
