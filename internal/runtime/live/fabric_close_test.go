package live_test

import (
	"io"
	"net"
	gort "runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/replica"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
)

// TestFabricCloseUnderSendingLoop closes a fabric while another goroutine is
// still sending through it, as live.Node.Close does to an actor loop with
// agents in flight. Send takes the peer under the fabric's lock but enqueues
// after releasing it, so Close must not close the queue a sender may be
// about to use: that was a "send on closed channel" panic.
func TestFabricCloseUnderSendingLoop(t *testing.T) {
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	go func() {
		for {
			conn, err := sink.Accept()
			if err != nil {
				return
			}
			go func() {
				_, _ = io.Copy(io.Discard, conn) // the peer only has to keep reading
				conn.Close()
			}()
		}
	}()
	addrs := map[runtime.NodeID]string{1: "127.0.0.1:0", 2: sink.Addr().String()}

	for round := 0; round < 50; round++ {
		eng := live.NewEngine(int64(round))
		fab, err := live.NewFabric(eng, 1, addrs)
		if err != nil {
			t.Fatal(err)
		}
		msg := runtime.Message{From: 1, To: 2, Payload: &replica.AbortMsg{Attempt: round}, Size: 48}
		fab.Send(msg) // the writer exists before the race starts
		var wg sync.WaitGroup
		var sent atomic.Int64
		stop := make(chan struct{})
		for g := 0; g < 8; g++ { // more senders than cores: some are preempted mid-Send
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
						fab.Send(msg)
						sent.Add(1)
					}
				}
			}()
		}
		for sent.Load() < 200 {
			gort.Gosched()
		}
		fab.Close()
		close(stop)
		wg.Wait()
		eng.Close()
	}
}
