package live_test

import (
	"net"
	"testing"
	"time"

	"repro/internal/replica"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
	"repro/internal/wire"
)

// TestOlderWireVersionIsRefused: a peer that opens with the previous wire
// version — whose frames still carried a size varint — is refused at the
// preamble. Its frame is never delivered and the connection is closed.
func TestOlderWireVersionIsRefused(t *testing.T) {
	eng := live.NewEngine(1)
	defer eng.Close()
	fab, err := live.NewFabric(eng, 1, map[runtime.NodeID]string{1: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	delivered := make(chan struct{}, 1)
	fab.Attach(1, runtime.HandlerFunc(func(runtime.Message) { delivered <- struct{}{} }))

	conn, err := net.Dial("tcp", fab.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	old := wire.Preamble
	old[4] = wire.Version - 1
	body := wire.AppendVarint(wire.AppendVarint(wire.AppendVarint(nil, 2), 1), 48) // From, To, Size
	if body, err = wire.AppendMessage(body, &replica.AbortMsg{Attempt: 1}); err != nil {
		t.Fatal(err)
	}
	frame := append(old[:], byte(len(body)), 0, 0, 0)
	if _, err := conn.Write(append(frame, body...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	// Closed with the frame read or unread: EOF, or a reset.
	_, err = conn.Read(make([]byte, 1))
	if ne, ok := err.(net.Error); err == nil || ok && ne.Timeout() {
		t.Fatalf("read after an old preamble: %v, want the fabric to close the connection", err)
	}
	select {
	case <-delivered:
		t.Fatal("a frame from an older wire version was delivered")
	case <-time.After(50 * time.Millisecond):
	}
}
