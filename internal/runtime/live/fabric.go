package live

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/runtime"
	"repro/internal/trace"
	"repro/internal/wire"
)

var (
	_ runtime.Fabric             = (*Fabric)(nil)
	_ runtime.Partitioner        = (*Fabric)(nil)
	_ runtime.ReachabilitySource = (*Fabric)(nil)
)

// FabricOptions tunes a Fabric beyond its address book.
type FabricOptions struct {
	// Trace, if non-nil, receives fabric-level events (currently the
	// once-per-peer writer-queue-overflow notice).
	Trace *trace.Log
}

// Fabric is a TCP implementation of runtime.Fabric for a fixed set of
// replica processes. Each process listens on its own address and lazily
// dials every peer it first sends to; one outbound connection per peer,
// written by a dedicated goroutine fed from a bounded queue. The writer
// drains its whole queue into one reused buffer and hands the kernel a
// single write per drain — frames coalesce under load instead of costing a
// syscall each.
//
// Send keeps the seam's fail-stop semantics: when a peer is unreachable or
// its queue is full the message is dropped and the sender finds out by
// protocol timeout, exactly as on the simulated network. Down always
// reports false — a live fabric has no oracle for remote liveness.
type Fabric struct {
	eng    *Engine
	self   runtime.NodeID
	addrs  map[runtime.NodeID]string
	ln     net.Listener
	tracer *trace.Log

	mu       sync.Mutex
	handlers map[runtime.NodeID]runtime.Handler
	peers    map[runtime.NodeID]*peer
	inbound  map[net.Conn]bool
	group    map[runtime.NodeID]int // partition group per node; nil = healed
	stats    runtime.NetStats
	closed   bool
	done     chan struct{} // closed by Close: the writers' stop signal
	wg       sync.WaitGroup
}

type peer struct {
	id          runtime.NodeID
	out         chan runtime.Message
	dropNoticed bool // the once-per-peer queue-overflow trace fired
}

// NewFabric starts listening on addrs[self] and returns the fabric, using
// the default options. Peer connections are dialed on first send.
func NewFabric(eng *Engine, self runtime.NodeID, addrs map[runtime.NodeID]string) (*Fabric, error) {
	return NewFabricOptions(eng, self, addrs, FabricOptions{})
}

// NewFabricOptions is NewFabric with explicit options.
func NewFabricOptions(eng *Engine, self runtime.NodeID, addrs map[runtime.NodeID]string, opts FabricOptions) (*Fabric, error) {
	addr, ok := addrs[self]
	if !ok {
		return nil, fmt.Errorf("live: no address for self node %d", self)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: listen %s: %w", addr, err)
	}
	f := &Fabric{
		eng:      eng,
		self:     self,
		addrs:    addrs,
		ln:       ln,
		tracer:   opts.Trace,
		handlers: make(map[runtime.NodeID]runtime.Handler),
		peers:    make(map[runtime.NodeID]*peer),
		inbound:  make(map[net.Conn]bool),
		done:     make(chan struct{}),
	}
	f.wg.Add(1)
	go f.acceptLoop()
	return f, nil
}

// Addr returns the address the fabric actually listens on (useful with
// ":0" test listeners).
func (f *Fabric) Addr() string { return f.ln.Addr().String() }

// WireDelivery reports that payloads are physically serialized: agents
// must migrate as encoded wire state, not live pointers.
func (f *Fabric) WireDelivery() bool { return true }

// Attach registers the handler for a local node.
func (f *Fabric) Attach(id runtime.NodeID, h runtime.Handler) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.handlers[id] = h
}

// Cost returns a uniform unit cost between distinct nodes — localhost
// deployments have no meaningful topology; agents visit in ID order.
func (f *Fabric) Cost(from, to runtime.NodeID) float64 {
	if from == to {
		return 0
	}
	return 1
}

// Down always reports false: the live fabric cannot observe remote
// liveness; failures surface as protocol timeouts.
func (f *Fabric) Down(runtime.NodeID) bool { return false }

// Partition implements runtime.Partitioner by filtering at the endpoints:
// frames whose sender and receiver sit in different groups are dropped at
// the sending fabric, and — because each process only learns of a
// partition when the operator's injection reaches it — once more on
// receipt, so a frame from a peer that has not applied the split yet still
// cannot cross it. Nodes not named in any group fall in group 0. Drops are
// counted like any other loss; the reliable layer and protocol timeouts
// see exactly what a switch-level split would produce.
func (f *Fabric) Partition(groups ...[]runtime.NodeID) {
	g := make(map[runtime.NodeID]int)
	for gi, nodes := range groups {
		for _, id := range nodes {
			g[id] = gi + 1
		}
	}
	f.mu.Lock()
	f.group = g
	f.mu.Unlock()
}

// Heal implements runtime.Partitioner: all groups rejoin.
func (f *Fabric) Heal() {
	f.mu.Lock()
	f.group = nil
	f.mu.Unlock()
}

// cutLocked reports whether the current partition separates a and b.
// Caller holds f.mu.
func (f *Fabric) cutLocked(a, b runtime.NodeID) bool {
	return f.group != nil && f.group[a] != f.group[b]
}

// Reachable implements runtime.ReachabilitySource: delivery is attempted
// unless an injected partition separates the endpoints. Remote liveness is
// unobservable on a live fabric (Down always reports false), so this is
// exactly the send-side filter Send applies — the state /healthz reads.
func (f *Fabric) Reachable(from, to runtime.NodeID) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return !f.cutLocked(from, to)
}

// NetStats implements runtime.StatsSource.
func (f *Fabric) NetStats() runtime.NetStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats.Clone()
}

// Send transmits msg: locally injected when the destination handler lives
// in this process, otherwise queued to the peer's writer, which charges it
// the length of the encoding it writes. A message that never reaches a
// writer is encoded here to be charged. Fire-and-forget.
func (f *Fabric) Send(msg runtime.Message) {
	if msg.From == runtime.None || msg.To == runtime.None {
		panic(fmt.Sprintf("live: message with unset endpoints %+v", msg))
	}
	if !wire.Registered(msg.Payload) {
		// The protocol message set is closed; an unregistered payload is a
		// programming error and must fail before it is queued, not decode
		// as garbage on the peer.
		panic(fmt.Sprintf("live: payload type %T has no wire codec", msg.Payload))
	}
	f.mu.Lock()
	if f.cutLocked(msg.From, msg.To) {
		f.stats.CountSent(msg, msg.Bytes())
		f.stats.MessagesDropped++
		f.mu.Unlock()
		return
	}
	if h, ok := f.handlers[msg.To]; ok {
		f.stats.CountSent(msg, msg.Bytes())
		f.stats.MessagesDelivered++
		f.mu.Unlock()
		f.eng.Inject(func() { h.Deliver(msg) })
		return
	}
	p, err := f.peerLocked(msg.To)
	if err != nil {
		f.stats.CountSent(msg, msg.Bytes())
		f.stats.MessagesDropped++
		f.mu.Unlock()
		return
	}
	f.mu.Unlock()
	select {
	case p.out <- msg:
	default:
		// Queue full: drop, per fail-stop semantics. The reliable layer or
		// the protocol's own timeouts recover — but never silently: the
		// drop is counted, and the first one per peer leaves a trace.
		f.mu.Lock()
		f.stats.CountSent(msg, msg.Bytes())
		f.stats.MessagesDropped++
		f.stats.QueueDrops++
		noticed := p.dropNoticed
		p.dropNoticed = true
		f.mu.Unlock()
		if !noticed {
			f.tracer.Addf(0, int(f.self), "fabric", trace.FabricOverflow,
				"writer queue to S%d full; dropping (counted in QueueDrops)", p.id)
		}
	}
}

// peerLocked returns (starting if needed) the writer for a remote node.
// Caller holds f.mu.
func (f *Fabric) peerLocked(id runtime.NodeID) (*peer, error) {
	if f.closed {
		return nil, fmt.Errorf("live: fabric closed")
	}
	if p, ok := f.peers[id]; ok {
		return p, nil
	}
	addr, ok := f.addrs[id]
	if !ok {
		return nil, fmt.Errorf("live: unknown node %d", id)
	}
	p := &peer{id: id, out: make(chan runtime.Message, 256)}
	f.peers[id] = p
	f.wg.Add(1)
	go f.writeLoop(p, addr)
	return p, nil
}

// writeLoop owns one outbound connection: dial lazily per frame, encode,
// and on any error drop the connection (the next frame redials). Frames
// that cannot be sent are counted lost — the live analogue of the fault
// model eating a message on an otherwise healthy link.
//
// Each wake-up drains the whole queue: every pending frame is encoded into
// one reused buffer and flushed with a single conn.Write. Under load the
// per-frame syscall cost amortizes across the batch; an idle fabric still
// sends every frame immediately (a drain of one).
func (f *Fabric) writeLoop(p *peer, addr string) {
	defer f.wg.Done()
	var conn net.Conn
	var buf []byte // the reused drain buffer
	batch := make([]runtime.Message, 0, 64)
	drop := func(n int) {
		if conn != nil {
			conn.Close()
			conn = nil
		}
		f.mu.Lock()
		f.stats.MessagesLost += n
		f.mu.Unlock()
	}
	// The queue is never closed — a Send that already holds the peer may
	// still be about to enqueue when Close runs — so done is what stops the
	// loop, after one last drain of whatever was queued before the close.
	for closing := false; !closing; {
		batch = batch[:0]
		select {
		case fr := <-p.out:
			batch = append(batch, fr)
		case <-f.done:
			closing = true
		}
		// Drain: take everything already queued behind the first frame.
	fill:
		for {
			select {
			case more := <-p.out:
				batch = append(batch, more)
			default:
				break fill
			}
		}
		if len(batch) == 0 {
			break
		}
		buf = encodeBatch(buf[:0], batch)
		f.mu.Lock()
		for _, m := range batch {
			f.stats.CountSent(m, m.Size)
		}
		f.mu.Unlock()
		if conn == nil {
			c, err := net.DialTimeout("tcp", addr, 2*time.Second)
			if err != nil {
				drop(len(batch))
				continue
			}
			conn = c
			if _, err := conn.Write(wire.Preamble[:]); err != nil {
				drop(len(batch))
				continue
			}
		}
		if _, err := conn.Write(buf); err != nil {
			drop(len(batch))
			continue
		}
		f.mu.Lock()
		f.stats.MessagesDelivered += len(batch) // handed to the kernel; receipt is the peer's count
		f.mu.Unlock()
	}
	if conn != nil {
		conn.Close()
	}
}

// encodeBatch appends every message of the batch to b as one frame and
// sets its Size to what it costs (Message.Bytes, without a second
// encoding). A frame is the unit on the wire: From identifies the sender
// (no separate handshake), and it carries no size. A frame over
// wire.MaxFrame panics before anything of the batch reaches the socket.
func encodeBatch(b []byte, batch []runtime.Message) []byte {
	for i := range batch {
		fr := &batch[i]
		// Frame: u32 LE body length, then varint From, varint To, tagged
		// message.
		lenAt := len(b)
		b = append(b, 0, 0, 0, 0)
		b = wire.AppendVarint(b, int64(fr.From))
		b = wire.AppendVarint(b, int64(fr.To))
		msgAt := len(b)
		var err error
		if b, err = wire.AppendMessage(b, fr.Payload); err != nil {
			// Unreachable: Send checks wire.Registered before queueing.
			panic("live: " + err.Error())
		}
		body := len(b) - lenAt - 4
		if body > wire.MaxFrame {
			panic(fmt.Sprintf("live: frame of %d bytes exceeds wire.MaxFrame", body))
		}
		binary.LittleEndian.PutUint32(b[lenAt:], uint32(body))
		if fr.Size == 0 {
			fr.Size = len(b) - msgAt
		}
	}
	return b
}

func (f *Fabric) acceptLoop() {
	defer f.wg.Done()
	for {
		conn, err := f.ln.Accept()
		if err != nil {
			return // listener closed
		}
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			conn.Close()
			continue
		}
		f.inbound[conn] = true
		f.mu.Unlock()
		f.wg.Add(1)
		go f.readLoop(conn)
	}
}

// readBuf is each inbound connection's read buffer. Frame bodies measured
// on the benchmark's live workloads (seed 7): live-closed p50 73 B, p99
// 360–440 B, largest 1.6 KB; live-open p50 60 B, p99 2.6–2.9 KB, largest
// 4.0 KB. One buffer of 4 KB holds every frame but the very largest, which
// io.ReadFull then reads straight into the frame's body. On live-closed a
// socket read returned 128 B on average with it, 143 B with 64 KB.
const readBuf = 4 << 10

// readLoop decodes inbound frames and injects deliveries onto the actor
// loop, preserving the single-threaded protocol contract. A peer speaking
// something else or another wire version is refused with a loud complaint
// — the version byte exists so mixed deployments fail fast instead of
// mis-decoding each other.
func (f *Fabric) readLoop(conn net.Conn) {
	defer f.wg.Done()
	defer func() {
		conn.Close()
		f.mu.Lock()
		delete(f.inbound, conn)
		f.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, readBuf)
	var pre [5]byte
	if _, err := io.ReadFull(br, pre[:]); err != nil {
		return
	}
	if pre != wire.Preamble {
		detail := "not a MARP wire-codec stream"
		if bytes.Equal(pre[:4], wire.Preamble[:4]) {
			detail = fmt.Sprintf("wire version %d, want %d", pre[4], wire.Version)
		}
		fmt.Printf("live: S%d refusing connection from %s: %s\n", f.self, conn.RemoteAddr(), detail)
		return
	}
	var body []byte
	r := wire.NewReader(nil)
	var lenb [4]byte
	for {
		if _, err := io.ReadFull(br, lenb[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(lenb[:])
		if n > wire.MaxFrame {
			fmt.Printf("live: S%d dropping connection from %s: frame of %d bytes exceeds limit\n",
				f.self, conn.RemoteAddr(), n)
			return
		}
		body = wire.Grow(body, int(n))
		if _, err := io.ReadFull(br, body); err != nil {
			return
		}
		r.Reset(body)
		from := runtime.NodeID(r.Varint())
		to := runtime.NodeID(r.Varint())
		payload, err := wire.DecodeMessage(r)
		if err == nil {
			err = r.Finish()
		}
		if err != nil {
			fmt.Printf("live: S%d dropping connection from %s: %v\n", f.self, conn.RemoteAddr(), err)
			return
		}
		f.deliver(runtime.Message{From: from, To: to, Payload: payload})
	}
}

// deliver injects one decoded message onto the actor loop.
func (f *Fabric) deliver(msg runtime.Message) {
	f.mu.Lock()
	h, ok := f.handlers[msg.To]
	if !ok || f.cutLocked(msg.From, msg.To) {
		f.stats.MessagesDropped++
		f.mu.Unlock()
		return
	}
	f.mu.Unlock()
	f.eng.Inject(func() { h.Deliver(msg) })
}

// Close shuts the listener and all peer writers down and waits for the
// socket goroutines to exit.
func (f *Fabric) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	conns := make([]net.Conn, 0, len(f.inbound))
	for c := range f.inbound {
		conns = append(conns, c)
	}
	f.mu.Unlock()
	f.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	close(f.done)
	f.wg.Wait()
}
