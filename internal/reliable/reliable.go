// Package reliable layers acknowledged, at-most-once-duplicated delivery on
// top of a lossy runtime.Fabric.
//
// The paper (§2) assumes reliable asynchronous channels, so the MARP
// protocol layers never had to cope with message loss. When a
// simnet.FaultModel is attached to the network that assumption breaks, and
// this package restores it end-to-end the way real systems do: one sliding
// window per directed link. The sender numbers its frames per destination
// and retransmits each with exponential backoff and jitter until it is
// acknowledged or the retry cap is exhausted; OnSettled tells the caller
// which. The receiver keeps, per sender, a watermark below which every
// number is settled plus the numbers received out of order above it,
// suppresses what it already holds, and acknowledges cumulatively: the
// watermark and the numbers above it that arrived since its last
// acknowledgement.
//
// MARP's traffic is request/response on every link, so the acknowledgement
// rides the reverse traffic: every data frame carries the link's current
// ack state, and a standalone rel-ack leaves only when a quarter of the
// retransmission base has passed since the first unacknowledged arrival
// with nothing having gone the other way. A lost acknowledgement costs
// nothing — the next frame restates the watermark.
//
// How long a frame waits before its first retransmission is measured per
// link, not configured (RFC 6298): every data frame carries which
// transmission of it this is, every acknowledgement names the newest frame
// it answers, which transmission of it arrived and how long it waited at
// the receiver, and the sender takes the round trip of that transmission
// less the wait as a sample. Naming the transmission (as TCP's timestamp
// echo does) removes the ambiguity Karn's rule avoids by discarding the
// samples of retransmitted frames — which on a link slower than its first
// timeout would be every sample. The link's timeout is the smoothed round
// trip plus four mean deviations plus the ack delay; the configured Base is
// only where a link starts before its first sample.
//
// A sequence number that will never be delivered (the retry cap ran out,
// the sender crashed with the frame unacknowledged, a restart skipped
// ahead) must not stall the receiver's watermark, so every data frame also
// carries the link's floor: the lowest number the sender may still
// retransmit. The receiver raises its watermark to just below the floor;
// a late copy of an abandoned frame is then suppressed, never delivered.
//
// Layer implements runtime.Fabric, so protocol code (agent.Platform,
// replica.Server) runs over either a bare fabric or a *Layer without
// change. Fault decisions live in the fabric; this layer draws randomness
// only for retransmit jitter, from the engine's seeded source, so simulated
// runs remain deterministic. Every live cluster runs on it (core puts it
// under any wire fabric), and a wire migration completes when its
// envelope's frame is acknowledged and fails when it is given up.
//
// Crash semantics follow fail-stop: Crash(id) discards the node's volatile
// state — unacked sends die with the node, the receive windows and the
// round-trip estimates are lost, so a retransmit that straddles a
// crash/recovery may be delivered twice (the recovered receiver re-learns
// its watermark from the next frame's floor, so only frames the sender
// still holds can be). The protocol handlers tolerate that (they are
// idempotent or guarded by attempt numbers). The per-link send counters
// survive a crash, modelling sequence numbers kept in stable storage.
//
// With a durability journal attached (SetJournal), that modelling becomes
// real: the send counters are journaled as one striding high-water mark
// from which every link resumes, and each receive window as one record per
// acknowledgement that reveals new state, appended before the
// acknowledgement leaves, and Restore rebuilds both after a restart — so a
// retransmit of a frame the node had acknowledged is suppressed instead of
// double-delivered. What a node keeps, journals and snapshots for this
// layer depends on what is in flight, not on how many frames it ever saw.
package reliable

import (
	"slices"
	"time"

	"repro/internal/runtime"
)

// Config tunes the retransmission policy.
type Config struct {
	// Base is the delay before the first retransmission on a link that has
	// not measured a round trip yet; from its first sample on, the link's
	// own timeout replaces it. A receiver holds an acknowledgement for at
	// most Base/4 waiting for reverse traffic to carry it, so every node
	// of a cluster runs the same Base.
	Base time.Duration
	// Max caps every retransmission delay.
	Max time.Duration
	// Attempts is the maximum number of transmissions per message
	// (the initial send counts as the first).
	Attempts int
	// Jitter is the fraction of each delay added uniformly at random, so
	// retransmissions from different senders decorrelate.
	Jitter float64
}

// DefaultConfig suits the LAN/prototype latency presets: first retry after
// 20ms until a round trip is measured, doubling to 500ms, five
// transmissions total.
var DefaultConfig = Config{Base: 20 * time.Millisecond, Max: 500 * time.Millisecond, Attempts: 5, Jitter: 0.2}

func (c Config) withDefaults() Config {
	d := DefaultConfig
	if c.Base <= 0 {
		c.Base = d.Base
	}
	if c.Max <= 0 {
		c.Max = d.Max
	}
	if c.Attempts <= 0 {
		c.Attempts = d.Attempts
	}
	if c.Jitter < 0 {
		c.Jitter = 0
	}
	return c
}

// ackDelay is the longest a receiver holds an acknowledgement waiting for a
// data frame going the other way to carry it.
func (c Config) ackDelay() time.Duration { return c.Base / 4 }

// Backoff returns the (jitter-free) delay scheduled after the attempt-th
// transmission on a link that has not measured a round trip: Base doubled
// attempt-1 times, capped at Max. Exposed pure so the schedule is
// unit-testable.
func Backoff(cfg Config, attempt int) time.Duration {
	cfg = cfg.withDefaults()
	return backoff(cfg.Base, cfg.Max, attempt)
}

// backoff is first doubled attempt-1 times, capped at limit.
func backoff(first, limit time.Duration, attempt int) time.Duration {
	d := first
	for i := 1; i < attempt && d < limit; i++ {
		d *= 2
	}
	return min(d, limit)
}

// granularity is RFC 6298's G, the least a timeout allows for the spread of
// a link's round trips beyond the smoothed one. A live engine's timers fire
// up to about a millisecond late, and the simulated LAN's transit has an
// exponential tail: at 1 ms, about one frame in thirteen that waited out
// the ack delay on the LAN preset was retransmitted while its
// acknowledgement was on the way (TestOneWayTrafficAcksOnTheTimer).
const granularity = 2 * time.Millisecond

// rttEstimator is one link's round-trip estimate (RFC 6298; Jacobson and
// Karels' gains of 1/8 and 1/4), fed only by samples the receiver's wait
// for reverse traffic has been taken out of.
type rttEstimator struct {
	srtt, rttvar time.Duration
	sampled      bool
}

func (e *rttEstimator) observe(r time.Duration) {
	if !e.sampled {
		e.srtt, e.rttvar, e.sampled = r, r/2, true
		return
	}
	dev := e.srtt - r
	if dev < 0 {
		dev = -dev
	}
	e.rttvar = (3*e.rttvar + dev) / 4
	e.srtt = (7*e.srtt + r) / 8
}

// rto is the first retransmission delay of a frame sent on the link now:
// Base until a round trip has been measured, then SRTT + max(G, 4·RTTVAR)
// plus the ack delay — an acknowledgement nothing carries back waits that
// long at the receiver, and the samples leave it out — never above Max.
func (e *rttEstimator) rto(cfg Config) time.Duration {
	if !e.sampled {
		return cfg.Base
	}
	return min(e.srtt+max(granularity, 4*e.rttvar)+cfg.ackDelay(), cfg.Max)
}

// Stats counts the layer's recovery work across all nodes.
type Stats struct {
	Retransmissions      int           // frames sent beyond the first transmission
	DuplicatesSuppressed int           // frames received more than once and dropped
	AcksSent             int           // standalone ack frames: no data frame came by in time
	AcksPiggybacked      int           // acknowledgements that rode a data frame instead
	GaveUp               int           // sends that exhausted the retry cap
	RTTSamples           int           // round trips measured, the receiver's wait taken out
	DedupResidue         int           // gauge: out-of-order frames held above the watermarks
	RTOMax               time.Duration // gauge: the longest timeout a measured link would give a frame sent now
}

// Window is what a receiver holds of one sender's frames: every number up
// to Mark is settled (delivered, or abandoned by the sender), and Above
// lists, ascending, the numbers beyond Mark+1 received out of order.
type Window struct {
	Mark  uint64
	Above []uint64
}

// Accept records seq and reports whether it was new.
func (w *Window) Accept(seq uint64) bool {
	if seq <= w.Mark {
		return false
	}
	if seq == w.Mark+1 {
		w.Mark++
		w.absorb()
		return true
	}
	i, held := slices.BinarySearch(w.Above, seq)
	if held {
		return false
	}
	w.Above = slices.Insert(w.Above, i, seq)
	return true
}

// Raise lifts the watermark to at least mark — the sender will never
// (re)transmit anything at or below it — and reports whether it moved.
func (w *Window) Raise(mark uint64) bool {
	if mark <= w.Mark {
		return false
	}
	w.Mark = mark
	i, _ := slices.BinarySearch(w.Above, mark+1)
	w.Above = w.Above[i:]
	w.absorb()
	return true
}

// absorb moves the watermark over the numbers now contiguous with it.
func (w *Window) absorb() {
	for len(w.Above) > 0 && w.Above[0] == w.Mark+1 {
		w.Mark++
		w.Above = w.Above[1:]
	}
	if len(w.Above) == 0 {
		w.Above = nil
	}
}

// ackState is a cumulative acknowledgement: everything up to Mark, plus
// the numbers above it that arrived since the receiver last acknowledged.
// Echo is the newest frame that arrived since then (zero if none did), Tx
// which transmission of it that was, and Delay how long it waited for this
// acknowledgement, in whole microseconds: the part of its round trip the
// network did not spend.
type ackState struct {
	Mark  uint64
	Above []uint64
	Echo  uint64
	Tx    int
	Delay time.Duration
}

// dataMsg is a sequenced frame wrapping a protocol payload. Tx counts its
// transmissions (1 for the first); Floor is the lowest number the sender
// may still retransmit on this link; Ack is the sender's acknowledgement
// of the reverse direction. Kind delegates to the payload so per-kind
// traffic accounting still names the protocol message (retransmissions
// count again — they are real transmissions).
type dataMsg struct {
	Seq     uint64
	Tx      int
	Floor   uint64
	Ack     ackState
	Payload any
}

func (d dataMsg) Kind() string {
	if k, ok := d.Payload.(runtime.Kinder); ok {
		return k.Kind()
	}
	return "rel-data"
}

// ackMsg is the standalone acknowledgement, sent when no data frame left
// for the peer in time to carry it, or to tell the peer a floor that a
// give-up moved. Floor is the sender's floor on the reverse link, as in a
// data frame.
type ackMsg struct {
	Floor uint64
	Ack   ackState
}

func (ackMsg) Kind() string { return "rel-ack" }

type pendingSend struct {
	msg     runtime.Message // the caller's original message
	seq     uint64
	attempt int
	// first and last are when the first and the latest transmission left:
	// where a round trip echoing either starts.
	first, last runtime.Time
	rto         time.Duration // the link's timeout when it was sent; doubles per attempt
	timer       runtime.Timer
}

// Journal receives the endpoint state a node must not lose across a
// restart. The durability subsystem implements it; both callbacks fire
// from the node's execution context, after the in-memory mutation.
type Journal interface {
	// NextSeq reports a link's send counter after an increment.
	// Implementations persist one striding high-water mark over all links,
	// not every value.
	NextSeq(seq uint64)
	// Acked reports what the node is about to acknowledge to from that it
	// had not journaled yet: the watermark, and the numbers held above it
	// since the last report. above is only valid during the call.
	Acked(from runtime.NodeID, mark uint64, above []uint64)
}

// link is one node's state towards one peer: the frames it numbered for
// the peer, and what it holds of the peer's.
type link struct {
	// Outbound. Every number below floor is acknowledged or abandoned;
	// with nothing pending floor is next+1. told is the highest floor a
	// frame has carried to the peer, gaveUp the highest number abandoned
	// at the retry cap.
	next    uint64 // last number assigned; survives Crash (stable storage)
	floor   uint64
	told    uint64
	gaveUp  uint64
	pending map[uint64]*pendingSend
	rtt     rttEstimator

	// Inbound. fresh lists the numbers above held.Mark that arrived since
	// the last acknowledgement left, newest the last new frame to arrive
	// since then, newestTx which transmission of it and newestAt when;
	// ackTimer is armed from the first
	// unacknowledged arrival until an acknowledgement leaves; unlogged says
	// held changed since the journal last heard of it.
	held     Window
	fresh    []uint64
	newest   uint64
	newestTx int
	newestAt runtime.Time
	ackTimer runtime.Timer
	unlogged bool
}

// advance moves the floor up to the lowest number still pending.
func (lk *link) advance() {
	for lk.floor <= lk.next && lk.pending[lk.floor] == nil {
		lk.floor++
	}
}

// port is one node's endpoint state.
type port struct {
	id      runtime.NodeID
	base    uint64 // restored send-counter high-water mark: new links start here
	links   map[runtime.NodeID]*link
	journal Journal // nil = volatile endpoint (the default)
}

func (p *port) link(peer runtime.NodeID) *link {
	lk, ok := p.links[peer]
	if !ok {
		lk = &link{next: p.base, floor: p.base + 1, pending: make(map[uint64]*pendingSend)}
		p.links[peer] = lk
	}
	return lk
}

// Layer is the ack/retransmit shim. It implements runtime.Fabric.
type Layer struct {
	eng       runtime.Engine
	net       runtime.Fabric
	cfg       Config
	ports     map[runtime.NodeID]*port
	upper     map[runtime.NodeID]runtime.Handler
	onSettled func(msg runtime.Message, delivered bool)
	stats     Stats
	hdr       []byte // transmit's scratch: a declared frame's encoded header
}

var _ runtime.Fabric = (*Layer)(nil)

// NewLayer wraps the fabric net, scheduling retransmissions on eng.
// Zero-valued Config fields take defaults.
func NewLayer(eng runtime.Engine, net runtime.Fabric, cfg Config) *Layer {
	return &Layer{
		eng:   eng,
		net:   net,
		cfg:   cfg.withDefaults(),
		ports: make(map[runtime.NodeID]*port),
		upper: make(map[runtime.NodeID]runtime.Handler),
	}
}

// Cost delegates to the underlying fabric.
func (l *Layer) Cost(from, to runtime.NodeID) float64 { return l.net.Cost(from, to) }

// Down delegates to the underlying fabric.
func (l *Layer) Down(id runtime.NodeID) bool { return l.net.Down(id) }

// NetStats delegates the runtime.StatsSource capability to the underlying
// fabric (zero counters if it keeps none).
func (l *Layer) NetStats() runtime.NetStats {
	if src, ok := l.net.(runtime.StatsSource); ok {
		return src.NetStats()
	}
	return runtime.NetStats{}
}

// Reachable forwards the runtime.ReachabilitySource capability; retries do
// not change what the underlying fabric can reach right now.
func (l *Layer) Reachable(from, to runtime.NodeID) bool {
	if src, ok := l.net.(runtime.ReachabilitySource); ok {
		return src.Reachable(from, to)
	}
	return true
}

// WireDelivery forwards the runtime.WireFabric capability: framing does not
// change whether payloads are physically serialized underneath.
func (l *Layer) WireDelivery() bool {
	if wf, ok := l.net.(runtime.WireFabric); ok {
		return wf.WireDelivery()
	}
	return false
}

// OnSettled registers fn to hear how each send ended (msg is the caller's
// message): delivered when the receiver acknowledges its frame, not when
// the retry cap gives it up. A frame pending when its sender crashes is
// neither. The agent platform completes and fails wire migrations on it.
func (l *Layer) OnSettled(fn func(msg runtime.Message, delivered bool)) {
	l.onSettled = fn
}

func (l *Layer) port(id runtime.NodeID) *port {
	p, ok := l.ports[id]
	if !ok {
		p = &port{id: id, links: make(map[runtime.NodeID]*link)}
		l.ports[id] = p
	}
	return p
}

// Attach registers h as node id's protocol handler and interposes the
// layer's framing on the wire. Re-attaching (recovery) replaces the handler.
func (l *Layer) Attach(id runtime.NodeID, h runtime.Handler) {
	l.upper[id] = h
	p := l.port(id)
	l.net.Attach(id, runtime.HandlerFunc(func(m runtime.Message) { l.receive(p, m) }))
}

// SetJournal attaches (or, with nil, detaches) node id's durability
// journal. Crash detaches it implicitly — a dead node must not journal.
func (l *Layer) SetJournal(id runtime.NodeID, j Journal) { l.port(id).journal = j }

// Restore reinstates node id's persistent endpoint state after a restart:
// the send counter every link resumes from (already slack-adjusted by the
// journal; the numbers it skips are holes the floor covers) and the
// receive window per sender.
func (l *Layer) Restore(id runtime.NodeID, nextSeq uint64, held map[runtime.NodeID]Window) {
	p := l.port(id)
	if nextSeq > p.base {
		p.base = nextSeq
	}
	for _, lk := range p.links {
		if lk.next < p.base {
			// The floor sits on the lowest pending number, or follows next.
			lk.next = p.base
			if len(lk.pending) == 0 {
				lk.floor = lk.next + 1
			}
		}
	}
	for from, w := range held {
		lk := p.link(from)
		lk.held.Raise(w.Mark)
		for _, seq := range w.Above {
			lk.held.Accept(seq)
		}
	}
}

// PortState captures node id's persistent endpoint state for a compaction
// snapshot: the highest send counter and the receive window of every
// sender it holds anything of.
func (l *Layer) PortState(id runtime.NodeID) (nextSeq uint64, held map[runtime.NodeID]Window) {
	p := l.port(id)
	nextSeq = p.base
	held = make(map[runtime.NodeID]Window)
	for peer, lk := range p.links {
		if lk.next > nextSeq {
			nextSeq = lk.next
		}
		if lk.held.Mark > 0 || len(lk.held.Above) > 0 {
			held[peer] = Window{Mark: lk.held.Mark, Above: slices.Clone(lk.held.Above)}
		}
	}
	return nextSeq, held
}

// Send transmits msg with ack/retransmit semantics. Delivery to the remote
// handler happens at most the configured number of transmissions later; if
// every transmission is lost the send is abandoned, which OnSettled reports.
func (l *Layer) Send(msg runtime.Message) {
	p := l.port(msg.From)
	lk := p.link(msg.To)
	lk.next++
	if p.journal != nil {
		p.journal.NextSeq(lk.next)
	}
	ps := &pendingSend{msg: msg, seq: lk.next, attempt: 1, first: l.eng.Now(), rto: lk.rtt.rto(l.cfg)}
	lk.pending[ps.seq] = ps
	l.transmit(p, lk, ps)
}

func (l *Layer) transmit(p *port, lk *link, ps *pendingSend) {
	ack, due := l.takeAck(p, ps.msg.To, lk)
	if due {
		l.stats.AcksPiggybacked++
	}
	lk.told = lk.floor
	ps.last = l.eng.Now()
	frame := dataMsg{Seq: ps.seq, Tx: ps.attempt, Floor: lk.floor, Ack: ack, Payload: ps.msg.Payload}
	size := 0
	if ps.msg.Size != 0 {
		// Declared size: the payload declared its own (no codec carries
		// it), so the frame costs its encoded header and tag on top.
		l.hdr = appendDataHeader(l.hdr[:0], frame)
		size = 1 + len(l.hdr) + ps.msg.Size
	}
	l.net.Send(runtime.Message{From: ps.msg.From, To: ps.msg.To, Payload: frame, Size: size})
	d := backoff(ps.rto, l.cfg.Max, ps.attempt)
	if l.cfg.Jitter > 0 {
		d += time.Duration(l.cfg.Jitter * l.eng.Rand().Float64() * float64(d))
	}
	ps.timer = l.eng.AfterFunc(d, func() { l.expire(p, lk, ps) })
}

// takeAck returns what p acknowledges to peer right now and marks it
// acknowledged: the journal hears of it first, and the ack timer stops —
// due reports whether it was still running, i.e. an arrival was waiting.
func (l *Layer) takeAck(p *port, peer runtime.NodeID, lk *link) (ack ackState, due bool) {
	ack = ackState{Mark: lk.held.Mark, Above: lk.fresh}
	if lk.newest != 0 {
		ack.Echo, ack.Tx, ack.Delay = lk.newest, lk.newestTx, l.eng.Now().Sub(lk.newestAt).Truncate(time.Microsecond)
		lk.newest = 0
	}
	if lk.unlogged && p.journal != nil {
		p.journal.Acked(peer, ack.Mark, ack.Above)
	}
	lk.unlogged = false
	lk.fresh = nil
	return ack, lk.ackTimer.Cancel()
}

func (l *Layer) expire(p *port, lk *link, ps *pendingSend) {
	if lk.pending[ps.seq] != ps {
		return // acked, or cleared by Crash, while the timer was in flight
	}
	if l.net.Down(ps.msg.From) {
		// Fail-stop: a down sender retransmits nothing. Crash() normally
		// clears pending first; this guards direct SetDown use.
		delete(lk.pending, ps.seq)
		lk.advance()
		return
	}
	if ps.attempt >= l.cfg.Attempts {
		delete(lk.pending, ps.seq)
		lk.advance()
		lk.gaveUp = max(lk.gaveUp, ps.seq)
		l.stats.GaveUp++
		l.tellFloor(p, ps.msg.To, lk)
		if l.onSettled != nil {
			l.onSettled(ps.msg, false)
		}
		return
	}
	ps.attempt++
	l.stats.Retransmissions++
	l.transmit(p, lk, ps)
}

// tellFloor sends peer the link's floor when it has moved over a number
// given up on that no frame's floor has covered yet, and over at least one
// more: the peer may hold frames above that hole, and nothing else would
// close it before the next frame goes that way. Without a give-up it never
// sends.
func (l *Layer) tellFloor(p *port, peer runtime.NodeID, lk *link) {
	if lk.gaveUp != 0 && lk.gaveUp >= lk.told && lk.floor > lk.told+1 {
		l.sendAck(p, peer, lk)
	}
}

// heard applies the link state a frame from peer carries: its
// acknowledgement of lk's outbound frames — first as a round-trip sample —
// and its floor on the reverse direction.
func (l *Layer) heard(p *port, peer runtime.NodeID, lk *link, floor uint64, ack ackState) {
	l.sample(lk, ack)
	for seq := lk.floor; seq <= ack.Mark && seq <= lk.next; seq++ {
		l.settle(lk, seq)
	}
	for _, seq := range ack.Above {
		l.settle(lk, seq)
	}
	lk.advance()
	l.tellFloor(p, peer, lk)
	// The floor is at least 1; a zero can only come off a hostile wire.
	if floor > 0 && lk.held.Raise(floor-1) {
		lk.unlogged = true
	}
}

// settle drops seq, which the peer acknowledged, from lk's retransmission
// set and tells the sender it was delivered.
func (l *Layer) settle(lk *link, seq uint64) {
	ps, ok := lk.pending[seq]
	if !ok {
		return
	}
	ps.timer.Cancel()
	delete(lk.pending, seq)
	if l.onSettled != nil {
		l.onSettled(ps.msg, true)
	}
}

// sample measures the round trip of the transmission ack echoes, less the
// time it waited at the receiver, if this is the acknowledgement that
// settles its frame. Only the first and the latest transmission's times
// are kept, so an echo of one in between is no sample.
func (l *Layer) sample(lk *link, ack ackState) {
	ps := lk.pending[ack.Echo]
	if ps == nil {
		return
	}
	sent := ps.first
	switch ack.Tx {
	case 1:
	case ps.attempt:
		sent = ps.last
	default:
		return
	}
	if r := l.eng.Now().Sub(sent) - ack.Delay; r > 0 {
		lk.rtt.observe(r)
		l.stats.RTTSamples++
	}
}

func (l *Layer) receive(p *port, m runtime.Message) {
	switch pl := m.Payload.(type) {
	case dataMsg:
		lk := p.link(m.From)
		l.heard(p, m.From, lk, pl.Floor, pl.Ack)
		fresh := lk.held.Accept(pl.Seq)
		if fresh {
			lk.unlogged = true
			lk.newest, lk.newestTx, lk.newestAt = pl.Seq, pl.Tx, l.eng.Now()
		} else {
			l.stats.DuplicatesSuppressed++
		}
		// Acknowledge even duplicates: the previous ack may itself have
		// been lost. Below the watermark the next ack says so anyway.
		if pl.Seq > lk.held.Mark && !slices.Contains(lk.fresh, pl.Seq) {
			lk.fresh = append(lk.fresh, pl.Seq)
		}
		if !lk.ackTimer.Active() {
			from := m.From // not m: the timer must not keep the payload alive
			lk.ackTimer = l.eng.AfterFunc(l.cfg.ackDelay(), func() { l.sendAck(p, from, lk) })
		}
		if !fresh {
			return
		}
		if h := l.upper[p.id]; h != nil {
			h.Deliver(runtime.Message{From: m.From, To: m.To, Payload: pl.Payload})
		}
	case ackMsg:
		l.heard(p, m.From, p.link(m.From), pl.Floor, pl.Ack)
	default:
		// A sender bypassed the layer; hand the raw message up unchanged.
		if h := l.upper[p.id]; h != nil {
			h.Deliver(m)
		}
	}
}

// sendAck fires when no data frame left for peer within the ack delay of
// the first unacknowledged arrival, or when tellFloor has news.
func (l *Layer) sendAck(p *port, peer runtime.NodeID, lk *link) {
	ack, _ := l.takeAck(p, peer, lk)
	l.stats.AcksSent++
	lk.told = lk.floor
	l.net.Send(runtime.Message{From: p.id, To: peer, Payload: ackMsg{Floor: lk.floor, Ack: ack}})
}

// Crash discards node id's volatile endpoint state: unacked sends die with
// the node — every link's floor moves past them — and its receive windows
// and round-trip estimates are lost (see the package comment for the
// recovery consequences). The send counters survive.
func (l *Layer) Crash(id runtime.NodeID) {
	p, ok := l.ports[id]
	if !ok {
		return
	}
	for _, lk := range p.links {
		for _, ps := range lk.pending {
			ps.timer.Cancel()
		}
		lk.ackTimer.Cancel()
		*lk = link{next: lk.next, floor: lk.next + 1, pending: make(map[uint64]*pendingSend)}
	}
	p.journal = nil
}

// Stats returns a copy of the recovery counters.
func (l *Layer) Stats() Stats {
	st := l.stats
	for _, p := range l.ports {
		for _, lk := range p.links {
			st.DedupResidue += len(lk.held.Above)
			if lk.rtt.sampled {
				st.RTOMax = max(st.RTOMax, lk.rtt.rto(l.cfg))
			}
		}
	}
	return st
}
