package baseline

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/quorum"
	"repro/internal/runtime"
	"repro/internal/store"
)

// System is a running deployment of one baseline protocol: N replica nodes
// on a fabric, with stationary per-request coordinators.
type System struct {
	cfg      Config
	eng      runtime.Engine
	fab      runtime.Fabric
	nodes    map[runtime.NodeID]*node
	ids      []runtime.NodeID
	majority int // MCV's and primary-copy's round size
	coords   map[TxnID]*coord

	results     []Result
	outstanding int
	txnSeq      uint64
}

// New builds a baseline system per cfg on the given engine and fabric,
// attaching replicas 1..N to the fabric.
func New(eng runtime.Engine, fab runtime.Fabric, cfg Config) (*System, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:    cfg,
		eng:    eng,
		fab:    fab,
		nodes:  make(map[runtime.NodeID]*node),
		coords: make(map[TxnID]*coord),
	}
	for i := 1; i <= cfg.N; i++ {
		id := runtime.NodeID(i)
		s.ids = append(s.ids, id)
		n := &node{sys: s, id: id, st: store.New(), votes: make(map[uint64]TxnID), aborted: make(map[TxnID]int)}
		s.nodes[id] = n
		fab.Attach(id, n)
	}
	s.majority = quorum.Equal(s.ids).Majority()
	return s, nil
}

// Results returns the completed updates so far.
func (s *System) Results() []Result {
	out := make([]Result, len(s.results))
	copy(out, s.results)
	return out
}

// Read serves a read from the local copy (read-one in all three baselines).
func (s *System) Read(id runtime.NodeID, key string) (store.Value, bool) {
	n := s.nodes[id]
	if n == nil {
		return store.Value{}, false
	}
	return n.st.Get(key)
}

// Submit initiates an update of key to val from the given home node.
func (s *System) Submit(home runtime.NodeID, key, val string) error {
	n := s.nodes[home]
	if n == nil {
		return fmt.Errorf("baseline: unknown home %d", home)
	}
	if key == "" {
		return fmt.Errorf("baseline: empty key")
	}
	s.txnSeq++
	txn := TxnID{Born: int64(s.eng.Now()), Home: home, Seq: s.txnSeq}
	c := &coord{
		sys: s, txn: txn, home: home, key: key, val: val,
		dispatched: s.eng.Now(),
	}
	s.coords[txn] = c
	s.outstanding++
	c.start()
	return nil
}

// RunUntilDone runs the engine until all submitted updates finish, failing
// if that takes more than maxVirtual or the engine runs out of work first.
func (s *System) RunUntilDone(maxVirtual time.Duration) error {
	switch err := s.eng.Wait(maxVirtual, func() bool { return s.outstanding == 0 }); {
	case err == nil:
		return nil
	case errors.Is(err, runtime.ErrStalled):
		return fmt.Errorf("baseline(%v): event queue drained with %d updates outstanding", s.cfg.Kind, s.outstanding)
	default:
		return fmt.Errorf("baseline(%v): %d updates still outstanding after %v", s.cfg.Kind, s.outstanding, maxVirtual)
	}
}

// Settle runs the engine d further so in-flight commits land.
func (s *System) Settle(d time.Duration) { s.eng.Sleep(d) }

// CheckConvergence verifies all replicas hold identical committed logs.
func (s *System) CheckConvergence() error {
	var ref []store.Update
	for _, id := range s.ids {
		log := s.nodes[id].st.Log()
		if ref == nil {
			ref = log
			continue
		}
		if len(log) != len(ref) {
			return fmt.Errorf("baseline: node %d has %d updates, node 1 has %d", id, len(log), len(ref))
		}
		for i := range log {
			if log[i] != ref[i] {
				return fmt.Errorf("baseline: node %d log[%d] = %+v, want %+v", id, i, log[i], ref[i])
			}
		}
	}
	return nil
}

// message is a baseline protocol message. No codec carries these, so each
// declares its wire size.
type message interface {
	runtime.Kinder
	WireSize() int
}

// send routes a payload, short-circuiting node-local deliveries (a
// stationary coordinator talks to its co-located replica at memory speed,
// same as MARP's local interactions).
func (s *System) send(from, to runtime.NodeID, payload message) {
	// Declared size: the baselines' messages have no wire codec.
	msg := runtime.Message{From: from, To: to, Payload: payload, Size: payload.WireSize()}
	if from == to {
		s.nodes[to].Deliver(msg)
		return
	}
	s.fab.Send(msg)
}

func (s *System) finish(r Result) {
	s.results = append(s.results, r)
	s.outstanding--
	delete(s.coords, r.Txn)
}

// node is one replica: the data store plus the per-sequence-slot vote state
// of Thomas's majority consensus, and the serialization queue when acting as
// the primary in PrimaryCopy.
type node struct {
	sys *System
	id  runtime.NodeID
	st  *store.Store
	// votes maps a sequence slot to the transaction this replica voted
	// for. At most one live vote per slot makes any two vote majorities
	// intersect, which is the protocol's safety core.
	votes map[uint64]TxnID
	// aborted records, per transaction, the highest proposal round its
	// coordinator has withdrawn; votes for those rounds are refused.
	aborted map[TxnID]int
	// backlogged commits waiting for earlier sequence numbers.
	backlog map[uint64]store.Update
	// primary-copy serialization queue (only used on the primary).
	primQ    []forward
	primBusy bool
}

// Deliver implements runtime.Handler.
func (n *node) Deliver(msg runtime.Message) {
	switch m := msg.Payload.(type) {
	case *readReq:
		n.onReadReq(*m)
	case *voteReq:
		n.onVoteReq(*m)
	case *abortReq:
		n.onAbort(*m)
	case *commitReq:
		n.onCommitReq(*m)
	case *forward:
		n.onForward(*m)
	case *readRep:
		if c := n.sys.coords[m.Txn]; c != nil {
			c.onReadRep(*m)
		}
	case *voteRep:
		if c := n.sys.coords[m.Txn]; c != nil {
			c.onVoteRep(*m)
		}
	case *done:
		// Client notification only; the result was recorded at commit
		// time by the coordinator.
		_ = m
	}
}

func (n *node) onReadReq(m readReq) {
	v, _ := n.st.Get(m.Key)
	rep := &readRep{Txn: m.Txn, Round: m.Round, From: n.id, LastSeq: n.st.LastSeq(), Value: v}
	n.sys.send(n.id, m.From, rep)
}

// onVoteReq applies Thomas's voting rule: accept a proposal for the next
// sequence slot if this replica has not voted for a different live proposal
// on that slot; reject stale or conflicting proposals.
func (n *node) onVoteReq(m voteReq) {
	reply := func(ok bool, reason string) {
		rep := &voteRep{Txn: m.Txn, Round: m.Round, From: n.id, OK: ok, Reason: reason}
		n.sys.send(n.id, m.From, rep)
	}
	seq := m.Update.Seq
	switch {
	case m.Round <= n.aborted[m.Txn]:
		reply(false, "withdrawn")
	case seq <= n.st.LastSeq():
		reply(false, "stale")
	case seq != n.st.LastSeq()+1:
		reply(false, "future")
	default:
		if holder, ok := n.votes[seq]; ok && holder != m.Txn {
			reply(false, "slot-taken")
			return
		}
		n.votes[seq] = m.Txn
		reply(true, "")
	}
}

func (n *node) onAbort(m abortReq) {
	if m.Round > n.aborted[m.Txn] {
		n.aborted[m.Txn] = m.Round
	}
	for seq, holder := range n.votes {
		if holder == m.Txn {
			delete(n.votes, seq)
		}
	}
	n.st.Abort(m.Txn.String())
}

func (n *node) onCommitReq(m commitReq) {
	delete(n.aborted, m.Txn)
	if err := n.st.ApplyCommitted(m.Update); err == store.ErrSeqGap {
		if n.backlog == nil {
			n.backlog = make(map[uint64]store.Update)
		}
		n.backlog[m.Update.Seq] = m.Update
	}
	n.drain()
}

// drain applies backlogged commits in order and reaps the vote slots they
// settle.
func (n *node) drain() {
	for {
		if n.backlog == nil {
			break
		}
		u, ok := n.backlog[n.st.LastSeq()+1]
		if !ok {
			break
		}
		delete(n.backlog, u.Seq)
		if n.st.ApplyCommitted(u) != nil {
			break
		}
	}
	for seq := range n.votes {
		if seq <= n.st.LastSeq() {
			delete(n.votes, seq)
		}
	}
}

// onForward enqueues a forwarded request at the primary (PrimaryCopy).
func (n *node) onForward(m forward) {
	n.primQ = append(n.primQ, m)
	n.pumpPrimary()
}

// pumpPrimary serializes the primary's queue: one update at a time through
// vote/commit with the backups.
func (n *node) pumpPrimary() {
	if n.primBusy || len(n.primQ) == 0 {
		return
	}
	n.primBusy = true
	m := n.primQ[0]
	n.primQ = n.primQ[1:]
	c := n.sys.coords[m.Txn]
	if c == nil {
		n.primBusy = false
		n.pumpPrimary()
		return
	}
	c.lockAt = n.sys.eng.Now() // serialization point
	c.round++
	c.propose(n.st.LastSeq())
}
