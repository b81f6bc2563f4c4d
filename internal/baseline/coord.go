package baseline

import (
	"time"

	"repro/internal/des"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/trace"
)

type coordPhase int

const (
	coordReading coordPhase = iota
	coordVoting
	coordDone
)

// coord is a stationary per-request coordinator. For MCV and AvailableCopy
// it runs at the request's home node and drives Thomas-style rounds (read
// horizon / vote / commit); for PrimaryCopy it is seated at the primary,
// which serializes requests locally and skips the read round.
type coord struct {
	sys  *System
	txn  TxnID
	home simnet.NodeID
	seat simnet.NodeID
	key  string
	val  string

	phase      coordPhase
	round      int
	dispatched des.Time
	lockAt     des.Time
	retries    int
	reads      map[simnet.NodeID]readRep
	votes      map[simnet.NodeID]bool
	rejects    map[simnet.NodeID]bool
	update     store.Update
	timer      des.Timer
}

// quorum returns how many replies the protocol requires per round.
func (c *coord) quorum() int {
	if c.sys.cfg.Kind == AvailableCopy {
		return c.sys.cfg.N // write-all
	}
	return c.sys.cfg.N/2 + 1 // majority
}

func (c *coord) start() {
	if c.sys.cfg.Kind == PrimaryCopy {
		c.seat = c.sys.cfg.Primary
		f := &forward{Txn: c.txn, From: c.home, Key: c.key, Val: c.val}
		c.sys.send(c.home, c.seat, f)
		return
	}
	c.seat = c.home
	c.beginRound()
}

// beginRound starts (or restarts) the read round and arms the stall timer.
func (c *coord) beginRound() {
	c.phase = coordReading
	c.round++
	c.reads = make(map[simnet.NodeID]readRep)
	for _, id := range c.sys.ids {
		m := &readReq{Txn: c.txn, Round: c.round, From: c.seat, Key: c.key}
		c.sys.send(c.seat, id, m)
	}
	round := c.round
	c.timer = c.sys.sim.After(c.sys.cfg.LockTimeout, func() {
		if c.phase == coordDone || c.round != round {
			return
		}
		c.retries++
		c.sys.cfg.Trace.Addf(int64(c.sys.sim.Now()), int(c.seat), c.txn.String(),
			trace.ClaimAborted, "round %d timed out (retry %d)", c.round, c.retries)
		c.abortAndRetry()
	})
}

// abortAndRetry withdraws the proposal everywhere and restarts after a
// randomized exponential backoff — under heavy write contention (especially
// for write-all AvailableCopy, whose unanimity requirement makes every
// concurrent proposal a conflict) the growing backoff is what spreads the
// competitors out enough for someone to win.
func (c *coord) abortAndRetry() {
	c.timer.Cancel()
	for _, id := range c.sys.ids {
		m := &abortReq{Txn: c.txn, Round: c.round, From: c.seat}
		c.sys.send(c.seat, id, m)
	}
	shift := c.retries
	if shift > 10 {
		shift = 10
	}
	window := c.sys.cfg.RetryBackoff << uint(shift)
	backoff := c.sys.cfg.RetryBackoff/2 +
		time.Duration(c.sys.sim.Rand().Int63n(int64(window)))
	// Invalidate the aborted round so straggler replies cannot reactivate
	// the coordinator before the backoff elapses.
	c.round++
	c.phase = coordReading
	c.reads = make(map[simnet.NodeID]readRep)
	c.sys.sim.After(backoff, c.beginRound)
}

func (c *coord) onReadRep(r readRep) {
	if c.phase != coordReading || r.Round != c.round {
		return
	}
	c.reads[r.From] = r
	if len(c.reads) < c.quorum() {
		return
	}
	var base uint64
	for _, rr := range c.reads {
		if rr.LastSeq > base {
			base = rr.LastSeq
		}
	}
	c.propose(base)
}

// propose broadcasts the vote round for sequence slot base+1.
func (c *coord) propose(base uint64) {
	c.phase = coordVoting
	c.votes = make(map[simnet.NodeID]bool)
	c.rejects = make(map[simnet.NodeID]bool)
	c.update = store.Update{
		TxnID: c.txn.String(),
		Key:   c.key,
		Data:  c.val,
		Seq:   base + 1,
		Stamp: int64(c.sys.sim.Now()),
	}
	for _, id := range c.sys.ids {
		m := &voteReq{Txn: c.txn, Round: c.round, From: c.seat, Update: c.update}
		c.sys.send(c.seat, id, m)
	}
	c.sys.cfg.Trace.Addf(int64(c.sys.sim.Now()), int(c.seat), c.txn.String(), trace.UpdateSent,
		"proposed seq %d (round %d)", c.update.Seq, c.round)
}

func (c *coord) onVoteRep(v voteRep) {
	if c.phase != coordVoting || v.Round != c.round {
		return
	}
	if !v.OK {
		c.rejects[v.From] = true
		// A majority is impossible once enough replicas rejected.
		if c.sys.cfg.N-len(c.rejects) < c.quorum() {
			c.retries++
			c.sys.cfg.Trace.Addf(int64(c.sys.sim.Now()), int(c.seat), c.txn.String(),
				trace.ClaimAborted, "proposal for seq %d rejected (retry %d)", c.update.Seq, c.retries)
			c.abortAndRetry()
		}
		return
	}
	c.votes[v.From] = true
	if len(c.votes) < c.quorum() {
		return
	}
	c.timer.Cancel()
	if c.sys.cfg.Kind != PrimaryCopy {
		c.lockAt = c.sys.sim.Now()
	}
	c.sys.cfg.Trace.Addf(int64(c.sys.sim.Now()), int(c.seat), c.txn.String(),
		trace.LockRequested, "vote quorum of %d for seq %d", len(c.votes), c.update.Seq)
	c.commit()
}

// commit finalizes the update everywhere and completes the request.
func (c *coord) commit() {
	c.phase = coordDone
	now := c.sys.sim.Now()
	for _, id := range c.sys.ids {
		m := &commitReq{Txn: c.txn, From: c.seat, Update: c.update}
		c.sys.send(c.seat, id, m)
	}
	c.sys.cfg.Trace.Addf(int64(now), int(c.seat), c.txn.String(), trace.CommitSent, "seq %d", c.update.Seq)
	if c.sys.cfg.Kind == PrimaryCopy {
		if c.home != c.seat {
			m := &done{Txn: c.txn, From: c.seat, LockAt: c.lockAt}
			c.sys.send(c.seat, c.home, m)
		}
		// Free the primary for the next queued request.
		prim := c.sys.nodes[c.seat]
		prim.primBusy = false
		c.sys.sim.After(0, prim.pumpPrimary)
	}
	c.sys.finish(Result{
		Txn:        c.txn,
		Home:       c.home,
		Dispatched: c.dispatched,
		LockAt:     c.lockAt,
		DoneAt:     now,
		Retries:    c.retries,
	})
}
