package core

import (
	"slices"
	"time"

	"repro/internal/agent"
	"repro/internal/replica"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/trace"
)

// agentPhase tracks where an UpdateAgent is in Algorithm 1.
type agentPhase int

const (
	phaseTravelling agentPhase = iota // visiting servers off the USL
	phaseParked                       // waiting for locking lists to change
	phaseClaiming                     // UPDATE broadcast out, collecting ACKs
	phaseDone                         // committed (or failed) and disposed
)

// UpdateAgent is the mobile agent of the paper's Algorithm 1. It carries a
// Request List from its home server, travels the replicas enqueuing itself
// in their Locking Lists, accumulates a LockTable, and — once the
// fully-distributed priority calculation elects it — claims the update
// permission, applies the most recent copy, and commits everywhere.
type UpdateAgent struct {
	c       *Cluster
	reqs    []Request
	lt      *LockTable
	shards  []int            // distinct shards of the request keys, ascending
	targets []runtime.NodeID // union of those shards' replica groups, ascending

	usl []runtime.NodeID // unvisited servers
	per []targetState    // indexed like targets
	scr []runtime.NodeID // quorumOf's scratch

	phase      agentPhase
	visits     int
	retries    int
	dispatched runtime.Time
	claimStart runtime.Time
	lockVisits int // visits at the moment the winning claim started

	attempt  int // current claim attempt number
	byTie    bool
	claimTmr runtime.Timer

	retryArmed  bool   // a parked-retry timer is pending
	parkedTicks int    // consecutive fruitless retry rounds while parked
	lastRev     uint64 // lock-table revision at the previous retry round
}

// targetState is what an agent keeps about one server of its targets.
type targetState struct {
	attempts    int             // consecutive failed migrations
	unavailable bool            // declared unavailable this round
	ackOK       *replica.AckMsg // the current claim's grant
	ackNo       bool            // the current claim's refusal, or no visit to grant it
}

// at returns the agent's state about server id, or nil if id is not one
// of its targets.
func (a *UpdateAgent) at(id runtime.NodeID) *targetState {
	if i, ok := slices.BinarySearch(a.targets, id); ok {
		return &a.per[i]
	}
	return nil
}

// unavailable reports whether server id is declared unavailable this round.
func (a *UpdateAgent) unavailable(id runtime.NodeID) bool {
	t := a.at(id)
	return t != nil && t.unavailable
}

// newUpdateAgent builds an agent for a batch of requests originating at
// home. The itinerary is hash-routed: the USL initially contains every
// member of the replica groups owning the batch's shards, except home
// (which the agent visits implicitly on spawn). With one shard and full
// replication that is every replica — the paper's itinerary.
func newUpdateAgent(c *Cluster, home runtime.NodeID, reqs []Request) *UpdateAgent {
	shards := c.shardsOf(reqs)
	targets := c.groupUnion(shards)
	a := &UpdateAgent{
		c:          c,
		reqs:       reqs,
		lt:         c.lockTableFor(shards),
		shards:     shards,
		targets:    targets,
		per:        make([]targetState, len(targets)),
		dispatched: c.eng.Now(),
	}
	for _, id := range a.targets {
		if id != home {
			a.usl = append(a.usl, id)
		}
	}
	return a
}

// WireSize models the agent's serialized size: it grows with the request
// list it carries and the locking information it has accumulated — the cost
// the paper trades against message rounds.
func (a *UpdateAgent) WireSize() int {
	n := 256 + 64*len(a.reqs) + agent.GoneWireSize(a.lt.gone.Marks(), a.lt.gone.IDs())
	for i := range a.lt.snaps {
		n += 48 + 24*len(a.lt.snaps[i].Queue)
	}
	return n
}

// OnArrive implements Algorithm 1's per-site block: request the lock, update
// the data structures with server-provided information, and recalculate the
// priority.
func (a *UpdateAgent) OnArrive(ctx *agent.Context) {
	if a.phase == phaseDone {
		return
	}
	node := ctx.Node()
	a.visits++
	a.parkedTicks = 0
	a.removeFromUSL(node)
	if t := a.at(node); t != nil {
		t.attempts = 0
	}
	srv := a.c.Server(node)
	var shared []replica.QueueSnapshot
	if !a.c.cfg.DisableInfoSharing {
		shared = a.lt.lend()
	}
	info := srv.VisitAndLock(ctx.ID(), a.shards, shared, a.lt.Gone())
	a.lt.MergeInfo(info, true)
	a.phase = phaseTravelling
	a.evaluate(ctx)
}

// maxMigrateAttempts is how many failed migrations to one server an agent
// tolerates before declaring it unavailable.
const maxMigrateAttempts = 3

// OnMigrateFailed counts the unsuccessful attempt; after maxMigrateAttempts
// the replica is declared unavailable and skipped until the next retry
// round (paper §2).
func (a *UpdateAgent) OnMigrateFailed(ctx *agent.Context, dest runtime.NodeID) {
	if a.phase == phaseDone {
		return
	}
	if t := a.at(dest); t != nil {
		t.attempts++
		if t.attempts >= maxMigrateAttempts {
			t.unavailable = true
			a.removeFromUSL(dest)
			if a.c.cfg.Trace.Enabled() {
				a.c.cfg.Trace.Addf(int64(ctx.Now()), int(dest), ctx.ID().String(), trace.AgentBlocked,
					"declared unavailable after %d attempts", t.attempts)
			}
		}
	}
	a.phase = phaseTravelling
	a.evaluate(ctx)
}

// OnMessage handles ACK/NACK replies to the agent's UPDATE broadcast.
func (a *UpdateAgent) OnMessage(ctx *agent.Context, from runtime.NodeID, payload any) {
	ack, ok := payload.(*replica.AckMsg)
	if !ok || ack.Txn != ctx.ID() {
		return
	}
	if a.phase != phaseClaiming || ack.Attempt != a.attempt {
		// A stray OK from an already-abandoned claim leaves a grant
		// dangling at the sender; release it. The abort names only the
		// stale attempt so it cannot touch a grant this agent has since
		// re-acquired with a newer claim.
		if ack.OK && a.phase != phaseDone {
			m := &replica.AbortMsg{Txn: ctx.ID(), Attempt: ack.Attempt}
			ctx.Send(ack.From, m)
		}
		return
	}
	a.handleAck(ctx, ack)
}

// OnLocalEvent reacts to the co-located server's locking-list change
// notifications while the agent is parked.
func (a *UpdateAgent) OnLocalEvent(ctx *agent.Context, ev any) {
	if _, ok := ev.(replica.LLChanged); !ok || a.phase != phaseParked {
		return
	}
	a.refreshLocal(ctx)
	a.evaluate(ctx)
}

// refreshLocal re-reads the co-located server's lock information.
func (a *UpdateAgent) refreshLocal(ctx *agent.Context) {
	a.lt.MergeInfo(a.c.Server(ctx.Node()).RefreshInfo(a.shards), false)
}

func (a *UpdateAgent) removeFromUSL(node runtime.NodeID) {
	for i, id := range a.usl {
		if id == node {
			a.usl = append(a.usl[:i], a.usl[i+1:]...)
			return
		}
	}
}

// evaluate is the heart of Algorithm 1's loop: calculate the priority from
// the LockTable; claim if this agent wins; otherwise keep travelling while
// the USL is non-empty, or park and wait for the locking lists to change.
func (a *UpdateAgent) evaluate(ctx *agent.Context) {
	if a.phase == phaseClaiming || a.phase == phaseDone {
		return
	}
	// Only servers that queued the agent can grant it: a tie won on shared
	// snapshots before it is queued at a write quorum travels on.
	d := a.lt.Decide(ctx.ID())
	if d.Found && d.Winner == ctx.ID() && a.quorumOf(a.lt.Visited) {
		a.startClaim(ctx, d)
		return
	}
	// Re-enqueue at servers that lost our entry in a crash.
	for _, node := range a.lt.NeedRevisit(ctx.ID()) {
		if node != ctx.Node() && !a.inUSL(node) && !a.unavailable(node) {
			a.usl = append(a.usl, node)
		}
	}
	if next, ok := a.nextStop(ctx); ok {
		a.phase = phaseTravelling
		ctx.MigrateTo(next)
		return
	}
	a.park(ctx)
}

func (a *UpdateAgent) inUSL(node runtime.NodeID) bool {
	for _, id := range a.usl {
		if id == node {
			return true
		}
	}
	return false
}

// nextStop picks the next server to visit: the cheapest-to-reach unvisited
// server per the routing information (paper §3.2), or a uniformly random one
// under the RandomItinerary ablation.
func (a *UpdateAgent) nextStop(ctx *agent.Context) (runtime.NodeID, bool) {
	candidate := func(id runtime.NodeID) bool { return !a.unavailable(id) && id != ctx.Node() }
	n := 0
	for _, id := range a.usl {
		if candidate(id) {
			n++
		}
	}
	if n == 0 {
		return runtime.None, false
	}
	if a.c.cfg.RandomItinerary {
		k := ctx.Rand().Intn(n)
		for _, id := range a.usl {
			if candidate(id) {
				if k == 0 {
					return id, true
				}
				k--
			}
		}
	}
	best, bestCost := runtime.None, 0.0
	for _, id := range a.usl {
		if !candidate(id) {
			continue
		}
		if c := ctx.Cost(id); best == runtime.None || c < bestCost || (c == bestCost && id < best) {
			best, bestCost = id, c
		}
	}
	return best, true
}

// park waits at the current server for locking-list changes, with a
// periodic retry that re-probes unavailable servers (the paper's "next
// round of request").
func (a *UpdateAgent) park(ctx *agent.Context) {
	a.phase = phaseParked
	if tr := a.c.cfg.Trace; tr.Enabled() {
		tr.Addf(int64(ctx.Now()), int(ctx.Node()), ctx.ID().String(), trace.AgentParked,
			"tops=%d", a.lt.Decide(ctx.ID()).SelfTops)
	}
	a.armRetry(ctx)
}

// armRetry schedules (at most one) parked-retry round.
func (a *UpdateAgent) armRetry(ctx *agent.Context) {
	if a.retryArmed {
		return
	}
	a.retryArmed = true
	ctx.After(a.c.cfg.RetryInterval, func() {
		a.retryArmed = false
		if a.phase != phaseParked {
			return
		}
		// Only rounds in which nothing changed anywhere count as
		// fruitless: any lock-table mutation resets the clock.
		a.refreshLocal(ctx)
		if a.lt.Rev() != a.lastRev {
			a.lastRev = a.lt.Rev()
			a.parkedTicks = 0
		} else {
			a.parkedTicks++
		}
		// Desperation: with unreachable replicas or divergent views the
		// paper's priority rule can stay inconclusive forever (no agent
		// can prove a majority and the tie condition never triggers).
		// After two genuinely stagnant rounds the agent claims anyway;
		// the servers' grant exclusivity arbitrates safely (DESIGN.md,
		// fortification). Only once the servers that queued it could
		// grant a write quorum: until then it starts a new round.
		if a.parkedTicks >= 2 && a.quorumOf(a.lt.Visited) {
			a.parkedTicks = 0
			a.startClaim(ctx, Decision{Found: true, Winner: ctx.ID(), ByTie: true})
			return
		}
		// New round: forgive unavailable servers and revisit anything
		// we are not enqueued at.
		for i, id := range a.targets {
			if !a.per[i].unavailable {
				continue
			}
			a.per[i].unavailable = false
			a.per[i].attempts = 0
			if !a.lt.Visited(id) && !a.inUSL(id) && id != ctx.Node() {
				a.usl = append(a.usl, id)
			}
		}
		a.evaluate(ctx)
		if a.phase == phaseParked {
			a.armRetry(ctx)
		}
	})
}

// startClaim sends the UPDATE to the servers this agent visited and begins
// collecting acknowledgements. The paper (§3.1) broadcasts it "to all the
// replicas", but a server grants only a claimant it has queued, so every
// other target counts as having refused at once.
func (a *UpdateAgent) startClaim(ctx *agent.Context, d Decision) {
	a.phase = phaseClaiming
	a.parkedTicks = 0
	a.attempt++
	a.byTie = d.ByTie
	a.claimStart = ctx.Now()
	a.lockVisits = a.visits
	if tr := a.c.cfg.Trace; tr.Enabled() {
		if d.ByTie {
			tr.Addf(int64(ctx.Now()), int(ctx.Node()), ctx.ID().String(), trace.TieBreak,
				"won tie with %d tops", d.TopCount)
		}
		tr.Addf(int64(ctx.Now()), int(ctx.Node()), ctx.ID().String(), trace.ClaimStarted,
			"attempt %d, tie=%v", a.attempt, d.ByTie)
	}

	keys := a.keys()
	m := &replica.UpdateMsg{
		Txn:     ctx.ID(),
		Attempt: a.attempt,
		Origin:  ctx.Node(),
		Keys:    keys,
		Shards:  a.shards,
		ByTie:   d.ByTie,
	}
	if d.ByTie {
		m.Evidence = a.lt.Evidence()
	}
	for i, id := range a.targets {
		a.per[i].ackOK, a.per[i].ackNo = nil, !a.lt.Visited(id)
	}
	// The co-located server answers at memory speed, before any UPDATE
	// leaves: if its answer settles the claim, none need go (and no ABORT
	// races an UPDATE to the same server).
	a.handleAck(ctx, a.c.Server(ctx.Node()).HandleUpdateLocal(m))
	if a.phase != phaseClaiming {
		return
	}
	for _, id := range a.targets {
		if id != ctx.Node() && a.lt.Visited(id) {
			ctx.Send(id, m)
		}
	}
	if a.c.cfg.Trace.Enabled() {
		a.c.cfg.Trace.Addf(int64(ctx.Now()), int(ctx.Node()), ctx.ID().String(), trace.UpdateSent,
			"%d keys", len(keys))
	}
	a.claimTmr = ctx.After(a.c.cfg.ClaimTimeout, func() {
		if a.phase != phaseClaiming {
			return
		}
		// Servers that never answered are suspected down: whatever this
		// agent believed about their locking lists is what led to the
		// futile claim, so forget it and re-learn.
		for i, id := range a.targets {
			if a.per[i].ackOK == nil && !a.per[i].ackNo {
				a.lt.Forget(id)
			}
		}
		a.abortClaim(ctx, "timeout")
	})
}

// keys returns the distinct keys of the request list, in first-seen order.
func (a *UpdateAgent) keys() []string {
	out := make([]string, 0, len(a.reqs))
	for _, r := range a.reqs {
		if !slices.Contains(out, r.Key) {
			out = append(out, r.Key)
		}
	}
	return out
}

// handleAck folds one acknowledgement into the claim. A write quorum of
// OKs on every claimed shard wins (a majority of the votes, under the
// default geometry); once that has become arithmetically impossible on any
// shard the claim is withdrawn.
func (a *UpdateAgent) handleAck(ctx *agent.Context, ack *replica.AckMsg) {
	// Only a target can grant: a server replicating none of the claimed
	// shards refuses, and counts for no quorum.
	if t := a.at(ack.From); t != nil {
		if ack.OK {
			t.ackOK = ack
		} else {
			t.ackNo = true
		}
	}
	if !ack.OK && ack.Info != nil {
		a.lt.MergeInfo(*ack.Info, false)
	}
	if a.quorumOf(func(id runtime.NodeID) bool { return a.at(id).ackOK != nil }) {
		a.finishWin(ctx)
		return
	}
	if !a.quorumOf(func(id runtime.NodeID) bool { t := a.at(id); return t.ackOK != nil || !t.ackNo }) {
		a.abortClaim(ctx, "majority impossible")
	}
}

// quorumOf reports whether, on every shard the agent claims, the group
// members for which in holds form a write quorum. Every group member is one
// of the agent's targets.
func (a *UpdateAgent) quorumOf(in func(runtime.NodeID) bool) bool {
	for _, shrd := range a.shards {
		ids := a.scr[:0]
		for _, id := range a.c.groups[shrd] {
			if in(id) {
				ids = append(ids, id)
			}
		}
		a.scr = ids
		if !a.c.assigns[shrd].HasWrite(ids) {
			return false
		}
	}
	return true
}

// finishWin applies the paper's commit step: determine the most recent copy
// from the quorum's replies, produce the updates in request order, multicast
// COMMIT to all replicas, release the lock, and dispose. A home that is a
// COMMIT target hosted by another process gets its COMMIT inside the
// outcome report it is sent anyway (OutcomeMsg), not as a message of its
// own.
func (a *UpdateAgent) finishWin(ctx *agent.Context) {
	a.claimTmr.Cancel()
	// Most recent copy per key — and committed horizon per shard, parallel
	// to a.shards — across the acknowledging quorum. Sequence numbers are
	// per shard: commits on one shard never reorder against another (the
	// shard-isolation invariant).
	latest := make([]replica.KeyValue, 0, len(a.reqs)) // ascending by key
	baseSeq := make([]uint64, len(a.shards))
	for i := range a.per {
		ack := a.per[i].ackOK
		if ack == nil {
			continue
		}
		for j, seq := range ack.ShardSeqs {
			if j < len(baseSeq) && seq > baseSeq[j] {
				baseSeq[j] = seq
			}
		}
		for _, kv := range ack.Values {
			if k, ok := replica.SearchValues(latest, kv.Key); !ok {
				latest = slices.Insert(latest, k, kv)
			} else if latest[k].Value.Version.Less(kv.Value.Version) {
				latest[k].Value = kv.Value
			}
		}
	}
	now := int64(ctx.Now())
	txn := ctx.ID().String()
	updates := make([]store.Update, 0, len(a.reqs))
	written := make([]uint64, len(a.shards))
	for _, r := range a.reqs {
		k, found := replica.SearchValues(latest, r.Key)
		data := r.Arg
		if r.Op == OpAppend && found {
			data = latest[k].Value.Data + r.Arg
		}
		j, _ := slices.BinarySearch(a.shards, shard.Of(r.Key, a.c.shards))
		written[j]++
		u := store.Update{
			TxnID: txn,
			Key:   r.Key,
			Data:  data,
			Seq:   baseSeq[j] + written[j],
			Stamp: now,
		}
		v := store.Value{Data: data, Version: store.Version{Seq: u.Seq, Stamp: now, Writer: txn}}
		if found {
			latest[k].Value = v
		} else {
			latest = slices.Insert(latest, k, replica.KeyValue{Key: r.Key, Value: v})
		}
		updates = append(updates, u)
	}
	commit := &replica.CommitMsg{Txn: ctx.ID(), Origin: ctx.Node(), Updates: updates}
	home := ctx.ID().Home
	var carried *replica.CommitMsg
	if home != ctx.Node() && !a.c.local[home] && a.at(home) != nil {
		carried = commit
	}
	for _, id := range a.targets {
		if id == ctx.Node() || (carried != nil && id == home) {
			continue
		}
		ctx.Send(id, commit)
	}
	a.c.Server(ctx.Node()).HandleCommitLocal(commit)
	if a.c.cfg.Trace.Enabled() {
		a.c.cfg.Trace.Addf(int64(ctx.Now()), int(ctx.Node()), ctx.ID().String(), trace.CommitSent,
			"seq %d..%d", baseSeq[0]+1, baseSeq[0]+written[0])
	}

	a.phase = phaseDone
	a.c.finish(ctx.Node(), Outcome{
		Agent:      ctx.ID(),
		Home:       home,
		Requests:   len(a.reqs),
		Dispatched: a.dispatched,
		LockAt:     a.claimStart,
		DoneAt:     ctx.Now(),
		Visits:     a.lockVisits,
		ByTie:      a.byTie,
		Retries:    a.retries,
		Shards:     a.shards,
	}, carried)
	ctx.Dispose()
}

// abortClaim withdraws the UPDATE claim, releasing any grants, and retries
// after a randomized backoff (fresh NACK information usually changes the
// next decision). Only a server the claim went to can hold a grant.
func (a *UpdateAgent) abortClaim(ctx *agent.Context, reason string) {
	a.claimTmr.Cancel()
	a.retries++
	m := &replica.AbortMsg{Txn: ctx.ID(), Attempt: a.attempt}
	for _, id := range a.targets {
		if id == ctx.Node() || !a.lt.Visited(id) {
			continue
		}
		ctx.Send(id, m)
	}
	a.c.Server(ctx.Node()).HandleAbortLocal(m)
	if a.c.cfg.Trace.Enabled() {
		a.c.cfg.Trace.Addf(int64(ctx.Now()), int(ctx.Node()), ctx.ID().String(), trace.ClaimAborted,
			"%s (attempt %d)", reason, a.attempt)
	}
	a.phase = phaseParked
	backoff := a.c.cfg.RetryBackoff/2 + time.Duration(ctx.Rand().Int63n(int64(a.c.cfg.RetryBackoff)))
	ctx.After(backoff, func() {
		if a.phase != phaseParked {
			return
		}
		a.refreshLocal(ctx)
		a.evaluate(ctx)
	})
}
