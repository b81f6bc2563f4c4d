package optimistic

import (
	"fmt"
	"sort"

	"repro/internal/durable"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/store"
)

// replica is one optimistic replica's protocol state. Like the pessimistic
// Server it is single-threaded: the engine's execution context (simulation
// loop or live actor goroutine) drives every method.
type replica struct {
	c    *Cluster
	id   runtime.NodeID
	down bool

	clock int64    // Lamport clock; stamps submits, merges on receive
	oseq  []uint64 // per shard: own actions issued (contiguous, 1-based)

	st []*store.Staged // per shard: the two-tier store

	// hist[s][o-1] is the contiguously delivered prefix of origin o's
	// actions on shard s, in OSeq order — simultaneously the delivery
	// counter (its length), the evidence behind the stability frontier,
	// the only copy of each action's constraints (held finds it by the
	// (origin, oseq) a TxnID encodes) and the cargo itself: pickCarry hands
	// out segments. Hence append-only between crashes, no entry ever
	// written twice, and restore installs fresh slices, never edits these.
	hist [][][]Action
	// hold[s][o] parks out-of-order arrivals until the gap fills.
	hold []map[runtime.NodeID]map[uint64]Action

	// know holds the freshest self-report seen from each other origin
	// (newest-clock-wins); satisfied[s][o-1] caches the highest clock of
	// o's reports this replica has fully covered by deliveries — monotone,
	// so a newer-but-not-yet-covered report never regresses the frontier.
	know      map[runtime.NodeID]KnowEntry
	satisfied [][]int64

	journal *durable.OptJournal
	launch  uint64 // reconciliation agents launched (agent Seq)
	aborted uint64 // election losers discarded here
}

func newReplica(c *Cluster, id runtime.NodeID) *replica {
	r := &replica{
		c:    c,
		id:   id,
		oseq: make([]uint64, c.cfg.Shards),
		know: make(map[runtime.NodeID]KnowEntry),
	}
	r.resetVolatile()
	return r
}

// resetVolatile (re)builds every structure a crash erases.
func (r *replica) resetVolatile() {
	sh, n := r.c.cfg.Shards, r.c.cfg.N
	r.clock = 0
	r.oseq = make([]uint64, sh)
	r.st = make([]*store.Staged, sh)
	r.hist = make([][][]Action, sh)
	r.hold = make([]map[runtime.NodeID]map[uint64]Action, sh)
	r.satisfied = make([][]int64, sh)
	for s := 0; s < sh; s++ {
		r.st[s] = store.NewStaged()
		r.hist[s] = make([][]Action, n)
		r.hold[s] = make(map[runtime.NodeID]map[uint64]Action)
		r.satisfied[s] = make([]int64, n)
	}
	r.know = make(map[runtime.NodeID]KnowEntry)
}

func recordOf(a *Action) durable.OptRecord {
	return durable.OptRecord{U: a.Update(), Guard: a.Guard, Deps: a.Deps}
}

// actionOf reverses recordOf: the identity fields come back out of the
// canonical TxnID encoding, and the journal's string is the identity.
func actionOf(rec durable.OptRecord) (Action, error) {
	origin, s, oseq, err := ParseTxnID(rec.U.TxnID)
	if err != nil {
		return Action{}, err
	}
	return Action{
		Origin: origin, OSeq: oseq, Shard: s, Stamp: rec.U.Stamp,
		Key: rec.U.Key, Data: rec.U.Data, Guard: rec.Guard, Deps: rec.Deps,
		txn: rec.U.TxnID,
	}, nil
}

// held returns the delivered action txn names on shard s; nil if it is not
// delivered here (or txn is no canonical ID).
func (r *replica) held(s int, txn string) *Action {
	origin, shrd, oseq, err := ParseTxnID(txn)
	if err != nil || shrd != s || origin < 1 || int(origin) > len(r.hist[s]) ||
		oseq == 0 || oseq > uint64(len(r.hist[s][origin-1])) {
		return nil
	}
	return &r.hist[s][origin-1][oseq-1]
}

// staged is held for a TxnID the store handed back: everything staged was
// delivered, so a miss is a bug.
func (r *replica) staged(s int, txn string) *Action {
	a := r.held(s, txn)
	if a == nil {
		panic(fmt.Sprintf("optimistic: node %d: no history for %s", r.id, txn))
	}
	return a
}

// submit commits a new action tentatively: stamp it, stage it, journal it
// behind the own-tentative barrier. The client's answer does not wait for
// anything wide-area — this call IS the optimistic protocol's ALT.
func (r *replica) submit(key, data, guard string) (Action, error) {
	if r.down {
		return Action{}, fmt.Errorf("optimistic: node %d is down", r.id)
	}
	s := shard.Of(key, r.c.cfg.Shards)
	if r.oseq[s] >= maxTxnOSeq {
		return Action{}, fmt.Errorf("optimistic: node %d shard %d: out of action sequence numbers", r.id, s)
	}
	r.clock++
	r.oseq[s]++
	// The notAfter edges: every same-key tentative this replica has staged
	// must order before the new action, which Lamport stamping guarantees.
	a := Action{
		Origin: r.id, OSeq: r.oseq[s], Shard: s, Stamp: r.clock,
		Key: key, Data: data, Guard: guard, Deps: r.st[s].TentativeWriters(key),
	}.identified()
	r.accept(&a)
	return a, nil
}

// deliver ingests a foreign action, enforcing contiguous per-(shard,
// origin) delivery: duplicates drop, gaps park in the holdback until the
// missing OSeq arrives. Contiguity is what makes the delivery counters
// valid stability evidence. a is the agent's (under simulation, the packing
// host's history's): read it, copy what is kept.
func (r *replica) deliver(a *Action) {
	if a.Origin == r.id {
		r.c.mRedundant.Inc()
		return // own actions are never re-learned from peers
	}
	if a.Shard < 0 || a.Shard >= r.c.cfg.Shards || a.Origin < 1 || int(a.Origin) > r.c.cfg.N {
		return // malformed; ignore like any corrupt datagram
	}
	s, o := a.Shard, int(a.Origin)-1
	have := uint64(len(r.hist[s][o]))
	switch {
	case a.OSeq <= have:
		r.c.mRedundant.Inc()
		return
	case a.OSeq > have+1:
		hb := r.hold[s][a.Origin]
		if hb == nil {
			hb = make(map[uint64]Action)
			r.hold[s][a.Origin] = hb
		}
		hb[a.OSeq] = *a
		return
	}
	r.accept(a)
	hb := r.hold[s][a.Origin]
	for {
		next := uint64(len(r.hist[s][o])) + 1
		na, ok := hb[next]
		if !ok {
			return
		}
		delete(hb, next)
		r.accept(&na)
	}
}

// accept stages an in-order action: Lamport merge, history append, overlay
// insertion, journal. Own actions journal behind the advertisement barrier
// (see durable.OptJournal.Tentative); foreign ones are re-fetchable and
// need no barrier.
func (r *replica) accept(a *Action) {
	s := a.Shard
	if a.Stamp > r.clock {
		r.clock = a.Stamp
	}
	// Debug assert on the constraint graph: every notAfter edge this
	// replica has delivered must sort strictly before the action in the
	// candidate order. Lamport stamping makes this a theorem; a violation
	// is a protocol bug, and under simulation the panic is the oracle.
	au := a.Update()
	for _, dep := range a.Deps {
		if da := r.held(s, dep); da != nil && !store.StagedLess(da.Update(), au) {
			panic(fmt.Sprintf("optimistic: node %d: %s carries notAfter dep %s that does not precede it", r.id, au.TxnID, dep))
		}
	}
	r.hist[s][a.Origin-1] = append(r.hist[s][a.Origin-1], *a)
	if _, err := r.st[s].Stage(au); err != nil {
		panic(fmt.Sprintf("optimistic: node %d: %v", r.id, err))
	}
	if r.journal != nil {
		r.journal.Tentative(recordOf(a), a.Origin == r.id)
	}
}

// bound computes shard s's stability frontier: the highest Lamport clock B
// such that this replica provably holds every action any origin stamped at
// or below B. Zero (promote nothing) until every origin has reported.
func (r *replica) bound(s int) int64 {
	b := int64(-1)
	for o := 1; o <= r.c.cfg.N; o++ {
		var sat int64
		if runtime.NodeID(o) == r.id {
			sat = r.clock // every own action is held, by definition
		} else {
			k, ok := r.know[runtime.NodeID(o)]
			if !ok {
				return 0
			}
			if s < len(k.Counts) && uint64(len(r.hist[s][o-1])) >= k.Counts[s] && k.Clock > r.satisfied[s][o-1] {
				r.satisfied[s][o-1] = k.Clock
			}
			sat = r.satisfied[s][o-1]
		}
		if b < 0 || sat < b {
			b = sat
		}
	}
	if b < 0 {
		b = 0
	}
	return b
}

// guardFn evaluates CAS constraints against the stable state as the
// election applies the batch — deterministic at every replica because both
// the stable state and the batch order are.
func (r *replica) guardFn(s int) func(store.Update) bool {
	return func(u store.Update) bool {
		switch g := r.staged(s, u.TxnID).Guard; g {
		case "":
			return true
		case GuardUnwritten:
			return r.st[s].StableWriter(u.Key) == ""
		default:
			return r.st[s].StableWriter(u.Key) == g
		}
	}
}

// tryPromote runs the election on every shard whose frontier has advanced,
// promoting the candidate prefix into the stable log and aborting guard
// losers. Stable promotions journal behind a commit barrier (invariant 15).
func (r *replica) tryPromote() {
	now := r.c.eng.Now()
	for s := range r.st {
		b := r.bound(s)
		if b <= 0 {
			continue
		}
		promoted, aborted := r.st[s].PromoteUpTo(b, r.guardFn(s))
		for _, u := range promoted {
			if r.journal != nil {
				a := r.staged(s, u.TxnID)
				r.journal.Stable(durable.OptRecord{U: u, Guard: a.Guard, Deps: a.Deps})
			}
			r.c.noteStable(r.id, u.TxnID, now)
		}
		for _, u := range aborted {
			if r.journal != nil {
				r.journal.Abort(u.TxnID)
			}
			r.aborted++
			r.c.noteAborted(r.id, u.TxnID)
		}
	}
}

// selfKnow builds this replica's fresh self-report. The clock high-water
// barrier runs first: nothing may advertise a clock the journal could
// forget.
func (r *replica) selfKnow() KnowEntry {
	if r.journal != nil {
		r.journal.Clock(r.clock)
	}
	counts := make([]uint64, len(r.oseq))
	copy(counts, r.oseq)
	have := make([][]uint64, r.c.cfg.Shards)
	for s := range have {
		row := make([]uint64, r.c.cfg.N)
		for o := 0; o < r.c.cfg.N; o++ {
			row[o] = uint64(len(r.hist[s][o]))
		}
		have[s] = row
	}
	return KnowEntry{Node: r.id, Clock: r.clock, Counts: counts, Have: have}
}

// knowSnapshot is the knowledge table an agent departs with: the fresh
// self-report plus the freshest report held for every other origin, in
// deterministic node order. Entries are shared, never copied — they are
// immutable by convention (see KnowEntry).
func (r *replica) knowSnapshot() []KnowEntry {
	out := make([]KnowEntry, 0, r.c.cfg.N)
	out = append(out, r.selfKnow())
	for o := 1; o <= r.c.cfg.N; o++ {
		id := runtime.NodeID(o)
		if id == r.id {
			continue
		}
		if k, ok := r.know[id]; ok {
			out = append(out, k)
		}
	}
	return out
}

// pickCarry packs the actions the next hop is estimated to be missing,
// judged from its freshest self-report (everything, if it has never
// reported). A node's own actions are never carried back to it — it holds
// them durably by the submit barrier. Estimates can be stale both ways:
// over-delivery is dropped idempotently, under-delivery heals next round.
// The cargo is the history's own segments, capacity cut to length so that
// nobody can append into the history.
func (r *replica) pickCarry(to runtime.NodeID) [][]Action {
	est, known := r.know[to]
	var carry [][]Action
	room := r.c.cfg.MaxCarry
	for s := 0; s < r.c.cfg.Shards; s++ {
		for o := 0; o < r.c.cfg.N; o++ {
			if runtime.NodeID(o+1) == to {
				continue
			}
			var from uint64
			if known && s < len(est.Have) && o < len(est.Have[s]) {
				from = est.Have[s][o]
			}
			list := r.hist[s][o]
			if from >= uint64(len(list)) {
				continue
			}
			end := min(len(list), int(from)+room)
			if carry == nil {
				carry = make([][]Action, 0, r.c.cfg.N-1)
			}
			carry = append(carry, list[from:end:end])
			if room -= end - int(from); room == 0 {
				return carry
			}
		}
	}
	return carry
}

// launchGossip starts one reconciliation agent on the ring itinerary.
func (r *replica) launchGossip() {
	if r.down || r.c.cfg.N < 2 {
		return
	}
	hops := ring(r.id, r.c.cfg.N)
	ag := &Recon{
		From: r.id, Seq: r.launch, Hops: hops, Hop: 0,
		Know: r.knowSnapshot(), Carry: r.pickCarry(hops[0]),
	}
	r.launch++
	r.c.mAgents.Inc()
	r.c.send(r.id, hops[0], ag)
}

// onRecon hosts a visiting reconciliation agent: merge its knowledge,
// deliver its cargo, run the election, and — unless this was the last hop —
// re-pack a NEW agent for the next hop. The received agent is never
// mutated or resent, so a fault model that duplicates the migration merely
// spawns a second, equally idempotent agent.
func (r *replica) onRecon(ag *Recon) {
	if r.down {
		return
	}
	for _, e := range ag.Know {
		if e.Node == r.id {
			continue // nobody knows this replica better than itself
		}
		if cur, ok := r.know[e.Node]; !ok || e.Clock > cur.Clock {
			r.know[e.Node] = e
		}
		if e.Clock > r.clock {
			r.clock = e.Clock // Lamport merge: future submits stamp above
		}
	}
	for _, run := range ag.Carry {
		r.c.mCarried.Add(uint64(len(run)))
		for i := range run {
			r.deliver(&run[i])
		}
	}
	r.tryPromote()
	r.c.mHops.Inc()
	next := ag.Hop + 1
	if next >= len(ag.Hops) {
		return // itinerary complete; the agent dies here
	}
	to := ag.Hops[next]
	fwd := &Recon{
		From: ag.From, Seq: ag.Seq, Hops: ag.Hops, Hop: next,
		Know: r.knowSnapshot(), Carry: r.pickCarry(to),
	}
	r.c.send(r.id, to, fwd)
}

// crash fail-stops the replica: volatile state is abandoned (restore
// rebuilds from the journal), the journal handle dies un-synced.
func (r *replica) crash() {
	r.down = true
	if r.journal != nil {
		r.journal.Kill()
		r.journal = nil
	}
}

// restore rebuilds the replica from its replayed journal state. The
// invariants it relies on: the journal's record order preserves the stable
// prefix order; own-tentative barriers make the own history exact; foreign
// histories may have lost a suffix (re-fetched from peers after the fresh
// self-report advertises the decreased delivery vector); ClockHi rides
// above any clock ever advertised.
func (r *replica) restore(st *durable.OptState) error {
	r.resetVolatile()
	if st == nil {
		return nil
	}
	r.clock = st.ClockHi
	// Every surviving action, whatever its fate, re-enters the history so
	// the delivery counters and gossip carry see it.
	byOrigin := make(map[[2]int][]Action) // (shard, origin) -> actions
	note := func(rec durable.OptRecord) (Action, error) {
		a, err := actionOf(rec)
		if err != nil {
			return Action{}, err
		}
		if a.Stamp > r.clock {
			r.clock = a.Stamp
		}
		k := [2]int{a.Shard, int(a.Origin)}
		byOrigin[k] = append(byOrigin[k], a)
		return a, nil
	}
	for _, rec := range st.Stable {
		a, err := note(rec)
		if err != nil {
			return err
		}
		if err := r.st[a.Shard].RestoreStable(rec.U); err != nil {
			return fmt.Errorf("optimistic: node %d: %w", r.id, err)
		}
	}
	// Overlay entries re-stage in candidate order (the journal holds them
	// in arrival order); aborted ones only rejoin the history.
	overlay := make([]Action, 0, len(st.Overlay))
	for _, rec := range st.Overlay {
		a, err := note(rec)
		if err != nil {
			return err
		}
		overlay = append(overlay, a)
	}
	sortActions(overlay)
	for _, a := range overlay {
		if _, err := r.st[a.Shard].Stage(a.Update()); err != nil {
			return fmt.Errorf("optimistic: node %d: %w", r.id, err)
		}
	}
	for _, rec := range st.Aborted {
		if _, err := note(rec); err != nil {
			return err
		}
		r.aborted++
	}
	// Histories must be dense 1..k per (shard, origin): the journal is
	// prefix-truncated by a crash, and deliveries were journaled in order,
	// so any gap is corruption.
	for k, list := range byOrigin {
		sortActions(list)
		for i, a := range list {
			if a.OSeq != uint64(i+1) {
				return fmt.Errorf("optimistic: node %d: shard %d origin %d history gap at oseq %d", r.id, k[0], k[1], a.OSeq)
			}
		}
		r.hist[k[0]][k[1]-1] = list
	}
	r.oseq = make([]uint64, r.c.cfg.Shards)
	for s := 0; s < r.c.cfg.Shards; s++ {
		r.oseq[s] = uint64(len(r.hist[s][r.id-1]))
	}
	return nil
}

// sortActions orders by OSeq within one origin or by the candidate order
// across origins — StagedLess on the updates covers both (stamps are
// monotone in OSeq at one origin).
func sortActions(list []Action) {
	sort.Slice(list, func(i, j int) bool {
		return store.StagedLess(list[i].Update(), list[j].Update())
	})
}
