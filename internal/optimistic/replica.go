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

	clock int64    // hybrid clock (ns); stamps submits, merges on receive
	oseq  []uint64 // per shard: own actions issued (contiguous, 1-based)

	st []*store.Staged // per shard: the two-tier store

	// hist[s][o-1] is the contiguously delivered prefix of origin o's
	// actions on shard s, in OSeq order — simultaneously the delivery
	// counter (its count), the evidence behind the stability frontier,
	// the only copy of each action's constraints (held finds it by the
	// (origin, oseq) a TxnID encodes) and the cargo itself: pickCarry hands
	// out segments. Hence append-only between crashes, no entry ever
	// written twice, and restore installs fresh slices, never edits these.
	// Below the stable-everywhere watermark it is a count only (history).
	hist [][]history
	// hold[s][o] parks out-of-order arrivals until the gap fills.
	hold []map[runtime.NodeID]map[uint64]Action
	// front[s][p-1] is the highest stable frontier replica p is known to
	// have reached on shard s: for p itself the highest bound it has
	// promoted to, for a peer the maximum over every report of p's seen. A
	// maximum, not the freshest report's figure, because a frontier is only
	// advertised once durable (durable.OptJournal.Abort): a peer that
	// restarts re-derives its own from zero, and still has everything the
	// old figure stood for. The minimum over p is the shard's
	// stable-everywhere watermark; truncate drops what lies at or below it.
	front [][]int64

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
	r.hist = make([][]history, sh)
	r.hold = make([]map[runtime.NodeID]map[uint64]Action, sh)
	r.front = make([][]int64, sh)
	r.satisfied = make([][]int64, sh)
	for s := 0; s < sh; s++ {
		r.st[s] = store.NewStaged()
		r.hist[s] = make([]history, n)
		r.hold[s] = make(map[runtime.NodeID]map[uint64]Action)
		r.front[s] = make([]int64, n)
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
// delivered here, is delivered and dropped since (stable everywhere), or txn
// is no canonical ID.
func (r *replica) held(s int, txn string) *Action {
	origin, shrd, oseq, err := ParseTxnID(txn)
	if err != nil || shrd != s || origin < 1 || int(origin) > len(r.hist[s]) {
		return nil
	}
	return r.hist[s][origin-1].at(oseq)
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
	r.clock = max(r.clock+1, r.c.physical())
	r.oseq[s]++
	// The notAfter edges: every same-key tentative this replica has staged
	// must order before the new action, which stamping above the clock
	// guarantees.
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
	have := r.hist[s][o].count()
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
		next := r.hist[s][o].count() + 1
		na, ok := hb[next]
		if !ok {
			return
		}
		delete(hb, next)
		r.accept(&na)
	}
}

// accept stages an in-order action: clock merge, history append, overlay
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
	// candidate order. The clock's merge rule makes this a theorem; a
	// violation is a protocol bug, and under simulation the panic is the
	// oracle.
	au := a.Update()
	for _, dep := range a.Deps {
		if da := r.held(s, dep); da != nil && !store.StagedLess(da.Update(), au) {
			panic(fmt.Sprintf("optimistic: node %d: %s carries notAfter dep %s that does not precede it", r.id, au.TxnID, dep))
		}
	}
	r.hist[s][a.Origin-1].add(a)
	if _, err := r.st[s].Stage(au); err != nil {
		panic(fmt.Sprintf("optimistic: node %d: %v", r.id, err))
	}
	if r.journal != nil {
		r.journal.Tentative(recordOf(a), a.Origin == r.id)
	}
}

// bound computes shard s's stability frontier: the highest clock B
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
			if s < len(k.Counts) && r.hist[s][o-1].count() >= k.Counts[s] && k.Clock > r.satisfied[s][o-1] {
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

// tryPromote runs the election on every shard whose frontier has advanced
// and then lets go of what has become stable everywhere.
func (r *replica) tryPromote() {
	now := r.c.eng.Now()
	for s := range r.st {
		if b := r.bound(s); b > 0 {
			r.elect(s, b, now)
		}
		r.truncate(s)
	}
	// Every submit and every hosted agent ends here, with the stores and
	// the journal saying the same: the one place a snapshot may be taken.
	if r.journal != nil {
		r.journal.MaybeCompact()
	}
}

// elect promotes shard s's candidate prefix up to bound b into the stable
// log and aborts its guard losers. Stable promotions journal behind a commit
// barrier (invariant 15), and so does the batch's last loser: b is this
// replica's new stable frontier, which the next self-report advertises
// (invariant 17).
func (r *replica) elect(s int, b int64, now runtime.Time) {
	promoted, aborted := r.st[s].PromoteUpTo(b, r.guardFn(s))
	for _, u := range promoted {
		if r.journal != nil {
			a := r.staged(s, u.TxnID)
			r.journal.Stable(durable.OptRecord{U: u, Guard: a.Guard, Deps: a.Deps})
		}
		r.c.noteStable(r.id, u.TxnID, now)
	}
	for i, u := range aborted {
		if r.journal != nil {
			r.journal.Abort(u.TxnID, i == len(aborted)-1)
		}
		r.aborted++
		r.c.noteAborted(r.id, u.TxnID)
	}
	if b > r.front[s][r.id-1] {
		r.front[s][r.id-1] = b
	}
}

// truncate drops from shard s's histories, and from the store's TxnID
// index, every action stamped at or below the stable-everywhere watermark:
// each replica has durably decided all of them (invariant 17), so no peer
// will ask for one again, the election will not read its guard again, and a
// stray duplicate is refused by the delivery counter, which keeps counting
// it. One origin's stamps rise with its OSeq, so what goes is a prefix.
func (r *replica) truncate(s int) {
	w := r.front[s][0]
	for _, f := range r.front[s][1:] {
		w = min(w, f)
	}
	for o := range r.hist[s] {
		h := &r.hist[s][o]
		k := sort.Search(len(h.acts), func(i int) bool { return h.acts[i].Stamp > w })
		for i := range h.acts[:k] {
			r.st[s].Forget(h.acts[i].TxnID())
		}
		h.drop(k)
	}
}

// historySize counts the actions the histories hold and the ones they have
// dropped, over all shards and origins.
func (r *replica) historySize() (held, dropped uint64) {
	for s := range r.hist {
		for o := range r.hist[s] {
			held += uint64(len(r.hist[s][o].acts))
			dropped += r.hist[s][o].base
		}
	}
	return held, dropped
}

// selfKnow builds this replica's fresh self-report. The clock first rises to
// physical time — a promise that nothing stamped here from now on sorts at
// or below it, which is what lets peers promote past this origin without
// waiting to hear of their own stamps here. The clock high-water barrier
// runs next: nothing may advertise a clock the journal could forget. The
// frontier needs no barrier here: tryPromote raised it behind one.
func (r *replica) selfKnow() KnowEntry {
	r.clock = max(r.clock, r.c.physical())
	if r.journal != nil {
		r.journal.Clock(r.clock)
	}
	counts := make([]uint64, len(r.oseq))
	copy(counts, r.oseq)
	have := make([][]uint64, r.c.cfg.Shards)
	frontier := make([]int64, r.c.cfg.Shards)
	for s := range have {
		row := make([]uint64, r.c.cfg.N)
		for o := range row {
			row[o] = r.hist[s][o].count()
		}
		have[s] = row
		frontier[s] = r.front[s][r.id-1]
	}
	return KnowEntry{Node: r.id, Clock: r.clock, Counts: counts, Have: have, Frontier: frontier}
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
// The cargo is the history's own segments (history.after).
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
			run := r.hist[s][o].after(from, room)
			if len(run) == 0 {
				continue
			}
			if carry == nil {
				carry = make([][]Action, 0, r.c.cfg.N-1)
			}
			carry = append(carry, run)
			if room -= len(run); room == 0 {
				return carry
			}
		}
	}
	return carry
}

// launchGossip starts one reconciliation agent on its launch's itinerary.
func (r *replica) launchGossip() {
	if r.down || r.c.cfg.N < 2 {
		return
	}
	hops := itinerary(r.id, r.c.cfg.N, r.launch)
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
		if e.Node < 1 || int(e.Node) > r.c.cfg.N {
			continue // malformed; ignore like any corrupt datagram
		}
		for s, f := range e.Frontier {
			if s < len(r.front) && f > r.front[s][e.Node-1] {
				r.front[s][e.Node-1] = f
			}
		}
		if cur, ok := r.know[e.Node]; !ok || e.supersedes(cur) {
			r.know[e.Node] = e
		}
		if e.Clock > r.clock {
			r.clock = e.Clock // merge: future submits stamp above
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
// histories may have lost a suffix above the advertised frontier (re-fetched
// from peers after the fresh self-report advertises the decreased delivery
// vector) and nothing at or below it; ClockHi rides above any clock ever
// advertised. What the state says was dropped stays dropped: those actions
// come back as counts, and the stable ones among them as bare log entries.
func (r *replica) restore(st *durable.OptState) error {
	r.resetVolatile()
	if st == nil {
		return nil
	}
	r.clock = st.ClockHi
	var dropped, droppedStable uint64
	for s, row := range st.Dropped {
		if s >= len(r.hist) || len(row) > len(r.hist[s]) {
			return fmt.Errorf("optimistic: node %d: snapshot counts %d shards x %d origins, the cluster has %d x %d", r.id, len(st.Dropped), len(row), r.c.cfg.Shards, r.c.cfg.N)
		}
		for o, n := range row {
			r.hist[s][o].base = n
			dropped += n
		}
	}
	// Every surviving action, whatever its fate, re-enters the history so
	// the delivery counters and gossip carry see it — unless it lies below a
	// count. Only a stable action may, and it rejoins the log alone: nothing
	// undecided is ever dropped, and a dropped loser is not kept.
	byOrigin := make(map[[2]int][]Action) // (shard, origin) -> actions
	below := func(a Action) bool { return a.OSeq <= r.hist[a.Shard][a.Origin-1].base }
	note := func(rec durable.OptRecord, stable bool) (Action, error) {
		a, err := actionOf(rec)
		if err != nil {
			return a, err
		}
		if a.Shard >= r.c.cfg.Shards || a.Origin < 1 || int(a.Origin) > r.c.cfg.N {
			return a, fmt.Errorf("optimistic: node %d: journaled action %s is outside the cluster", r.id, rec.U.TxnID)
		}
		if a.Stamp > r.clock {
			r.clock = a.Stamp
		}
		switch {
		case !below(a):
			k := [2]int{a.Shard, int(a.Origin)}
			byOrigin[k] = append(byOrigin[k], a)
		case !stable:
			return a, fmt.Errorf("optimistic: node %d: %s is journaled as tentative or lost, and counted as dropped", r.id, rec.U.TxnID)
		}
		return a, nil
	}
	for _, rec := range st.Stable {
		a, err := note(rec, true)
		if err != nil {
			return err
		}
		if err := r.st[a.Shard].RestoreStable(rec.U); err != nil {
			return fmt.Errorf("optimistic: node %d: %w", r.id, err)
		}
		if below(a) {
			r.st[a.Shard].Forget(rec.U.TxnID)
			droppedStable++
		}
	}
	// Overlay entries re-stage in candidate order (the journal holds them
	// in arrival order); aborted ones only rejoin the history.
	overlay := make([]Action, 0, len(st.Overlay))
	for _, rec := range st.Overlay {
		a, err := note(rec, false)
		if err != nil {
			return err
		}
		overlay = append(overlay, a)
	}
	for _, rec := range st.Aborted {
		if _, err := note(rec, false); err != nil {
			return err
		}
	}
	sortActions(overlay)
	for _, a := range overlay {
		if _, err := r.st[a.Shard].Stage(a.Update()); err != nil {
			return fmt.Errorf("optimistic: node %d: %w", r.id, err)
		}
	}
	// Whatever was dropped was decided here first: what is not in the
	// stable prefix lost its election.
	if droppedStable > dropped {
		return fmt.Errorf("optimistic: node %d: %d stable actions below counts that cover %d", r.id, droppedStable, dropped)
	}
	r.aborted = uint64(len(st.Aborted)) + dropped - droppedStable
	// Histories must be dense from the first action not dropped, per (shard,
	// origin): the journal is prefix-truncated by a crash, and deliveries
	// were journaled in order, so any gap is corruption.
	for k, list := range byOrigin {
		sortActions(list)
		h := &r.hist[k[0]][k[1]-1]
		for i, a := range list {
			if a.OSeq != h.base+uint64(i+1) {
				return fmt.Errorf("optimistic: node %d: shard %d origin %d history gap at oseq %d", r.id, k[0], k[1], a.OSeq)
			}
		}
		h.acts = list
	}
	for s := range r.oseq {
		r.oseq[s] = r.hist[s][r.id-1].count()
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
