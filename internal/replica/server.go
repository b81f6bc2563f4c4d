package replica

import (
	"errors"
	"slices"
	"sort"

	"repro/internal/agent"
	"repro/internal/durable"
	"repro/internal/quorum"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/trace"
)

// Config carries per-server options.
type Config struct {
	// Shards is the number of key-space shards (default 1). Every shard
	// has its own Locking List, store, and exclusive grant on this
	// server; keys map to shards by hash (internal/shard).
	Shards int
	// Groups lists the replica group of every shard (ascending node
	// order). nil means every replica serves every shard — full
	// replication, the pre-sharding behavior.
	Groups [][]runtime.NodeID
	// Quorums gives each shard's read-quorum geometry for consistent
	// reads. nil means an equal-vote majority over each shard's group.
	Quorums []quorum.Assignment
	// DisableInfoSharing turns off the paper's locking-information
	// exchange: servers neither cache nor hand out remote LL snapshots
	// (ablation A1 in DESIGN.md).
	DisableInfoSharing bool
	// GrantObserver, if non-nil, is invoked whenever one of the server's
	// per-shard grants changes (installed, released, aborted, or
	// evicted). The core package's Referee uses it to check Theorem 2 on
	// every run; a zero txn means the grant was released.
	GrantObserver func(server runtime.NodeID, shrd int, txn agent.ID)
	// Intercept, if non-nil, sees every server-bound message before the
	// Algorithm 2 handlers; returning true consumes it. The cluster layer
	// uses it for cross-process notifications (e.g. an agent reporting its
	// outcome back to its home node) that are not part of the replica
	// protocol itself.
	Intercept func(msg runtime.Message) bool
	// Trace, if non-nil, receives server events.
	Trace *trace.Log
	// Journal, if non-nil, makes the server durable: every store and
	// locking-state mutation is logged through it after succeeding.
	Journal *durable.Journal
	// Restore, if non-nil, is the state recovered from Journal's log; the
	// server rebuilds itself from it before attaching the journal.
	Restore *durable.State
}

// shardState is one shard's locking domain on this server: its slice of the
// data, its Locking List, and its exclusive grant. Commits on one shard
// never block, reorder with, or share volatile state with commits on
// another (the shard-isolation invariant).
type shardState struct {
	st           *store.Store
	llVersion    uint64
	headVersion  uint64
	ll           []agent.ID
	cache        map[runtime.NodeID]QueueSnapshot
	grant        agent.ID
	grantAttempt int
	backlog      map[uint64]store.Update
	member       bool              // this server is in the shard's replica group
	peers        []runtime.NodeID  // other group members
	readQuorum   quorum.Assignment // decides when a consistent read is answered
}

// Server is one replicated server: data copy, per-shard Locking Lists,
// Updated List, routing table, and the message handlers of the paper's
// Algorithm 2.
//
// A Server is driven entirely from its engine's execution context (network
// deliveries, local calls from co-located agents), so it needs no locking.
type Server struct {
	id       runtime.NodeID
	peers    []runtime.NodeID // all other replicas
	net      runtime.Fabric
	clock    runtime.Clock
	platform *agent.Platform
	place    *agent.Place
	cfg      Config
	journal  *durable.Journal // nil = volatile server (the default)

	// Per-shard locking state. Version counters deliberately survive
	// crashes (see Crash): monotone versions make stale-evidence checks
	// sound across recoveries without a persisted epoch.
	shards []*shardState

	// Global volatile state: the epoch and the Updated List span shards
	// (an agent is "gone" everywhere once it committed or died). The list is
	// kept as a bounded summary: per-home watermarks plus a residue.
	epoch uint64
	gone  agent.GoneSet
	down  bool

	// Pending quorum reads coordinated by this server.
	readSeq uint64
	reads   map[uint64]*quorumRead

	// costs caches the per-peer link costs handed out in every LockInfo —
	// topology is static, so the map is built once and shared read-only.
	costs map[runtime.NodeID]float64
}

// quorumRead tracks one in-flight consistent read.
type quorumRead struct {
	key        string
	replies    map[runtime.NodeID]ReadRep
	assignment quorum.Assignment
	done       func(store.Value, bool)
}

// New creates a server for node id over the given substrates, hosts an
// agent place on its node, and registers itself for network delivery and
// agent-death notices. peers must list every replica ID including id (in a
// multi-process deployment: every replica in the system, not just the local
// one). clock supplies timestamps for traces.
func New(clock runtime.Clock, id runtime.NodeID, peers []runtime.NodeID, net runtime.Fabric, platform *agent.Platform, cfg Config) *Server {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	others := make([]runtime.NodeID, 0, len(peers))
	for _, p := range peers {
		if p != id {
			others = append(others, p)
		}
	}
	s := &Server{
		id:       id,
		peers:    others,
		net:      net,
		clock:    clock,
		platform: platform,
		cfg:      cfg,
		shards:   make([]*shardState, cfg.Shards),
		reads:    make(map[uint64]*quorumRead),
	}
	for i := range s.shards {
		sd := &shardState{
			st:      store.New(),
			cache:   make(map[runtime.NodeID]QueueSnapshot),
			backlog: make(map[uint64]store.Update),
			member:  true,
			peers:   others,
		}
		group := peers
		if i < len(cfg.Groups) && cfg.Groups[i] != nil {
			group = cfg.Groups[i]
			sd.member = false
			sd.peers = sd.peers[:0:0]
			for _, n := range group {
				if n == id {
					sd.member = true
				} else {
					sd.peers = append(sd.peers, n)
				}
			}
		}
		if i < len(cfg.Quorums) && cfg.Quorums[i] != nil {
			sd.readQuorum = cfg.Quorums[i]
		} else {
			sd.readQuorum = quorum.Equal(group)
		}
		s.shards[i] = sd
	}
	s.place = platform.Host(id, s)
	s.place.SetDeathListener(s)
	if cfg.Restore != nil {
		s.restore(cfg.Restore)
	}
	if cfg.Journal != nil {
		s.attachJournal(cfg.Journal)
		if cfg.Restore != nil {
			// Persist the recovery epoch bump immediately: a second crash
			// before any other mutation must still see a fresh epoch.
			s.logLockAll(true)
		}
	}
	return s
}

// shardOf routes a key to its shard.
func (s *Server) shardOf(key string) int { return shard.Of(key, len(s.shards)) }

// restore rebuilds the server's durable state from a recovered snapshot.
// No journal is attached yet, so the rebuild itself is not re-logged.
// Counters merge by max with whatever the server already holds (the DES
// restart path keeps memory across Crash), then the epoch is bumped so
// agents can tell post-recovery snapshots from pre-crash ones. Locking
// Lists and grants are restored as-is: stale entries only ever cause extra
// nacks (safe under Theorem 2), and the gone-set propagation plus claim
// timeouts clear them.
func (s *Server) restore(st *durable.State) {
	stores := make([]store.State, len(s.shards))
	locks := make([]durable.LockState, len(s.shards))
	stores[0], locks[0] = st.Store, st.Lock
	for i := 0; i+1 < len(s.shards) && i < len(st.ExtraStores); i++ {
		stores[i+1] = st.ExtraStores[i]
	}
	for i := 0; i+1 < len(s.shards) && i < len(st.ExtraLocks); i++ {
		locks[i+1] = st.ExtraLocks[i]
	}
	for _, ls := range locks {
		if ls.Epoch > s.epoch {
			s.epoch = ls.Epoch
		}
	}
	s.epoch++
	s.gone.Merge(st.Marks, st.Gone)
	for i, sd := range s.shards {
		sd.st = store.FromState(stores[i])
		if locks[i].LLVersion > sd.llVersion {
			sd.llVersion = locks[i].LLVersion
		}
		if locks[i].HeadVersion > sd.headVersion {
			sd.headVersion = locks[i].HeadVersion
		}
		sd.ll = append([]agent.ID(nil), locks[i].LL...)
		s.setGrant(i, locks[i].Grant)
		if locks[i].GrantAttempt > sd.grantAttempt {
			sd.grantAttempt = locks[i].GrantAttempt
		}
		s.bump(sd, true) // recovery is a fresh head state
	}
}

// attachJournal wires the journal into every shard's store and registers
// the server's contribution to compaction snapshots. The journal derives
// each record's shard from its key at replay time, so one journal serves
// all shards while their records stay independent.
func (s *Server) attachJournal(j *durable.Journal) {
	s.journal = j
	for _, sd := range s.shards {
		sd.st.SetJournal(j)
	}
	j.AddSource(func(st *durable.State) {
		st.Store = s.shards[0].st.State()
		st.Lock = s.lockState(0)
		if len(s.shards) > 1 {
			st.ExtraStores = make([]store.State, len(s.shards)-1)
			st.ExtraLocks = make([]durable.LockState, len(s.shards)-1)
			for i := 1; i < len(s.shards); i++ {
				st.ExtraStores[i-1] = s.shards[i].st.State()
				st.ExtraLocks[i-1] = s.lockState(i)
			}
		}
		st.Marks, st.Gone = s.gone.Export()
	})
}

// DetachJournal unhooks durability without touching protocol state — the
// graceful-shutdown path, where the journal is about to be closed while the
// server may still field stray callbacks that must not append to it.
func (s *Server) DetachJournal() {
	s.journal = nil
	for _, sd := range s.shards {
		sd.st.SetJournal(nil)
	}
}

// lockState captures one shard's serializable locking state.
func (s *Server) lockState(shrd int) durable.LockState {
	sd := s.shards[shrd]
	return durable.LockState{
		Epoch:        s.epoch,
		LLVersion:    sd.llVersion,
		HeadVersion:  sd.headVersion,
		LL:           sd.published(),
		Grant:        sd.grant,
		GrantAttempt: sd.grantAttempt,
	}
}

// logLock journals one shard's locking state after a mutation. barrier
// marks grant and epoch transitions — the mutations whose loss could
// re-grant a lock this server already released, or reuse an epoch.
func (s *Server) logLock(shrd int, barrier bool) {
	if s.journal != nil {
		s.journal.LogLockShard(shrd, s.lockState(shrd), barrier)
	}
}

// logLockAll journals every shard's locking state.
func (s *Server) logLockAll(barrier bool) {
	for i := range s.shards {
		s.logLock(i, barrier)
	}
}

// ID returns the server's node ID.
func (s *Server) ID() runtime.NodeID { return s.id }

// Store returns shard 0's data store (the only store when unsharded).
func (s *Server) Store() *store.Store { return s.shards[0].st }

// StoreOf returns one shard's data store.
func (s *Server) StoreOf(shrd int) *store.Store { return s.shards[shrd].st }

// Shards returns the number of shards.
func (s *Server) Shards() int { return len(s.shards) }

// Member reports whether this server is in shrd's replica group.
func (s *Server) Member(shrd int) bool { return s.shards[shrd].member }

// Place returns the agent place co-located with the server.
func (s *Server) Place() *agent.Place { return s.place }

// Queue returns a copy of shard 0's current Locking List (head first).
func (s *Server) Queue() []agent.ID { return s.QueueOf(0) }

// QueueOf returns a copy of one shard's Locking List (head first).
func (s *Server) QueueOf(shrd int) []agent.ID {
	out := make([]agent.ID, len(s.shards[shrd].ll))
	copy(out, s.shards[shrd].ll)
	return out
}

// QueueLen returns one shard's Locking List depth without copying — the
// ops plane samples it on every scrape.
func (s *Server) QueueLen(shrd int) int { return len(s.shards[shrd].ll) }

// Granted returns the transaction currently holding shard 0's grant
// (zero ID if none).
func (s *Server) Granted() agent.ID { return s.shards[0].grant }

// Down reports whether the server is crashed.
func (s *Server) Down() bool { return s.down }

// LocalRead serves a read from the local copy — the paper's fast read path
// ("a read operation may be executed on an arbitrary copy").
func (s *Server) LocalRead(key string) (store.Value, bool) {
	return s.shards[s.shardOf(key)].st.Get(key)
}

// snapshot captures one shard's current LL for handing to agents.
func (s *Server) snapshot(shrd int) QueueSnapshot {
	sd := s.shards[shrd]
	return QueueSnapshot{
		Server:      s.id,
		Shard:       shrd,
		Epoch:       s.epoch,
		Version:     sd.llVersion,
		HeadVersion: sd.headVersion,
		Queue:       sd.published(),
	}
}

// published hands out the shard's LL without copying it. The server never
// writes an entry it has handed out: an append goes past every holder's
// length (the capacity is clipped, so a holder's own append cannot reach
// the server's), and a removal builds a new slice (DESIGN.md §6, invariant
// 18).
func (sd *shardState) published() []agent.ID { return sd.ll[:len(sd.ll):len(sd.ll)] }

// bump records an LL mutation; headChanged marks mutations that altered the
// head (the only ones that can change any agent's priority decision).
func (s *Server) bump(sd *shardState, headChanged bool) {
	sd.llVersion++
	if headChanged {
		sd.headVersion = sd.llVersion
	}
}

// setGrant changes one shard's exclusive grant and informs the observer.
func (s *Server) setGrant(shrd int, txn agent.ID) {
	sd := s.shards[shrd]
	if sd.grant == txn {
		return
	}
	sd.grant = txn
	if s.cfg.GrantObserver != nil {
		s.cfg.GrantObserver(s.id, shrd, txn)
	}
}

// markGone records that an agent finished or died, evicting its LL entries
// and releasing its grants on every shard. It reports whether local state
// changed.
func (s *Server) markGone(id agent.ID) bool {
	changed := s.gone.Add(id)
	if changed && s.journal != nil {
		s.journal.LogGone(id)
	}
	if s.release(func(e agent.ID) bool { return e == id }) {
		changed = true
	}
	return changed
}

// absorb merges a gone set received from outside — a visiting agent's, a
// peer's sync reply — journaling every fact that changes the set, and then
// evicts whatever the set newly covers: a watermark can name agents whose
// COMMIT this server never saw. It reports whether that was news — an agent
// this server did not hold as gone before now is — which a watermark over
// nothing but entries already in the residue is not.
func (s *Server) absorb(marks []agent.Watermark, ids []agent.ID) bool {
	news := false
	for _, w := range marks {
		raised, grew := s.gone.Raise(w)
		if raised && s.journal != nil {
			s.journal.LogGoneMark(w)
		}
		news = news || grew
	}
	for _, id := range ids {
		if s.gone.Add(id) {
			news = true
			if s.journal != nil {
				s.journal.LogGone(id)
			}
		}
	}
	if news {
		s.release(s.gone.Contains)
	}
	return news
}

// release evicts the LL entries of, and releases the grants held by, every
// agent gone matches, on every shard. It reports whether anything was.
func (s *Server) release(gone func(agent.ID) bool) bool {
	changed := false
	for shrd, sd := range s.shards {
		lockChanged := slices.ContainsFunc(sd.ll, gone)
		if lockChanged {
			kept := make([]agent.ID, 0, len(sd.ll)-1) // a new slice: the old one may be published
			for _, e := range sd.ll {
				if gone(e) {
					s.bump(sd, len(kept) == 0)
				} else {
					kept = append(kept, e)
				}
			}
			sd.ll = kept
		}
		released := false
		if !sd.grant.IsZero() && gone(sd.grant) {
			s.setGrant(shrd, agent.ID{})
			released = true
		}
		if lockChanged || released {
			s.logLock(shrd, released)
			changed = true
		}
	}
	return changed
}

// AdvanceWatermark raises this server's own home watermark. Only the
// cluster hosting the home calls it, and only over agents it dispatched that
// this server already holds as gone (DESIGN.md invariant 16): the watermark
// tells this server nothing new, it lets the residue entries go.
func (s *Server) AdvanceWatermark(w agent.Watermark) {
	if raised, _ := s.gone.Raise(w); raised && s.journal != nil {
		s.journal.LogGoneMark(w)
	}
}

// notify raises LLChanged to every resident agent, on every engine: a
// Locking List head, the data horizon or the gone set moved, and each
// parked agent recomputes its priority (paper §3.3).
func (s *Server) notify() {
	s.place.NotifyResidents(LLChanged{Server: s.id})
}

// VisitAndLock is the local interaction of a just-arrived agent with its
// host server (paper Algorithm 2, "upon arrival of a mobile agent"): the
// server appends the agent to the Locking List of every requested shard it
// replicates, absorbs the locking information the agent carries, and
// returns everything the agent needs to update its own data structures.
// shards must be ascending (nil = every shard, the single-shard default).
func (s *Server) VisitAndLock(id agent.ID, shards []int, shared []QueueSnapshot, known *agent.GoneSet) LockInfo {
	// Absorb the agent's knowledge of finished/dead agents first, so a
	// stale entry never blocks the queue.
	goneChanged := s.absorb(known.Marks(), known.IDs())
	if !s.cfg.DisableInfoSharing {
		for _, snap := range shared {
			if snap.Server == s.id || snap.Shard < 0 || snap.Shard >= len(s.shards) {
				continue
			}
			cache := s.shards[snap.Shard].cache
			if cur, ok := cache[snap.Server]; !ok || snap.Newer(cur) {
				cache[snap.Server] = snap
			}
		}
	}
	if shards == nil {
		shards = s.allShards()
	}
	headChanged := false
	for _, shrd := range shards {
		sd := s.shards[shrd]
		if !sd.member || s.gone.Contains(id) || s.contains(sd, id) {
			continue
		}
		sd.ll = append(sd.ll, id)
		s.bump(sd, len(sd.ll) == 1)
		s.logLock(shrd, false)
		headChanged = headChanged || len(sd.ll) == 1
		if s.cfg.Trace.Enabled() {
			s.cfg.Trace.Addf(int64(s.clock.Now()), int(s.id), id.String(), trace.LockRequested, "pos %d", len(sd.ll))
		}
	}
	if goneChanged || headChanged {
		s.notify()
	}
	return s.lockInfo(shards)
}

// allShards returns 0..Shards-1.
func (s *Server) allShards() []int {
	out := make([]int, len(s.shards))
	for i := range out {
		out[i] = i
	}
	return out
}

func (s *Server) contains(sd *shardState, id agent.ID) bool {
	for _, e := range sd.ll {
		if e == id {
			return true
		}
	}
	return false
}

// lockInfo assembles the LockInfo for a visiting or refreshing agent over
// the requested shards (nil = all).
func (s *Server) lockInfo(shards []int) LockInfo {
	if shards == nil {
		shards = s.allShards()
	}
	if s.costs == nil {
		// Link costs are a static property of the topology, so one shared
		// read-only map serves every LockInfo this server ever hands out.
		s.costs = make(map[runtime.NodeID]float64, len(s.peers))
		for _, p := range s.peers {
			s.costs[p] = s.net.Cost(s.id, p)
		}
	}
	info := LockInfo{Costs: s.costs}
	info.Marks, info.Gone = s.gone.Export()
	for _, shrd := range shards {
		sd := s.shards[shrd]
		if !sd.member {
			continue
		}
		info.Locals = append(info.Locals, s.snapshot(shrd))
		if seq := sd.st.LastSeq(); seq > info.LastSeq {
			info.LastSeq = seq
		}
		if !s.cfg.DisableInfoSharing && len(sd.cache) > 0 {
			nodes := make([]runtime.NodeID, 0, len(sd.cache))
			for n := range sd.cache {
				nodes = append(nodes, n)
			}
			sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
			for _, n := range nodes {
				info.Remote = append(info.Remote, sd.cache[n])
			}
		}
	}
	return info
}

// RefreshInfo returns current LockInfo for the requested shards (nil = all)
// without enqueueing anybody — used by parked agents recomputing their
// priority after a notification.
func (s *Server) RefreshInfo(shards []int) LockInfo { return s.lockInfo(shards) }

// Deliver implements runtime.Handler for server-bound protocol messages.
func (s *Server) Deliver(msg runtime.Message) {
	if s.down {
		return
	}
	if s.cfg.Intercept != nil && s.cfg.Intercept(msg) {
		return
	}
	switch m := msg.Payload.(type) {
	case *UpdateMsg:
		ack := s.handleUpdate(m)
		s.platform.SendToAgent(s.id, m.Origin, m.Txn, ack)
	case *CommitMsg:
		s.handleCommit(m)
	case *AbortMsg:
		s.handleAbort(m)
	case *SyncRequest:
		s.handleSyncRequest(m)
	case *SyncReply:
		s.handleSyncReply(m)
	case *ReadReq:
		v, ok := s.LocalRead(m.Key)
		rep := &ReadRep{ReqID: m.ReqID, From: s.id, Found: ok, Value: v}
		s.net.Send(runtime.Message{From: s.id, To: m.From, Payload: rep})
	case *ReadRep:
		s.handleReadRep(m)
	}
}

// QuorumRead coordinates a consistent read: it collects the committed value
// of key from a read quorum of the key's replica group (this server
// included when it is a member) and calls done with the most recent
// version. Because any read quorum intersects any write quorum's COMMIT set
// eventually — and the per-shard sequence number makes "most recent"
// unambiguous — the result is never older than the last update whose commit
// round completed.
func (s *Server) QuorumRead(key string, done func(store.Value, bool)) {
	shrd := s.shardOf(key)
	sd := s.shards[shrd]
	s.readSeq++
	qr := &quorumRead{
		key:        key,
		replies:    make(map[runtime.NodeID]ReadRep),
		assignment: sd.readQuorum,
		done:       done,
	}
	s.reads[s.readSeq] = qr
	if sd.member {
		// Local copy counts immediately.
		v, ok := sd.st.Get(key)
		qr.replies[s.id] = ReadRep{ReqID: s.readSeq, From: s.id, Found: ok, Value: v}
		if s.maybeFinishRead(s.readSeq) {
			return
		}
	}
	req := &ReadReq{ReqID: s.readSeq, From: s.id, Key: key}
	for _, p := range sd.peers {
		s.net.Send(runtime.Message{From: s.id, To: p, Payload: req})
	}
}

func (s *Server) handleReadRep(m *ReadRep) {
	qr, ok := s.reads[m.ReqID]
	if !ok {
		return
	}
	qr.replies[m.From] = *m
	s.maybeFinishRead(m.ReqID)
}

func (s *Server) maybeFinishRead(id uint64) bool {
	qr := s.reads[id]
	if qr == nil {
		return false
	}
	nodes := make([]runtime.NodeID, 0, len(qr.replies))
	for n := range qr.replies {
		nodes = append(nodes, n)
	}
	if !qr.assignment.HasRead(nodes) {
		return false
	}
	delete(s.reads, id)
	var best store.Value
	found := false
	for _, rep := range qr.replies {
		if !rep.Found {
			continue
		}
		if !found || best.Version.Less(rep.Value.Version) {
			best = rep.Value
		}
		found = true
	}
	qr.done(best, found)
	return true
}

// HandleUpdateLocal processes the claim of a co-located agent at memory
// speed (the mobile-agent advantage: the conversation with the local server
// pays no network latency).
func (s *Server) HandleUpdateLocal(m *UpdateMsg) *AckMsg { return s.handleUpdate(m) }

// HandleCommitLocal applies a co-located agent's commit directly.
func (s *Server) HandleCommitLocal(m *CommitMsg) { s.handleCommit(m) }

// HandleAbortLocal applies a co-located agent's abort directly.
func (s *Server) HandleAbortLocal(m *AbortMsg) { s.handleAbort(m) }

// claimShards resolves the shards a claim names (defaulting to shard 0 for
// an unsharded claim) restricted to the shards this server replicates.
func (s *Server) claimShards(m *UpdateMsg) (all, relevant []int) {
	all = m.Shards
	if len(all) == 0 {
		all = []int{0}
	}
	for _, shrd := range all {
		if shrd >= 0 && shrd < len(s.shards) && s.shards[shrd].member {
			relevant = append(relevant, shrd)
		}
	}
	return all, relevant
}

// handleUpdate validates a permission claim (see DESIGN.md, "protocol
// fortification"): the server ACKs only if, on EVERY claimed shard it
// replicates, it is not already granted to another claimant AND the
// claimant either heads that shard's LL or claims via the tie-break rule
// while enqueued there. The validation is all-or-nothing across the shards
// — a multi-shard claim acquires its per-shard grants atomically here, in
// the claim's canonical ascending shard order, so two claimants can never
// deadlock a server against itself. A write quorum of ACKs on every shard
// implies a unique winner regardless of how stale the claimant's view was,
// because grants are exclusive until COMMIT or ABORT and any two write
// quorums intersect — the grants, not the evidence, are the arbiter.
func (s *Server) handleUpdate(m *UpdateMsg) *AckMsg {
	all, relevant := s.claimShards(m)
	nack := func(reason string) *AckMsg {
		info := s.lockInfo(relevant)
		if s.cfg.Trace.Enabled() {
			s.cfg.Trace.Addf(int64(s.clock.Now()), int(s.id), m.Txn.String(), trace.UpdateNacked, "%s", reason)
		}
		return &AckMsg{Txn: m.Txn, Attempt: m.Attempt, From: s.id, Reason: reason, Info: &info}
	}
	if len(relevant) == 0 {
		return nack("not-member")
	}
	for _, shrd := range relevant {
		if g := s.shards[shrd].grant; !g.IsZero() && g != m.Txn {
			return nack("busy")
		}
	}
	if s.gone.Contains(m.Txn) {
		return nack("gone")
	}
	for _, shrd := range relevant {
		if !s.contains(s.shards[shrd], m.Txn) {
			return nack("not-enqueued")
		}
	}
	for _, shrd := range relevant {
		sd := s.shards[shrd]
		isHead := len(sd.ll) > 0 && sd.ll[0] == m.Txn
		if !isHead && !m.ByTie {
			return nack("not-head")
		}
	}
	for _, shrd := range relevant {
		s.setGrant(shrd, m.Txn)
		s.shards[shrd].grantAttempt = m.Attempt
		s.logLock(shrd, true) // a lost grant record could let a restart re-grant
	}
	seqs := make([]uint64, len(all))
	values := make(map[string]store.Value, len(m.Keys))
	for i, shrd := range all {
		if shrd >= 0 && shrd < len(s.shards) && s.shards[shrd].member {
			seqs[i] = s.shards[shrd].st.LastSeq()
		}
	}
	for _, k := range m.Keys {
		sd := s.shards[s.shardOf(k)]
		if !sd.member {
			continue
		}
		if v, ok := sd.st.Get(k); ok {
			values[k] = v
		}
	}
	if s.cfg.Trace.Enabled() {
		s.cfg.Trace.Addf(int64(s.clock.Now()), int(s.id), m.Txn.String(), trace.UpdateAcked, "")
	}
	return &AckMsg{Txn: m.Txn, Attempt: m.Attempt, From: s.id, OK: true, ShardSeqs: seqs, Values: values}
}

// handleCommit applies the winner's updates — each routed to its key's
// shard, on the shards this server replicates — releases its locks, and
// adds it to the Updated List. A per-shard sequence gap means this replica
// missed earlier updates on that shard (it was down); the updates are held
// back and one sync request for every gapped shard goes to the origin.
func (s *Server) handleCommit(m *CommitMsg) {
	var gapped []int
	for _, u := range m.Updates {
		shrd := s.shardOf(u.Key)
		sd := s.shards[shrd]
		if !sd.member {
			continue
		}
		if err := sd.st.ApplyCommitted(u); err != nil {
			if errors.Is(err, store.ErrSeqGap) {
				sd.backlog[u.Seq] = u
				gapped = addShard(gapped, shrd)
				continue
			}
			// Stale updates are idempotently ignored by ApplyCommitted;
			// anything else indicates a protocol bug.
			panic("replica: commit apply failed: " + err.Error())
		}
	}
	if len(gapped) > 0 {
		s.requestSync(gapped, m.Origin)
	}
	// This commit may have filled the gap ahead of earlier out-of-order
	// arrivals (jittered links do not preserve FIFO) on the shards it wrote.
	for _, u := range m.Updates {
		s.drainBacklog(s.shardOf(u.Key))
	}
	s.markGone(m.Txn)
	if s.cfg.Trace.Enabled() {
		s.cfg.Trace.Addf(int64(s.clock.Now()), int(s.id), m.Txn.String(), trace.Committed, "%d updates, seq now %d", len(m.Updates), s.maxLastSeq())
	}
	s.notify()
	if s.journal != nil {
		s.journal.MaybeCompact() // post-commit is a quiescent point
	}
}

// addShard inserts shrd into the ascending set shards, if it is not there.
func addShard(shards []int, shrd int) []int {
	i := sort.SearchInts(shards, shrd)
	if i < len(shards) && shards[i] == shrd {
		return shards
	}
	shards = append(shards, 0)
	copy(shards[i+1:], shards[i:])
	shards[i] = shrd
	return shards
}

// maxLastSeq returns the highest committed horizon across shards (trace
// diagnostics).
func (s *Server) maxLastSeq() uint64 {
	var max uint64
	for _, sd := range s.shards {
		if seq := sd.st.LastSeq(); seq > max {
			max = seq
		}
	}
	return max
}

// handleAbort withdraws a claim's grants on every shard.
func (s *Server) handleAbort(m *AbortMsg) {
	released := false
	for shrd, sd := range s.shards {
		if sd.grant == m.Txn && m.Attempt >= sd.grantAttempt {
			s.setGrant(shrd, agent.ID{})
			s.logLock(shrd, true)
			released = true
		}
	}
	if released && s.cfg.Trace.Enabled() {
		s.cfg.Trace.Addf(int64(s.clock.Now()), int(s.id), m.Txn.String(), trace.ClaimAborted, "grant released")
	}
}

// RequestSync starts an anti-entropy round: one request to every peer,
// asking for the committed updates after the local horizon on every shard
// the two replicate. The cluster invokes it on every live server after a
// partition heals, because a minority partition that missed final COMMIT
// broadcasts has no sequence gap of its own to notice.
func (s *Server) RequestSync() {
	if s.down {
		return
	}
	s.requestSync(s.allShards(), runtime.None)
}

// requestSync asks for the updates after the local horizon on the given
// shards (ascending): all of them from origin when origin is another
// replica, otherwise from every peer, each asked in one request for exactly
// the shards it shares with this server. Shards this server does not
// replicate are never asked for.
func (s *Server) requestSync(shards []int, origin runtime.NodeID) {
	if origin != s.id && origin != runtime.None {
		s.sendSync(origin, shards, func(*shardState) bool { return true })
		return
	}
	for _, p := range s.peers {
		s.sendSync(p, shards, func(sd *shardState) bool { return sd.replicatedBy(p) })
	}
}

// sendSync sends to one peer the request for the shards this server
// replicates that want accepts; it sends nothing if there are none.
func (s *Server) sendSync(to runtime.NodeID, shards []int, want func(*shardState) bool) {
	req := &SyncRequest{From: s.id}
	for _, shrd := range shards {
		if sd := s.shards[shrd]; sd.member && want(sd) {
			req.Shards = append(req.Shards, SyncSince{Shard: shrd, Since: sd.st.LastSeq()})
		}
	}
	if len(req.Shards) > 0 {
		s.net.Send(runtime.Message{From: s.id, To: to, Payload: req})
	}
}

// replicatedBy reports whether peer is in the shard's replica group.
func (sd *shardState) replicatedBy(peer runtime.NodeID) bool {
	for _, p := range sd.peers {
		if p == peer {
			return true
		}
	}
	return false
}

// handleSyncRequest answers one peer's request with a section for every
// requested shard it has news on, and its gone set once.
func (s *Server) handleSyncRequest(m *SyncRequest) {
	reply := &SyncReply{From: s.id}
	for _, e := range m.Shards {
		if e.Shard < 0 || e.Shard >= len(s.shards) || !s.shards[e.Shard].member {
			continue
		}
		if updates := s.shards[e.Shard].st.UpdatesSince(e.Since); len(updates) > 0 {
			reply.Sections = append(reply.Sections, SyncSection{Shard: e.Shard, Updates: updates})
		}
	}
	reply.Marks, reply.Gone = s.gone.Export()
	if len(reply.Sections) == 0 && len(reply.Marks) == 0 && len(reply.Gone) == 0 {
		return
	}
	s.net.Send(runtime.Message{From: s.id, To: m.From, Payload: reply})
}

// drainBacklog applies one shard's consecutive backlogged commits now that
// earlier updates may have landed. It reports whether anything was applied.
func (s *Server) drainBacklog(shrd int) bool {
	sd := s.shards[shrd]
	applied := false
	for {
		u, ok := sd.backlog[sd.st.LastSeq()+1]
		if !ok {
			return applied
		}
		delete(sd.backlog, u.Seq)
		if err := sd.st.ApplyCommitted(u); err != nil {
			return applied
		}
		applied = true
	}
}

// handleSyncReply applies and drains every section of a peer's reply,
// absorbs its gone set once, and wakes the residents if a shard moved or
// the gone set grew.
func (s *Server) handleSyncReply(m *SyncReply) {
	touched := false
	for _, sec := range m.Sections {
		if sec.Shard < 0 || sec.Shard >= len(s.shards) || !s.shards[sec.Shard].member {
			continue
		}
		sd := s.shards[sec.Shard]
		applied := false
		for _, u := range sec.Updates {
			if err := sd.st.ApplyCommitted(u); err == nil && u.Seq == sd.st.LastSeq() {
				applied = true
			}
		}
		if s.drainBacklog(sec.Shard) || applied {
			touched = true
		}
	}
	if !s.absorb(m.Marks, m.Gone) && !touched {
		return
	}
	if s.cfg.Trace.Enabled() {
		s.cfg.Trace.Addf(int64(s.clock.Now()), int(s.id), "", trace.ServerSynced, "seq now %d", s.maxLastSeq())
	}
	s.notify()
	if s.journal != nil {
		s.journal.MaybeCompact()
	}
}

// OnAgentDeath implements agent.DeathListener: evict the dead agent's lock
// entries and release its grants, so a crashed agent never wedges a queue.
func (s *Server) OnAgentDeath(id agent.ID) {
	if s.down {
		return
	}
	if s.markGone(id) {
		if s.cfg.Trace.Enabled() {
			s.cfg.Trace.Addf(int64(s.clock.Now()), int(s.id), id.String(), trace.LockReleased, "agent died")
		}
		s.notify()
	}
}

// Crash models a fail-stop failure: all volatile locking state is lost; the
// committed stores survive (stable storage). The caller is responsible for
// also marking the node down in the network and killing resident agents —
// the cluster layer in internal/core orchestrates all three.
func (s *Server) Crash() {
	// Detach durability first: a dead node journals nothing, and the
	// volatile wipe below must not masquerade as protocol mutations. The
	// cluster layer additionally kills the journal's log handle and crashes
	// the backing disk.
	s.journal = nil
	for _, sd := range s.shards {
		sd.st.SetJournal(nil)
	}
	s.down = true
	for shrd, sd := range s.shards {
		sd.ll = nil
		sd.cache = make(map[runtime.NodeID]QueueSnapshot)
		s.setGrant(shrd, agent.ID{})
		sd.backlog = make(map[uint64]store.Update)
	}
	// gone survives: it is derived from committed state and death notices,
	// and keeping it only ever suppresses already-finished agents.
	s.cfg.Trace.Addf(int64(s.clock.Now()), int(s.id), "", trace.ServerCrashed, "")
}

// Recover brings the server back: it bumps its epoch (so agents can tell
// post-recovery snapshots from pre-crash ones) and starts a background sync
// with each shard's group to fetch the updates it missed.
func (s *Server) Recover() {
	s.down = false
	s.epoch++
	for _, sd := range s.shards {
		s.bump(sd, true) // the (now empty) LL is a fresh head state
	}
	s.cfg.Trace.Addf(int64(s.clock.Now()), int(s.id), "", trace.ServerRecover, "epoch %d", s.epoch)
	s.RequestSync()
}

// Restart is the durable counterpart of Recover: the server comes back
// from its journal rather than from nothing. j is the freshly re-opened
// journal and st the state it replayed (nil on an empty log). Like Recover
// it ends with an anti-entropy round — the WAL restores what this replica
// committed; the peers supply what it missed while down.
func (s *Server) Restart(j *durable.Journal, st *durable.State) {
	s.down = false
	for _, sd := range s.shards {
		sd.cache = make(map[runtime.NodeID]QueueSnapshot)
		sd.backlog = make(map[uint64]store.Update)
	}
	if st != nil {
		s.restore(st)
	} else {
		s.epoch++
		for _, sd := range s.shards {
			s.bump(sd, true)
		}
	}
	if j != nil {
		s.attachJournal(j)
		s.logLockAll(true) // make the recovery epoch durable immediately
	}
	s.cfg.Trace.Addf(int64(s.clock.Now()), int(s.id), "", trace.ServerRecover, "epoch %d, seq %d restored", s.epoch, s.maxLastSeq())
	s.RequestSync()
}

// IsGone reports whether this server knows the agent to have finished or
// died.
func (s *Server) IsGone(id agent.ID) bool { return s.gone.Contains(id) }

// Gone returns the residue of the server's gone set — the finished or dead
// agents no watermark covers yet — in ascending ID order.
func (s *Server) Gone() []agent.ID {
	_, ids := s.gone.Export()
	return ids
}

// GoneResidue returns the residue's size without copying it — the ops plane
// samples it on every scrape.
func (s *Server) GoneResidue() int { return len(s.gone.IDs()) }

// Watermarks returns the gone set's per-home watermarks.
func (s *Server) Watermarks() []agent.Watermark {
	marks, _ := s.gone.Export()
	return marks
}

// Peers returns the other replica IDs, sorted.
func (s *Server) Peers() []runtime.NodeID {
	out := make([]runtime.NodeID, len(s.peers))
	copy(out, s.peers)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
