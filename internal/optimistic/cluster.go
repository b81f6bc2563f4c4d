package optimistic

import (
	"errors"
	"fmt"
	"hash/fnv"
	"time"

	"repro/internal/disk"
	"repro/internal/durable"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/store"
)

// Outcome is one locally submitted action's lifecycle, as observed at its
// origin. TentativeAt is when the local tentative commit was acknowledged —
// the optimistic protocol's ALT; StableAt is when the origin's own election
// promoted it (zero while still tentative); Aborted marks guard losers.
type Outcome struct {
	Txn    string
	Key    string
	Origin runtime.NodeID
	Shard  int

	SubmittedAt runtime.Time
	TentativeAt runtime.Time
	StableAt    runtime.Time
	Aborted     bool
}

// stabilityBuckets spans one gossip round (tens of ms) to a WAN ring under
// loss (tens of seconds), in seconds.
var stabilityBuckets = []float64{
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50,
}

// Cluster drives the locally hosted optimistic replicas over a fabric,
// mirroring core.Cluster's shape: under simulation it hosts all N, live
// each process hosts one. Single-threaded like everything behind the seam —
// callers outside the engine context go through transport's Do.
type Cluster struct {
	cfg   Config
	eng   runtime.Engine
	fab   runtime.Fabric
	nodes []runtime.NodeID // locally hosted, ascending
	reps  map[runtime.NodeID]*replica

	backends map[runtime.NodeID]disk.Backend
	// clockBase is added to the engine clock to form physical time (see
	// AdvanceClock): zero under simulation, the wall clock's offset live.
	clockBase int64

	registry   *metrics.Registry
	mSubmits   *metrics.Counter
	mAgents    *metrics.Counter
	mHops      *metrics.Counter
	mCarried   *metrics.Counter
	mRedundant *metrics.Counter
	mLag       *metrics.Histogram

	outcomes []Outcome      // in submit order
	byTxn    map[string]int // TxnID -> index into outcomes, of the undecided ones
	stable   int            // outcomes with StableAt set
	aborted  int            // outcomes with Aborted set
	sizeBuf  []byte         // send's scratch: an agent's size is its encoding's length
	closed   bool
}

// NewCluster assembles the locally hosted replicas on eng and fab, opens
// their journals when durability is configured, and starts the staggered
// gossip schedule.
func NewCluster(eng runtime.Engine, fab runtime.Fabric, cfg Config) (*Cluster, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	local := cfg.Local
	if len(local) == 0 {
		local = make([]runtime.NodeID, cfg.N)
		for i := range local {
			local[i] = runtime.NodeID(i + 1)
		}
	}
	c := &Cluster{
		cfg:      cfg,
		eng:      eng,
		fab:      fab,
		nodes:    local,
		reps:     make(map[runtime.NodeID]*replica, len(local)),
		backends: make(map[runtime.NodeID]disk.Backend),
		byTxn:    make(map[string]int),
	}
	c.initMetrics()
	for _, id := range local {
		if id < 1 || int(id) > cfg.N {
			return nil, fmt.Errorf("optimistic: local node %d outside 1..%d", id, cfg.N)
		}
		if _, dup := c.reps[id]; dup {
			return nil, fmt.Errorf("optimistic: local node %d listed twice", id)
		}
		rep := newReplica(c, id)
		if cfg.Durability != nil {
			if err := c.openJournal(rep); err != nil {
				return nil, err
			}
		}
		c.reps[id] = rep
		r := rep
		fab.Attach(id, runtime.HandlerFunc(func(msg runtime.Message) {
			if ag, ok := msg.Payload.(*Recon); ok {
				r.onRecon(ag)
			}
		}))
	}
	c.registerMetrics()
	// Staggered periodic gossip: replica id's first launch lands at
	// G + G*(id-1)/N, then every G — launches never collide cluster-wide.
	for _, id := range local {
		rep := c.reps[id]
		first := cfg.GossipInterval + cfg.GossipInterval*time.Duration(int(id)-1)/time.Duration(cfg.N)
		c.armGossip(rep, first)
	}
	return c, nil
}

// AdvanceClock makes physical time, which the replicas' hybrid clocks never
// read below, at least min from now on; it keeps advancing with the engine
// clock from there. A live node calls it with the wall clock, so that the
// processes of a cluster share one physical time although each engine clock
// starts at zero with its process. Safety never depends on it: a clock that
// lags only makes stability wait as it would under plain Lamport clocks.
func (c *Cluster) AdvanceClock(min int64) {
	if base := min - int64(c.eng.Now()); base > c.clockBase {
		c.clockBase = base
	}
}

// physical is the time the hybrid clocks track, in nanoseconds.
func (c *Cluster) physical() int64 { return int64(c.eng.Now()) + c.clockBase }

func (c *Cluster) armGossip(rep *replica, d time.Duration) {
	c.eng.AfterFunc(d, func() {
		if c.closed {
			return
		}
		rep.launchGossip()
		c.armGossip(rep, c.cfg.GossipInterval)
	})
}

func (c *Cluster) openJournal(rep *replica) error {
	b := c.backends[rep.id]
	if b == nil {
		b = c.cfg.Durability.Backend(rep.id)
		c.backends[rep.id] = b
	}
	j, st, err := durable.OpenOpt(b, durable.OptOptions{
		Policy:       c.cfg.Durability.Policy,
		SegmentBytes: c.cfg.Durability.SegmentBytes,
		CompactEvery: c.cfg.Durability.CompactEvery,
	})
	if err != nil {
		return fmt.Errorf("optimistic: opening journal for node %d: %w", rep.id, err)
	}
	if err := rep.restore(st); err != nil {
		j.Kill()
		return err
	}
	rep.journal = j
	j.SetSource(func() *durable.OptState { return c.snapshotState(rep) })
	return nil
}

// snapshotState assembles the compaction snapshot from the replica's live
// structures: the stable prefix whole, with constraint metadata for as long
// as the history holds the action; the overlay; the losers the history
// still holds; and the counts of what it has dropped.
func (c *Cluster) snapshotState(rep *replica) *durable.OptState {
	st := &durable.OptState{Dropped: make([][]uint64, c.cfg.Shards)}
	for s := 0; s < c.cfg.Shards; s++ {
		for i := 0; i < rep.st[s].StableLen(); i++ {
			rec := durable.OptRecord{U: rep.st[s].StableAt(i)}
			if a := rep.held(s, rec.U.TxnID); a != nil {
				rec.Guard, rec.Deps = a.Guard, a.Deps
			}
			st.Stable = append(st.Stable, rec)
		}
		for _, u := range rep.st[s].Overlay() {
			st.Overlay = append(st.Overlay, recordOf(rep.staged(s, u.TxnID)))
		}
		st.Dropped[s] = make([]uint64, c.cfg.N)
		for o := range rep.hist[s] {
			h := &rep.hist[s][o]
			st.Dropped[s][o] = h.base
			for i := range h.acts {
				// Elected and lost: delivered, but in neither tier.
				a := &h.acts[i]
				if txn := a.TxnID(); !rep.st[s].InOverlay(txn) && !rep.st[s].InStable(txn) {
					st.Aborted = append(st.Aborted, recordOf(a))
				}
			}
		}
	}
	return st
}

// --- client surface -----------------------------------------------------

// Submit commits key=data tentatively at home, returning the TxnID. The
// call completes at local latency; stability arrives asynchronously
// (Outcomes reports both timestamps).
func (c *Cluster) Submit(home runtime.NodeID, key, data string) (string, error) {
	return c.SubmitCAS(home, key, data, "")
}

// SubmitCAS is Submit with a CAS guard: the action is promoted only if, at
// its election, key's last stable writer is guard (GuardUnwritten for "no
// stable version yet"). Losers abort identically everywhere.
func (c *Cluster) SubmitCAS(home runtime.NodeID, key, data, guard string) (string, error) {
	rep := c.reps[home]
	if rep == nil {
		return "", fmt.Errorf("optimistic: node %d is not hosted locally", home)
	}
	submitted := c.eng.Now()
	a, err := rep.submit(key, data, guard)
	if err != nil {
		return "", err
	}
	txn := a.TxnID()
	c.mSubmits.Inc()
	c.byTxn[txn] = len(c.outcomes)
	c.outcomes = append(c.outcomes, Outcome{
		Txn: txn, Key: key, Origin: home, Shard: a.Shard,
		SubmittedAt: submitted, TentativeAt: c.eng.Now(),
	})
	rep.tryPromote() // N=1 degenerates to immediate stability
	return txn, nil
}

// Read returns home's view of key: the stable value, or with tentative set
// the overlay's last writer (what the submitting client observed).
func (c *Cluster) Read(home runtime.NodeID, key string, tentative bool) (store.Value, bool, error) {
	rep := c.reps[home]
	if rep == nil {
		return store.Value{}, false, fmt.Errorf("optimistic: node %d is not hosted locally", home)
	}
	if rep.down {
		return store.Value{}, false, fmt.Errorf("optimistic: node %d is down", home)
	}
	s := shard.Of(key, c.cfg.Shards)
	if tentative {
		v, ok := rep.st[s].TentativeGet(key)
		return v, ok, nil
	}
	v, ok := rep.st[s].Get(key)
	return v, ok, nil
}

// undecided returns txn's outcome if it was submitted here, at node at, and
// is still tentative. It is asked once per election: the outcome is about to
// be decided, and the index forgets it.
func (c *Cluster) undecided(at runtime.NodeID, txn string) *Outcome {
	if i, ok := c.byTxn[txn]; ok && c.outcomes[i].Origin == at {
		delete(c.byTxn, txn)
		return &c.outcomes[i]
	}
	return nil
}

func (c *Cluster) noteStable(at runtime.NodeID, txn string, now runtime.Time) {
	if o := c.undecided(at, txn); o != nil {
		o.StableAt = now
		c.stable++
		c.mLag.Observe(now.Sub(o.SubmittedAt).Seconds())
	}
}

func (c *Cluster) noteAborted(at runtime.NodeID, txn string) {
	if o := c.undecided(at, txn); o != nil {
		o.Aborted = true
		c.aborted++
	}
}

// Outcomes returns every locally submitted action's lifecycle in submit
// order.
func (c *Cluster) Outcomes() []Outcome { return append([]Outcome(nil), c.outcomes...) }

// Submitted returns how many actions this cluster accepted locally.
func (c *Cluster) Submitted() uint64 { return uint64(len(c.outcomes)) }

// OutcomeCounts tallies Outcomes without copying them: stable at their
// origin, aborted there, still tentative.
func (c *Cluster) OutcomeCounts() (stable, aborted, pending int) {
	return c.stable, c.aborted, len(c.outcomes) - c.stable - c.aborted
}

// --- run control --------------------------------------------------------

// decided is a replica's count of elected actions (stable + aborted),
// summed over shards. Identical at every replica once converged — the
// election is deterministic.
func (c *Cluster) decided(rep *replica) uint64 {
	n := rep.aborted
	for s := range rep.st {
		n += uint64(rep.st[s].StableLen())
	}
	return n
}

// Drained reports whether every locally hosted replica is up, has elected
// exactly expect actions, and holds nothing tentative or parked.
func (c *Cluster) Drained(expect uint64) bool {
	for _, id := range c.nodes {
		rep := c.reps[id]
		if rep.down || c.decided(rep) != expect {
			return false
		}
		for s := range rep.st {
			if rep.st[s].OverlayLen() != 0 {
				return false
			}
			for _, hb := range rep.hold[s] {
				if len(hb) != 0 {
					return false
				}
			}
		}
	}
	return true
}

// RunUntilDone runs the engine until every locally submitted action is
// stable (or aborted) at every locally hosted replica — the whole-cluster
// condition when one process hosts all N (simulation). Live processes,
// which see only their own submissions, use RunUntilStable with the
// cross-process total instead.
func (c *Cluster) RunUntilDone(maxVirtual time.Duration) error {
	return c.RunUntilStable(maxVirtual, c.Submitted())
}

// RunUntilStable runs the engine until Drained(expect) holds.
func (c *Cluster) RunUntilStable(maxVirtual time.Duration, expect uint64) error {
	switch err := c.eng.Wait(maxVirtual, func() bool { return c.Drained(expect) }); {
	case err == nil:
		return nil
	case errors.Is(err, runtime.ErrStalled):
		return fmt.Errorf("optimistic: event queue drained before stability (deadlock)")
	default:
		return fmt.Errorf("optimistic: not stable at %d elections after %v", expect, maxVirtual)
	}
}

// Settle advances time by d (virtual under simulation).
func (c *Cluster) Settle(d time.Duration) { c.eng.Sleep(d) }

// Close stops the gossip schedule and cleanly closes open journals.
func (c *Cluster) Close() error {
	c.closed = true
	var first error
	for _, id := range c.nodes {
		rep := c.reps[id]
		if rep.journal != nil {
			if err := rep.journal.Close(); err != nil && first == nil {
				first = err
			}
			rep.journal = nil
		}
	}
	return first
}

// --- state inspection ---------------------------------------------------

// N returns the configured cluster size.
func (c *Cluster) N() int { return c.cfg.N }

// Now returns the engine's current time (virtual under simulation).
func (c *Cluster) Now() runtime.Time { return c.eng.Now() }

// Shards returns the keyspace shard count.
func (c *Cluster) Shards() int { return c.cfg.Shards }

// LocalNodes returns the locally hosted node IDs, ascending.
func (c *Cluster) LocalNodes() []runtime.NodeID {
	out := make([]runtime.NodeID, len(c.nodes))
	copy(out, c.nodes)
	return out
}

// Down reports whether a locally hosted node is crashed.
func (c *Cluster) Down(id runtime.NodeID) bool {
	rep := c.reps[id]
	return rep == nil || rep.down
}

// HasDurability reports whether replicas are journaled (the precondition
// for Crash/Recover).
func (c *Cluster) HasDurability() bool { return c.cfg.Durability != nil }

// StableLog returns node id's stable prefix for one shard, in election
// order.
func (c *Cluster) StableLog(id runtime.NodeID, shard int) ([]store.Update, error) {
	rep := c.reps[id]
	if rep == nil {
		return nil, fmt.Errorf("optimistic: node %d is not hosted locally", id)
	}
	if shard < 0 || shard >= c.cfg.Shards {
		return nil, fmt.Errorf("optimistic: shard %d outside 0..%d", shard, c.cfg.Shards-1)
	}
	return rep.st[shard].StableLog(), nil
}

// Overlay returns node id's tentative overlay for one shard, in candidate
// order.
func (c *Cluster) Overlay(id runtime.NodeID, shard int) ([]store.Update, error) {
	rep := c.reps[id]
	if rep == nil {
		return nil, fmt.Errorf("optimistic: node %d is not hosted locally", id)
	}
	if shard < 0 || shard >= c.cfg.Shards {
		return nil, fmt.Errorf("optimistic: shard %d outside 0..%d", shard, c.cfg.Shards-1)
	}
	return rep.st[shard].Overlay(), nil
}

// StableDigest folds node id's per-shard stable-prefix digests into one
// order-dependent digest plus the total stable length.
func (c *Cluster) StableDigest(id runtime.NodeID) (string, int, error) {
	rep := c.reps[id]
	if rep == nil {
		return "", 0, fmt.Errorf("optimistic: node %d is not hosted locally", id)
	}
	digest, n := foldShardDigests(rep.st)
	return digest, n, nil
}

// CheckConvergence verifies that every up, locally hosted replica holds the
// identical stable prefix per shard — the optimistic analogue of the
// pessimistic invariant-2 check, over the stable tier only (overlays
// legitimately diverge until elected).
func (c *Cluster) CheckConvergence() error {
	for s := 0; s < c.cfg.Shards; s++ {
		var ref *store.Staged
		var refNode runtime.NodeID
		for _, id := range c.nodes {
			rep := c.reps[id]
			if rep.down {
				continue
			}
			st := rep.st[s]
			if ref == nil {
				ref, refNode = st, id
				continue
			}
			if st.StableLen() != ref.StableLen() {
				return fmt.Errorf("optimistic: shard %d: node %d has %d stable, node %d has %d", s, id, st.StableLen(), refNode, ref.StableLen())
			}
			for i := 0; i < st.StableLen(); i++ {
				if st.StableAt(i) != ref.StableAt(i) {
					return fmt.Errorf("optimistic: shard %d: node %d stable[%d] = %+v, node %d has %+v", s, id, i, st.StableAt(i), refNode, ref.StableAt(i))
				}
			}
		}
	}
	return nil
}

// --- fault injection ----------------------------------------------------

// Crash fail-stops node id: the fabric drops its traffic, its volatile
// state is lost, and its disk forgets everything past the last fsync.
// Requires durability — a volatile optimistic replica holds the only copy
// of its own un-gossiped actions, so crashing one would violate the
// protocol's model (peers can never complete their frontiers).
func (c *Cluster) Crash(id runtime.NodeID) error {
	rep := c.reps[id]
	if rep == nil || rep.down {
		return nil
	}
	if c.cfg.Durability == nil {
		return fmt.Errorf("optimistic: Crash(%d) without durability would lose the only copy of its actions", id)
	}
	cr, ok := c.fab.(runtime.Crasher)
	if !ok {
		return nil // the fabric cannot fail-stop nodes
	}
	cr.SetDown(id, true)
	rep.crash()
	if dc, ok := c.backends[id].(disk.Crasher); ok {
		dc.Crash()
	}
	return nil
}

// Recover restarts a crashed node: replay the journal, rebuild the replica,
// rejoin the fabric. Lost foreign deliveries come back from peers once the
// fresh self-report advertises the decreased vectors.
func (c *Cluster) Recover(id runtime.NodeID) error {
	rep := c.reps[id]
	if rep == nil || !rep.down {
		return nil
	}
	cr, ok := c.fab.(runtime.Crasher)
	if !ok {
		return nil
	}
	if err := c.openJournal(rep); err != nil {
		return err
	}
	cr.SetDown(id, false)
	rep.down = false
	return nil
}

// PartitionNet splits the fabric into disconnected groups (no-op when it
// cannot partition).
func (c *Cluster) PartitionNet(groups ...[]runtime.NodeID) {
	if p, ok := c.fab.(runtime.Partitioner); ok {
		p.Partition(groups...)
	}
}

// HealNet removes all partitions. No explicit sync is needed: the periodic
// gossip schedule is the anti-entropy path, and the next round crosses the
// healed links.
func (c *Cluster) HealNet() {
	if p, ok := c.fab.(runtime.Partitioner); ok {
		p.Heal()
	}
}

// SetLoss sets the fabric's dynamic loss level (no-op without a fault
// model).
func (c *Cluster) SetLoss(p float64) {
	if lc, ok := c.fab.(runtime.LossController); ok {
		lc.SetExtraLoss(p)
	}
}

// --- metrics ------------------------------------------------------------

// Metrics returns the cluster's registry. Read-through collectors sample
// engine-owned state: Gather must run on the engine's execution context.
func (c *Cluster) Metrics() *metrics.Registry { return c.registry }

func (c *Cluster) initMetrics() {
	r := metrics.NewRegistry()
	c.registry = r
	c.mSubmits = r.Counter("marp.opt.submitted", "Actions submitted (tentatively committed) at locally hosted replicas.")
	c.mAgents = r.Counter("marp.opt.gossip_agents", "Reconciliation agents launched by locally hosted replicas.")
	c.mHops = r.Counter("marp.opt.gossip_hops", "Reconciliation-agent hops hosted by locally hosted replicas.")
	c.mCarried = r.Counter("marp.opt.actions_carried", "Actions in the cargo of the reconciliation agents hosted here.")
	c.mRedundant = r.Counter("marp.opt.actions_redundant", "Carried actions the host already held and dropped.")
	c.mLag = r.Histogram("marp.opt.stability_lag",
		"Submit-to-stable latency of locally submitted actions, at their origin (seconds).", stabilityBuckets)
}

func (c *Cluster) registerMetrics() {
	r := c.registry
	sum := func(per func(rep *replica) float64) func() float64 {
		return func() float64 {
			var v float64
			for _, id := range c.nodes {
				v += per(c.reps[id])
			}
			return v
		}
	}
	r.GaugeFunc("marp.opt.tentative_depth", "Tentative overlay entries across locally hosted replicas.",
		sum(func(rep *replica) float64 {
			var n int
			for s := range rep.st {
				n += rep.st[s].OverlayLen()
			}
			return float64(n)
		}))
	r.CounterFunc("marp.opt.promotions", "Updates promoted into stable prefixes across locally hosted replicas.",
		sum(func(rep *replica) float64 {
			var n int
			for s := range rep.st {
				n += rep.st[s].StableLen()
			}
			return float64(n)
		}))
	r.CounterFunc("marp.opt.rollbacks", "Tentative executions displaced (rolled back and re-executed) by out-of-order arrivals.",
		sum(func(rep *replica) float64 {
			var n uint64
			for s := range rep.st {
				n += rep.st[s].Rollbacks()
			}
			return float64(n)
		}))
	r.CounterFunc("marp.opt.aborts", "Election losers (CAS guard failures) discarded across locally hosted replicas.",
		sum(func(rep *replica) float64 { return float64(rep.aborted) }))
	r.GaugeFunc("marp.opt.history_held", "Actions kept in the delivery histories of locally hosted replicas: what is not yet stable everywhere.",
		sum(func(rep *replica) float64 {
			held, _ := rep.historySize()
			return float64(held)
		}))
	r.GaugeFunc("marp.opt.watermark_lag", "Actions decided at a locally hosted replica that are not yet known stable at every replica.",
		sum(func(rep *replica) float64 {
			_, dropped := rep.historySize()
			return float64(c.decided(rep) - dropped)
		}))

	// Fabric: same family the pessimistic cluster reports, so dashboards
	// and the A-series tables read one vocabulary.
	ss, ok := c.fab.(runtime.StatsSource)
	if !ok {
		return
	}
	r.CounterFunc("marp.fabric.messages_sent", "Protocol messages handed to the fabric.",
		func() float64 { return float64(ss.NetStats().MessagesSent) })
	r.CounterFunc("marp.fabric.messages_delivered", "Messages delivered (or handed to the kernel).",
		func() float64 { return float64(ss.NetStats().MessagesDelivered) })
	r.CounterFunc("marp.fabric.messages_dropped", "Messages dropped: destination down, partitioned, or detached.",
		func() float64 { return float64(ss.NetStats().MessagesDropped) })
	r.CounterFunc("marp.fabric.messages_lost", "Messages eaten by the fault model or a dead connection.",
		func() float64 { return float64(ss.NetStats().MessagesLost) })
	r.CounterFunc("marp.fabric.messages_duplicated", "Messages delivered twice by the fault model.",
		func() float64 { return float64(ss.NetStats().MessagesDuplicated) })
	r.CounterFunc("marp.fabric.queue_drops", "Messages dropped by a full per-peer writer queue (live fabric).",
		func() float64 { return float64(ss.NetStats().QueueDrops) })
	r.CounterFunc("marp.fabric.bytes_sent", "Modelled payload bytes handed to the fabric.",
		func() float64 { return float64(ss.NetStats().BytesSent) })
}

// foldShardDigests combines per-shard stable digests into one node-level
// digest (order-dependent within each shard, shard-index order across).
func foldShardDigests(sts []*store.Staged) (string, int) {
	h := fnv.New64a()
	total := 0
	for _, st := range sts {
		d, n := st.StableDigest()
		h.Write([]byte(d))
		h.Write([]byte{0xff})
		total += n
	}
	return fmt.Sprintf("%016x", h.Sum64()), total
}

func (c *Cluster) send(from, to runtime.NodeID, ag *Recon) {
	c.sizeBuf = appendRecon(c.sizeBuf[:0], ag)
	c.fab.Send(runtime.Message{From: from, To: to, Payload: ag, Size: len(c.sizeBuf)})
}
