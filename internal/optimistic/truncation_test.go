package optimistic

// Tests of what a replica keeps: below the stable-everywhere watermark a
// count, above it the actions (DESIGN.md §14, invariant 17).

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/des"
	"repro/internal/runtime"
	"repro/internal/shard"
	"repro/internal/simnet"
	"repro/internal/store"
)

// retained counts the actions the locally hosted replicas hold one by one,
// and the TxnIDs their stores index, of the transactions txns.
func retained(c *Cluster, txns []string) (actions, indexed int) {
	for _, id := range c.nodes {
		rep := c.reps[id]
		held, _ := rep.historySize()
		actions += int(held)
		for _, txn := range txns {
			_, s, _, _ := ParseTxnID(txn)
			if rep.st[s].InStable(txn) || rep.st[s].InOverlay(txn) {
				indexed++
			}
		}
	}
	return actions, indexed
}

// TestFrontierIsDurableBeforeItIsAdvertised: an election batch made of guard
// losers only journals no stable record, and neither an abort record nor the
// foreign tentative before it used to be a barrier — so the next self-report
// advertised deliveries, and now a frontier, that a power cut took back.
// Peers that have seen every frontier pass an action keep a count of it and
// nothing else; a replica that forgot it could not get it back.
func TestFrontierIsDurableBeforeItIsAdvertised(t *testing.T) {
	const victim = runtime.NodeID(2)
	c := newTestCluster(t, 3, true)
	if _, err := c.SubmitCAS(1, "lock", "owner-1", GuardUnwritten); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	// The lock is taken everywhere: this batch is one loser and nothing else.
	loser, err := c.SubmitCAS(3, "lock", "owner-3", GuardUnwritten)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Settle(time.Second) // every report has left, every frontier is heard of
	if s, a, _ := c.OutcomeCounts(); s != 1 || a != 1 {
		t.Fatalf("%d stable, %d aborted; want the winner and the loser", s, a)
	}
	for _, id := range c.nodes {
		if held, dropped := c.reps[id].historySize(); held != 0 || dropped != 2 {
			t.Fatalf("node %d holds %d actions and has dropped %d; want both dropped: nobody can hand %s back", id, held, dropped, loser)
		}
	}

	advertised := c.reps[victim].selfKnow()
	if err := c.Crash(victim); err != nil { // power cut: the disk forgets what was not synced
		t.Fatal(err)
	}
	if err := c.Recover(victim); err != nil {
		t.Fatal(err)
	}
	if restored := c.reps[victim].selfKnow(); !reflect.DeepEqual(restored.Have, advertised.Have) {
		t.Fatalf("node %d advertised deliveries %v and restored %v", victim, advertised.Have, restored.Have)
	}
	if got := c.reps[victim].aborted; got != 1 {
		t.Fatalf("node %d restored %d losers, want 1", victim, got)
	}
	if _, err := c.Submit(1, "k", "after"); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
}

// TestOptimisticHistoryStaysBoundedOverALongRun: what the replicas hold one
// by one — actions in their histories, TxnIDs in their stores' indexes — is
// what is in flight: under a steady load it does not know how many commits
// came before (a run four times as long retains as much, where every commit
// used to stay in both for ever), and at quiescence it is nothing.
func TestOptimisticHistoryStaysBoundedOverALongRun(t *testing.T) {
	const n, perRound = 3, 2
	// Steady load: every replica submits perRound actions per gossip period.
	// Stability takes about two periods and the watermark about two more,
	// so a handful of rounds is in flight. The bound knows none of the run.
	const maxRetained = 16 * n * perRound * n
	run := func(rounds int) (actions, indexed, commits int) {
		c := newTestCluster(t, n, false)
		var txns []string
		for r := 0; r < rounds; r++ {
			for home := runtime.NodeID(1); home <= n; home++ {
				for i := 0; i < perRound; i++ {
					guard := ""
					if (r+i)%5 == 0 {
						guard = GuardUnwritten // mostly losers: they must go too
					}
					txn, err := c.SubmitCAS(home, fmt.Sprint("k", (r+i)%7), fmt.Sprint("v", r), guard)
					if err != nil {
						t.Fatal(err)
					}
					txns = append(txns, txn)
				}
			}
			c.Settle(20 * time.Millisecond)
			if held := c.Metrics().Value("marp.opt.history_held"); held > maxRetained {
				t.Fatalf("round %d of %d: the histories hold %.0f actions, want at most %d", r, rounds, held, maxRetained)
			}
		}
		actions, indexed = retained(c, txns)
		if err := c.RunUntilDone(time.Minute); err != nil {
			t.Fatal(err)
		}
		c.Settle(time.Second)
		if err := c.CheckConvergence(); err != nil {
			t.Fatal(err)
		}
		if a, i := retained(c, txns); a != 0 || i != 0 {
			t.Fatalf("at quiescence after %d commits the replicas hold %d actions and index %d TxnIDs, want none", len(txns), a, i)
		}
		if lag := c.Metrics().Value("marp.opt.watermark_lag"); lag != 0 {
			t.Fatalf("marp.opt.watermark_lag = %.0f at quiescence", lag)
		}
		if _, stable, err := c.StableDigest(1); err != nil || uint64(stable)+c.reps[1].aborted != uint64(len(txns)) {
			t.Fatalf("%d stable + %d aborted of %d submitted (%v): the stable log must stay whole", stable, c.reps[1].aborted, len(txns), err)
		}
		return actions, indexed, len(txns)
	}
	a1, i1, c1 := run(250)
	a4, i4, c4 := run(1000)
	t.Logf("under load, after %d commits: %d actions held, %d TxnIDs indexed; after %d: %d, %d", c1, a1, i1, c4, a4, i4)
	// The load is periodic, so the two runs are caught at the same point of a
	// round: a round's worth of difference would already be a trend.
	const round = n * perRound * n
	if a1 == 0 || i1 == 0 || a4 > a1+round || i4 > i1+round {
		t.Fatalf("retained under load: %d actions and %d TxnIDs after %d commits, %d and %d after %d; want as much, and something", a1, i1, c1, a4, i4, c4)
	}
}

// TestReportSupersedes: which of two self-reports of one origin a replica
// keeps. A quiescent cluster's clocks stand still, so "newer" cannot be the
// clock alone.
func TestReportSupersedes(t *testing.T) {
	cur := KnowEntry{Node: 2, Clock: 9, Counts: []uint64{4}, Have: [][]uint64{{3, 4, 1}}, Frontier: []int64{5}}
	for _, tc := range []struct {
		name string
		e    KnowEntry
		want bool
	}{
		{"newer clock, fewer deliveries (a restart)", KnowEntry{Node: 2, Clock: 64, Counts: []uint64{4}, Have: [][]uint64{{1, 4, 0}}, Frontier: []int64{0}}, true},
		{"older clock, more of everything (cannot happen; the clock decides)", KnowEntry{Node: 2, Clock: 8, Counts: []uint64{4}, Have: [][]uint64{{9, 9, 9}}, Frontier: []int64{9}}, false},
		{"the same report again", cur, false},
		{"same clock, one more delivery", KnowEntry{Node: 2, Clock: 9, Counts: []uint64{4}, Have: [][]uint64{{3, 4, 2}}, Frontier: []int64{5}}, true},
		{"same clock, one delivery fewer (a stale copy)", KnowEntry{Node: 2, Clock: 9, Counts: []uint64{4}, Have: [][]uint64{{2, 4, 1}}, Frontier: []int64{5}}, false},
		{"same clock, frontier raised", KnowEntry{Node: 2, Clock: 9, Counts: []uint64{4}, Have: [][]uint64{{3, 4, 1}}, Frontier: []int64{9}}, true},
		{"same clock, frontier behind (a stale copy)", KnowEntry{Node: 2, Clock: 9, Counts: []uint64{4}, Have: [][]uint64{{3, 4, 1}}, Frontier: []int64{4}}, false},
	} {
		if got := tc.e.supersedes(cur); got != tc.want {
			t.Errorf("%s: supersedes = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestCutOffReplicaFreezesTheWatermark: while one replica cannot be heard
// from, no frontier of its arrives, the watermark stands still and whatever
// is submitted meanwhile stays in the histories of those that have it — the
// cut-off replica lacks it. After the partition heals it catches up from
// them, and then everybody lets go.
func TestCutOffReplicaFreezesTheWatermark(t *testing.T) {
	const n, cut = 3, runtime.NodeID(3)
	c := newTestCluster(t, n, false)
	for home := runtime.NodeID(1); home <= n; home++ {
		submitN(t, c, home, 100*int(home), 10)
	}
	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Settle(time.Second)
	if held := c.Metrics().Value("marp.opt.history_held"); held != 0 {
		t.Fatalf("%.0f actions held at quiescence", held)
	}
	frozen := append([]int64(nil), c.reps[1].front[0]...)

	c.PartitionNet([]runtime.NodeID{1, 2}, []runtime.NodeID{cut})
	submitN(t, c, 1, 1000, 25)
	submitN(t, c, 2, 2000, 25)
	c.Settle(5 * time.Second)
	for _, id := range []runtime.NodeID{1, 2} {
		rep := c.reps[id]
		if got := rep.front[0][cut-1]; got != frozen[cut-1] {
			t.Fatalf("node %d heard frontier %d of the cut-off node, had %d before the cut", id, got, frozen[cut-1])
		}
		// Its own 25 at the least; what it has of the other's, too.
		if h := &rep.hist[0][id-1]; h.held() != 25 || h.base != 10 {
			t.Fatalf("node %d holds %d of its own actions above a count of %d, want 25 above 10", id, h.held(), h.base)
		}
		for o := range rep.hist[0] {
			if h := &rep.hist[0][o]; h.base != 10 {
				t.Fatalf("node %d dropped %d of origin %d's actions while node %d had 10", id, h.base, o+1, cut)
			}
		}
	}
	if got := c.reps[cut].hist[0][0].count(); got != 10 {
		t.Fatalf("the cut-off node has %d of node 1's actions, want the 10 from before", got)
	}

	c.HealNet()
	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Settle(time.Second)
	if err := c.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	for _, id := range c.nodes {
		rep := c.reps[id]
		if held, dropped := rep.historySize(); held != 0 || dropped != 80 {
			t.Fatalf("node %d holds %d actions and has dropped %d after the heal, want 0 and 80", id, held, dropped)
		}
		if rep.st[0].StableLen() != 80 {
			t.Fatalf("node %d has %d stable updates, want 80", id, rep.st[0].StableLen())
		}
	}
}

// fullReplica is the obviously-right history: every action a replica was
// handed, kept for ever in one plain list per (shard, origin), delivered by
// the contiguity rule and nothing else.
type fullReplica struct {
	id     runtime.NodeID
	lists  map[[2]int][]Action
	parked map[[2]int]map[uint64]Action
}

func newFullReplica(id runtime.NodeID) *fullReplica {
	return &fullReplica{id: id, lists: map[[2]int][]Action{}, parked: map[[2]int]map[uint64]Action{}}
}

func (m *fullReplica) submitted(a Action) {
	k := [2]int{a.Shard, int(a.Origin)}
	m.lists[k] = append(m.lists[k], a)
}

func (m *fullReplica) deliver(a Action) {
	if a.Origin == m.id {
		return
	}
	k := [2]int{a.Shard, int(a.Origin)}
	if m.parked[k] == nil {
		m.parked[k] = map[uint64]Action{}
	}
	m.parked[k][a.OSeq] = a
	for {
		next, ok := m.parked[k][uint64(len(m.lists[k]))+1]
		if !ok {
			return
		}
		m.lists[k] = append(m.lists[k], next)
	}
}

// pickCarry is replica.pickCarry over the full lists, told how many of each
// list the replica no longer has.
func (m *fullReplica) pickCarry(to runtime.NodeID, est KnowEntry, known bool, shards, n, room int, base func(s, o int) int) [][]Action {
	var carry [][]Action
	for s := 0; s < shards; s++ {
		for o := 1; o <= n && room > 0; o++ {
			if runtime.NodeID(o) == to {
				continue
			}
			from := 0
			if known {
				from = int(est.Have[s][o-1])
			}
			from = max(from, base(s, o))
			if list := m.lists[[2]int{s, o}]; from < len(list) {
				run := list[from:min(len(list), from+room)]
				carry = append(carry, run)
				room -= len(run)
			}
		}
	}
	return carry
}

// electAll is the election over plain lists: every action ever submitted, in
// candidate order, each guard judged against the winners before it. Every
// replica's stable prefix is a prefix of what it returns.
func electAll(all []Action) []store.Update {
	sorted := append([]Action(nil), all...)
	sortActions(sorted)
	var stable []store.Update
	writer := map[string]string{}
	for _, a := range sorted {
		if a.Guard == GuardUnwritten && writer[a.Key] != "" || a.Guard != "" && a.Guard != GuardUnwritten && writer[a.Key] != a.Guard {
			continue
		}
		u := a.Update()
		u.Seq = uint64(len(stable) + 1)
		stable = append(stable, u)
		writer[a.Key] = u.TxnID
	}
	return stable
}

// TestQuickHistoryMatchesFullLists drives a cluster through random submits
// (plain and guarded), pauses, partitions and heals over a network that
// loses and duplicates agents, with a cargo cap small enough to need several
// rounds — and after every submit and every hosted agent compares each
// replica with plain full lists fed the same actions: the delivery counters
// are the lists' lengths; every action above a history's base is held and is
// the list's; everything below it is decided at every replica (invariant
// 17) and no peer's report asks for it; the cargo packed for each peer is
// what the lists would pack; and the stable prefix, digest included, is a
// prefix of the one election over everything submitted.
func TestQuickHistoryMatchesFullLists(t *testing.T) {
	const n, shards, maxCarry = 4, 2, 3
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim := des.New(seed)
		net := simnet.New(sim, simnet.FullMesh(n), simnet.LAN())
		net.SetFaults(simnet.NewFaultModel(seed, 0.1, 0.1))
		c, err := NewCluster(sim, net, Config{N: n, Shards: shards, GossipInterval: 20 * time.Millisecond, MaxCarry: maxCarry})
		if err != nil {
			t.Fatal(err)
		}
		models := map[runtime.NodeID]*fullReplica{}
		all := make([][]Action, shards)
		ok := true
		fail := func(format string, args ...any) {
			if ok {
				t.Errorf("seed %d at %v: %s", seed, sim.Now(), fmt.Sprintf(format, args...))
			}
			ok = false
		}
		check := func(id runtime.NodeID) {
			r, m := c.reps[id], models[id]
			for s := 0; s < shards; s++ {
				for o := 1; o <= n; o++ {
					h, list := &r.hist[s][o-1], m.lists[[2]int{s, o}]
					if h.count() != uint64(len(list)) {
						fail("node %d counts %d deliveries of origin %d on shard %d; the list has %d", id, h.count(), o, s, len(list))
						return
					}
					for i := range list {
						txn := list[i].TxnID()
						switch got := r.held(s, txn); {
						case uint64(i) >= h.base && (got == nil || !reflect.DeepEqual(*got, list[i])):
							fail("node %d holds %+v for %s above its base %d; the list has %+v", id, got, txn, h.base, list[i])
							return
						case uint64(i) < h.base && got != nil:
							fail("node %d still hands out %s below its base %d", id, txn, h.base)
							return
						case uint64(i) < h.base:
							for _, q := range c.reps {
								if q.hist[s][o-1].count() <= uint64(i) || q.st[s].InOverlay(txn) || q.front[s][q.id-1] < list[i].Stamp {
									fail("node %d dropped %s, which node %d has not decided (frontier %d, stamp %d)", id, txn, q.id, q.front[s][q.id-1], list[i].Stamp)
									return
								}
							}
						}
					}
				}
				want := electAll(all[s])
				got := r.st[s].StableLog()
				if len(got) > len(want) || len(got) > 0 && !reflect.DeepEqual(got, want[:len(got)]) {
					fail("node %d shard %d stable prefix %+v is no prefix of the election %+v", id, s, got, want)
					return
				}
				ref := store.NewStaged()
				for _, u := range got {
					if err := ref.RestoreStable(u); err != nil {
						t.Fatal(err)
					}
				}
				gd, _ := r.st[s].StableDigest()
				if wd, _ := ref.StableDigest(); gd != wd {
					fail("node %d shard %d digest %s; the election's prefix digests to %s", id, s, gd, wd)
					return
				}
			}
			for to := runtime.NodeID(1); to <= n; to++ {
				if to == id {
					continue
				}
				est, known := r.know[to]
				for s := 0; known && s < shards; s++ {
					for o := 1; o <= n; o++ {
						if runtime.NodeID(o) != to && est.Have[s][o-1] < r.hist[s][o-1].base {
							fail("node %d dropped %d of origin %d's actions; node %d's report has %d", id, r.hist[s][o-1].base, o, to, est.Have[s][o-1])
							return
						}
					}
				}
				want := m.pickCarry(to, est, known, shards, n, maxCarry, func(s, o int) int { return int(r.hist[s][o-1].base) })
				if got := r.pickCarry(to); !reflect.DeepEqual(flatten(got), flatten(want)) {
					fail("node %d packs %+v for node %d; the lists would pack %+v", id, got, to, want)
					return
				}
			}
		}
		for _, id := range c.nodes {
			id, r := id, c.reps[id]
			models[id] = newFullReplica(id)
			net.Attach(id, runtime.HandlerFunc(func(msg runtime.Message) {
				ag := msg.Payload.(*Recon)
				for _, run := range ag.Carry {
					for _, a := range run {
						models[id].deliver(a)
					}
				}
				r.onRecon(ag)
				check(id)
			}))
		}
		submit := func() {
			home := runtime.NodeID(1 + rng.Intn(n))
			key, guard := fmt.Sprint("k", rng.Intn(5)), ""
			switch rng.Intn(4) {
			case 0:
				guard = GuardUnwritten
			case 1:
				guard = c.reps[home].st[shard.Of(key, shards)].StableWriter(key)
			}
			txn, err := c.SubmitCAS(home, key, fmt.Sprint("v", len(all[0])+len(all[1])), guard)
			if err != nil {
				t.Fatal(err)
			}
			a := *c.reps[home].staged(shard.Of(key, shards), txn)
			models[home].submitted(a)
			all[a.Shard] = append(all[a.Shard], a)
			check(home)
		}
		for step := 0; step < 60 && ok; step++ {
			switch op := rng.Intn(10); {
			case op < 6:
				submit()
			case op < 8:
				c.Settle(time.Duration(rng.Intn(40)) * time.Millisecond)
			case op < 9:
				split := 1 + rng.Intn(n-1)
				perm := rng.Perm(n)
				var a, b []runtime.NodeID
				for i, p := range perm {
					if i < split {
						a = append(a, runtime.NodeID(p+1))
					} else {
						b = append(b, runtime.NodeID(p+1))
					}
				}
				c.PartitionNet(a, b)
			default:
				c.HealNet()
			}
		}
		c.HealNet()
		if err := c.RunUntilDone(10 * time.Minute); err != nil {
			fail("%v", err)
		}
		c.Settle(2 * time.Second)
		for _, id := range c.nodes {
			check(id)
			if held, _ := c.reps[id].historySize(); held != 0 {
				fail("node %d holds %d actions at quiescence", id, held)
			}
		}
		return ok
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestHistoryMatchesAPlainList: the base + blocks type against a plain
// list that forgets nothing, under random appends (one at a time and in
// bursts longer than a block), drops (random, ending exactly on a block
// boundary, emptying it) and rebuilds the way restore makes them. The
// counter, every lookup, the stamp search and every segment agree at every
// step; a segment never runs past its block, and the segments taken one
// after another make up the list; a segment handed out keeps its contents
// whatever happens to the history afterwards; and what was dropped is let
// go of: never a whole block of it pinned, nothing once the history is
// empty.
func TestHistoryMatchesAPlainList(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h history
		var list []Action
		dropped := 0
		type handedOut struct{ seg, want []Action }
		var out []handedOut
		add := func() {
			a := Action{Origin: 1, OSeq: uint64(len(list) + 1), Stamp: int64(len(list) + 1), Key: fmt.Sprint("k", len(list))}.identified()
			h.add(&a)
			list = append(list, a)
		}
		fail := func(step int, format string, args ...any) bool {
			t.Logf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
			return false
		}
		for step := 0; step < 300; step++ {
			held := len(list) - dropped
			switch op := rng.Intn(20); {
			case op < 8:
				add()
			case op < 10:
				for i := rng.Intn(2*store.BlockLen + 2); i >= 0; i-- {
					add()
				}
			case op < 12:
				k := rng.Intn(held + 1)
				h.drop(k)
				dropped += k
			case op < 13: // to the end of the first block, exactly
				if _, pinned := h.acts.Footprint(); store.BlockLen-pinned <= held {
					k := store.BlockLen - pinned
					h.drop(k)
					dropped += k
				}
			case op < 14:
				h.drop(held)
				dropped += held
			case op < 15: // a rebuild, as restore makes one from the journal
				h = history{base: uint64(dropped)}
				for i := range list[dropped:] {
					h.add(&list[dropped+i])
				}
			default:
				n, room := uint64(rng.Intn(len(list)+2)), 1+rng.Intn(2*store.BlockLen+2)
				seg := h.after(n, room)
				_, pinned := h.acts.Footprint()
				from := min(max(int(n), dropped), len(list))
				want := list[from:min(len(list), from+room)]
				switch {
				case len(seg) > len(want) || len(seg) == 0 && len(want) > 0 || len(seg) > 0 && !reflect.DeepEqual(seg, want[:len(seg)]):
					return fail(step, "after(%d, %d) = %d actions from %+v, want a prefix of the %d from %+v", n, room, len(seg), seg, len(want), want)
				case len(seg) < len(want) && (pinned+from-dropped+len(seg))%store.BlockLen != 0:
					return fail(step, "after(%d, %d) stops after %d of %d short of a block's end", n, room, len(seg), len(want))
				case cap(seg) != len(seg):
					return fail(step, "a segment with spare capacity")
				}
				if got := flatten(carried(&h, room)); from == dropped && !reflect.DeepEqual(got, want) && len(want) > 0 {
					return fail(step, "the segments of %d actions make up %d", len(want), len(got))
				}
				out = append(out, handedOut{seg, append([]Action(nil), seg...)})
			}
			if h.count() != uint64(len(list)) || h.base != uint64(dropped) || h.held() != len(list)-dropped {
				return fail(step, "count %d base %d held %d, want %d, %d and %d", h.count(), h.base, h.held(), len(list), dropped, len(list)-dropped)
			}
			for i := range list {
				got := h.at(uint64(i + 1))
				if i < dropped && got != nil || i >= dropped && (got == nil || !reflect.DeepEqual(*got, list[i])) {
					return fail(step, "at(%d) = %+v with %d dropped", i+1, got, dropped)
				}
			}
			if h.at(0) != nil || h.at(uint64(len(list)+1)) != nil {
				return fail(step, "at() beyond the history answers")
			}
			if stamp := int64(rng.Intn(len(list) + 2)); h.upTo(stamp) != min(max(int(stamp)-dropped, 0), len(list)-dropped) {
				return fail(step, "upTo(%d) = %d with %d dropped of %d", stamp, h.upTo(stamp), dropped, len(list))
			}
			if blocks, pinned := h.acts.Footprint(); pinned >= store.BlockLen || h.held() == 0 && blocks+pinned != 0 || blocks != (pinned+h.held()+store.BlockLen-1)/store.BlockLen {
				return fail(step, "%d blocks, %d dropped actions pinned under %d held", blocks, pinned, h.held())
			}
			for _, o := range out {
				if len(o.seg) > 0 && !reflect.DeepEqual(o.seg, o.want) {
					return fail(step, "a segment handed out earlier changed")
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
