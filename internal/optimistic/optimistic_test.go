package optimistic_test

// Protocol tests run the optimistic cluster under the deterministic
// simulation engine (via desengine, the same assembly the harness uses):
// convergence to one stable prefix, rollback/abort accounting, and the
// crash-recovery safety property behind DESIGN.md invariant 15.

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/desengine"
	"repro/internal/disk"
	"repro/internal/durable"
	"repro/internal/optimistic"
	"repro/internal/runtime"
	"repro/internal/simnet"
	"repro/internal/store"
	"repro/internal/wire"
)

func newSimCluster(t *testing.T, seed int64, n, shards int, durable bool) *desengine.OptCluster {
	t.Helper()
	return newSimClusterOn(t, seed, n, shards, durable, nil)
}

// newSimClusterOn is newSimCluster on the latency model lat (nil: the LAN).
func newSimClusterOn(t *testing.T, seed int64, n, shards int, durable bool, lat simnet.LatencyModel) *desengine.OptCluster {
	t.Helper()
	cfg := optimistic.Config{N: n, Shards: shards, GossipInterval: 20 * time.Millisecond}
	if durable {
		// A snapshot every few records: compaction runs on whatever the
		// histories have been cut down to, many times in a short run.
		cfg.Durability = &optimistic.DurabilityConfig{
			Backend:      func(runtime.NodeID) disk.Backend { return disk.NewMem() },
			CompactEvery: 8,
		}
	}
	cl, err := desengine.NewOptimistic(desengine.OptConfig{Seed: seed, Latency: lat, Cluster: cfg})
	if err != nil {
		t.Fatalf("NewOptimistic: %v", err)
	}
	return cl
}

// clockTap is a latency model that reads every agent handed to the network
// on its way: the highest clock each replica has advertised in a
// self-report.
type clockTap struct {
	simnet.LatencyModel
	advertised map[runtime.NodeID]int64
}

func (c *clockTap) Sample(net *simnet.Network, msg simnet.Message) time.Duration {
	for _, e := range msg.Payload.(*optimistic.Recon).Know {
		if e.Node == msg.From {
			c.advertised[e.Node] = max(c.advertised[e.Node], e.Clock)
		}
	}
	return c.LatencyModel.Sample(net, msg)
}

func drain(t *testing.T, cl *desengine.OptCluster) {
	t.Helper()
	if err := cl.RunUntilDone(10 * time.Minute); err != nil {
		t.Fatalf("RunUntilDone: %v", err)
	}
	if err := cl.CheckConvergence(); err != nil {
		t.Fatalf("CheckConvergence: %v", err)
	}
}

// TestConvergesToOneStablePrefix: concurrent submits from every node end
// as one identical, digest-verified stable prefix everywhere.
func TestConvergesToOneStablePrefix(t *testing.T) {
	const n = 5
	cl := newSimCluster(t, 1, n, 2, false)
	for i := 0; i < 20; i++ {
		home := runtime.NodeID(i%n + 1)
		if _, err := cl.Submit(home, fmt.Sprintf("key-%d", i%7), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("Submit: %v", err)
		}
	}
	drain(t, cl)
	ref, refN, err := cl.StableDigest(1)
	if err != nil {
		t.Fatal(err)
	}
	if refN != 20 {
		t.Fatalf("stable length %d, want 20", refN)
	}
	for id := runtime.NodeID(2); id <= n; id++ {
		d, dn, err := cl.StableDigest(id)
		if err != nil {
			t.Fatal(err)
		}
		if d != ref || dn != refN {
			t.Fatalf("node %d digest %s/%d, node 1 has %s/%d", id, d, dn, ref, refN)
		}
	}
	// Every outcome stabilized, none aborted, and stability follows the
	// tentative commit.
	for _, o := range cl.Outcomes() {
		if o.Aborted || o.StableAt == 0 {
			t.Fatalf("outcome %+v not stable", o)
		}
		if o.StableAt < o.TentativeAt {
			t.Fatalf("outcome %s stable before tentative", o.Txn)
		}
	}
}

// TestTentativeReadThenStable: a submit is readable tentatively at its
// origin immediately, and becomes the stable value after reconciliation.
func TestTentativeReadThenStable(t *testing.T) {
	cl := newSimCluster(t, 2, 3, 1, false)
	if _, err := cl.Submit(1, "x", "hello"); err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := cl.Read(1, "x", true); !ok || v.Data != "hello" {
		t.Fatalf("tentative read = %+v %v, want hello", v, ok)
	}
	if _, ok, _ := cl.Read(1, "x", false); ok {
		t.Fatal("stable read visible before election")
	}
	drain(t, cl)
	for id := runtime.NodeID(1); id <= 3; id++ {
		if v, ok, _ := cl.Read(id, "x", false); !ok || v.Data != "hello" {
			t.Fatalf("node %d stable read = %+v %v, want hello", id, v, ok)
		}
	}
}

// TestRollbacksCounted: same-key concurrent submits at different origins
// force at least one replica to re-order its overlay, and the instrument
// sees it.
func TestRollbacksCounted(t *testing.T) {
	cl := newSimCluster(t, 3, 3, 1, false)
	if _, err := cl.Submit(1, "k", "from-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Submit(2, "k", "from-2"); err != nil {
		t.Fatal(err)
	}
	drain(t, cl)
	// Both stamped 1; the tie-break orders node 1's first, so node 2 (and
	// anyone who heard node 2 first) rolled back.
	if got := cl.Metrics().Value("marp.opt.rollbacks"); got < 1 {
		t.Fatalf("marp.opt.rollbacks = %v, want >= 1", got)
	}
	for id := runtime.NodeID(1); id <= 3; id++ {
		if v, ok, _ := cl.Read(id, "k", false); !ok || v.Data != "from-2" {
			t.Fatalf("node %d stable k = %+v %v, want last-writer from-2", id, v, ok)
		}
	}
}

// TestCASGuardElectsOneWinner: two replicas racing GuardUnwritten on one
// key elect the same single winner everywhere; the loser aborts.
func TestCASGuardElectsOneWinner(t *testing.T) {
	cl := newSimCluster(t, 4, 3, 1, false)
	t1, err := cl.SubmitCAS(1, "lock", "owner-1", optimistic.GuardUnwritten)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := cl.SubmitCAS(2, "lock", "owner-2", optimistic.GuardUnwritten)
	if err != nil {
		t.Fatal(err)
	}
	if s, a, p := cl.OutcomeCounts(); s != 0 || a != 0 || p != 2 {
		t.Fatalf("OutcomeCounts before any election = %d stable, %d aborted, %d pending; want 0, 0, 2", s, a, p)
	}
	drain(t, cl)
	if s, a, p := cl.OutcomeCounts(); s != 1 || a != 1 || p != 0 {
		t.Fatalf("OutcomeCounts = %d stable, %d aborted, %d pending; want 1, 1, 0", s, a, p)
	}
	var winner, loser optimistic.Outcome
	for _, o := range cl.Outcomes() {
		switch {
		case o.Aborted:
			loser = o
		case o.StableAt != 0:
			winner = o
		}
	}
	if winner.Txn != t1 || loser.Txn != t2 {
		t.Fatalf("winner %s loser %s, want %s / %s (tie-break by origin)", winner.Txn, loser.Txn, t1, t2)
	}
	if got := cl.Metrics().Value("marp.opt.aborts"); got != 3 {
		t.Fatalf("marp.opt.aborts = %v, want 3 (one loser, elected at each of 3 replicas)", got)
	}
	for id := runtime.NodeID(1); id <= 3; id++ {
		if v, ok, _ := cl.Read(id, "lock", false); !ok || v.Data != "owner-1" {
			t.Fatalf("node %d lock = %+v %v, want owner-1", id, v, ok)
		}
	}
}

// TestCrashWithoutDurabilityRefused: a volatile optimistic replica holds
// the only copy of its own actions; Crash must refuse rather than lose it.
func TestCrashWithoutDurabilityRefused(t *testing.T) {
	cl := newSimCluster(t, 5, 3, 1, false)
	if err := cl.Crash(2); err == nil {
		t.Fatal("Crash succeeded without durability")
	}
}

// stableLogs snapshots every shard's stable prefix at one node.
func stableLogs(t *testing.T, cl *desengine.OptCluster, id runtime.NodeID, shards int) [][]store.Update {
	t.Helper()
	out := make([][]store.Update, shards)
	for s := 0; s < shards; s++ {
		log, err := cl.StableLog(id, s)
		if err != nil {
			t.Fatalf("StableLog(%d, %d): %v", id, s, err)
		}
		out[s] = log
	}
	return out
}

// TestQuickStablePrefixSurvivesCrash is the testing/quick property behind
// invariants 15 and 17: kill -9 a replica mid-run (power cut past the last
// fsync), recover it, keep submitting — the stable prefix it had promoted
// before the crash is a prefix of every final stable log, nothing reordered
// or dropped, and the cluster still converges. Truncation, compaction and
// crashes interleave: the journal snapshots every 8 records, the workload
// has CAS losers (which leave no stable record behind), the first crash
// comes after a drained prelude has cut the histories down and snapshotted
// them that way, and a second one hits the quiescent cluster at the end. A
// recovered replica must restore every delivery its advertised frontier
// stands for — its peers may have kept nothing of those but a count — and
// at quiescence exactly the counters it had; and a clock at least as high as
// every clock it ever advertised and every stamp it ever issued, or it could
// stamp an action below a bound its peers have already promoted past.
func TestQuickStablePrefixSurvivesCrash(t *testing.T) {
	const (
		n      = 3
		shards = 2
		victim = runtime.NodeID(2)
	)
	prop := func(seed int64) bool {
		seed &= 0xffff // keep scenario space small and reproducible
		tap := &clockTap{LatencyModel: simnet.LAN(), advertised: map[runtime.NodeID]int64{}}
		cl := newSimClusterOn(t, seed, n, shards, true, tap)
		var issued int64 // the highest stamp the victim has issued
		submit := func(i int) {
			home := runtime.NodeID(i%n + 1)
			if cl.Down(home) {
				home = runtime.NodeID(int(home)%n + 1) // next node up
			}
			var txn string
			var err error
			if i%4 == 3 { // a race for one lock: every entrant but the first loses
				txn, err = cl.SubmitCAS(home, "lock", fmt.Sprintf("s%d-i%d", seed, i), optimistic.GuardUnwritten)
			} else {
				txn, err = cl.Submit(home, fmt.Sprintf("k%d", i%5), fmt.Sprintf("s%d-i%d", seed, i))
			}
			if err != nil {
				t.Errorf("seed %d: Submit: %v", seed, err)
				return
			}
			if home == victim {
				// Nothing is stable the moment it is stamped: the action is in
				// the overlay, with its stamp.
				_, s, _, _ := optimistic.ParseTxnID(txn)
				overlay, _ := cl.Overlay(victim, s)
				for _, u := range overlay {
					if u.TxnID == txn {
						issued = max(issued, u.Stamp)
					}
				}
			}
		}
		// crashAndRecover power-cuts the victim and brings it back, checking
		// what it restores against what it had promised and promoted.
		crashAndRecover := func(during func(), exact bool) bool {
			preCrash := stableLogs(t, cl, victim, shards)
			promised, delivered := cl.Promised(victim), cl.Delivered(victim)
			if err := cl.Crash(victim); err != nil {
				t.Errorf("seed %d: Crash: %v", seed, err)
				return false
			}
			during()
			if err := cl.Recover(victim); err != nil {
				t.Errorf("seed %d: Recover: %v", seed, err)
				return false
			}
			if c := cl.Clock(victim); c < tap.advertised[victim] || c < issued {
				t.Errorf("seed %d: restored clock %d; advertised up to %d, stamped up to %d", seed, c, tap.advertised[victim], issued)
				return false
			}
			// The recovered replica must come back with its stable prefix
			// intact before any new reconciliation touches it.
			postRecover := stableLogs(t, cl, victim, shards)
			for s := 0; s < shards; s++ {
				if len(postRecover[s]) < len(preCrash[s]) {
					t.Errorf("seed %d: shard %d: recovery dropped stable entries (%d -> %d)", seed, s, len(preCrash[s]), len(postRecover[s]))
					return false
				}
				for i, u := range preCrash[s] {
					if postRecover[s][i] != u {
						t.Errorf("seed %d: shard %d: stable[%d] changed across crash: %+v -> %+v", seed, s, i, u, postRecover[s][i])
						return false
					}
				}
			}
			restored := cl.Delivered(victim)
			for s := range restored {
				for o := range restored[s] {
					if restored[s][o] < promised[s][o] || restored[s][o] > delivered[s][o] || exact && restored[s][o] != delivered[s][o] {
						t.Errorf("seed %d: shard %d origin %d: restored %d deliveries; had %d, of which %d promised (all of them: %v)",
							seed, s, o+1, restored[s][o], delivered[s][o], promised[s][o], exact)
						return false
					}
				}
			}
			return true
		}
		drainAndCheck := func(preCrash [][]store.Update) bool {
			if err := cl.RunUntilDone(10 * time.Minute); err != nil {
				t.Errorf("seed %d: RunUntilDone: %v", seed, err)
				return false
			}
			if err := cl.CheckConvergence(); err != nil {
				t.Errorf("seed %d: %v", seed, err)
				return false
			}
			// Invariant 15 end to end: the pre-crash prefix is a prefix of the
			// converged final log at every node.
			for _, id := range cl.LocalNodes() {
				final := stableLogs(t, cl, id, shards)
				for s := 0; s < shards; s++ {
					if len(final[s]) < len(preCrash[s]) {
						t.Errorf("seed %d: node %d shard %d: final stable shorter than pre-crash prefix", seed, id, s)
						return false
					}
					for i, u := range preCrash[s] {
						if final[s][i] != u {
							t.Errorf("seed %d: node %d shard %d: stable[%d] reordered: %+v -> %+v", seed, id, s, i, u, final[s][i])
							return false
						}
					}
				}
			}
			// Quiescent: everything is stable everywhere, and let go of.
			cl.Settle(time.Second)
			if held := cl.Metrics().Value("marp.opt.history_held"); held != 0 {
				t.Errorf("seed %d: %v actions still held at quiescence", seed, held)
				return false
			}
			return true
		}
		// Prelude: a drained run, so that what follows starts from histories
		// that are counts, and from snapshots taken of them.
		for i := 0; i < 8; i++ {
			submit(i)
		}
		if !drainAndCheck(make([][]store.Update, shards)) {
			return false
		}
		// Phase 1: load, then let elections run mid-stream.
		for i := 8; i < 16; i++ {
			submit(i)
		}
		cl.Settle(time.Duration(50+seed%200) * time.Millisecond)
		// Power-cut the victim mid-election and snapshot what it had
		// promoted; barrier'd stable records must all survive.
		preCrash := stableLogs(t, cl, victim, shards)
		ok := crashAndRecover(func() {
			// Phase 2: the survivors keep committing around the crash.
			for i := 16; i < 22; i++ {
				submit(i)
			}
			cl.Settle(time.Duration(30+seed%100) * time.Millisecond)
		}, false)
		if !ok {
			return false
		}
		// Phase 3: more load after recovery, then full drain.
		for i := 22; i < 26; i++ {
			submit(i)
		}
		if !drainAndCheck(preCrash) {
			return false
		}
		// A power cut at quiescence takes nothing: every election batch ended
		// behind a barrier, so the counters come back as they were.
		preCrash = stableLogs(t, cl, victim, shards)
		if !crashAndRecover(func() {}, true) {
			return false
		}
		submit(26)
		return drainAndCheck(preCrash)
	}
	cfg := &quick.Config{MaxCount: 12}
	if testing.Short() {
		cfg.MaxCount = 4
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

func roundTrip(t *testing.T, ag *optimistic.Recon) *optimistic.Recon {
	t.Helper()
	buf, err := wire.AppendMessage(nil, ag)
	if err != nil {
		t.Fatalf("AppendMessage: %v", err)
	}
	r := wire.NewReader(buf)
	v, err := wire.DecodeMessage(r)
	if err != nil {
		t.Fatalf("DecodeMessage: %v", err)
	}
	if err := r.Finish(); err != nil {
		t.Fatalf("trailing bytes: %v", err)
	}
	got, ok := v.(*optimistic.Recon)
	if !ok {
		t.Fatalf("decoded %T, want *optimistic.Recon", v)
	}
	return got
}

// wireFields flattens an agent's cargo into the actions as the wire states
// them: the runs are an in-memory grouping and the cached identity is
// derived, so neither takes part in a field-by-field comparison.
func wireFields(ag *optimistic.Recon) []optimistic.Action {
	var out []optimistic.Action
	for _, run := range ag.Carry {
		for _, a := range run {
			out = append(out, optimistic.Action{
				Origin: a.Origin, OSeq: a.OSeq, Shard: a.Shard, Stamp: a.Stamp,
				Key: a.Key, Data: a.Data, Guard: a.Guard, Deps: a.Deps,
			})
		}
	}
	return out
}

// sameOnWire fails unless got carries every wire field of want.
func sameOnWire(t *testing.T, got, want *optimistic.Recon) {
	t.Helper()
	g, w := *got, *want
	g.Carry, w.Carry = nil, nil
	if fmt.Sprintf("%+v", g) != fmt.Sprintf("%+v", w) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", g, w)
	}
	ga, wa := wireFields(got), wireFields(want)
	if fmt.Sprintf("%+v", ga) != fmt.Sprintf("%+v", wa) {
		t.Fatalf("cargo mismatch:\n got %+v\nwant %+v", ga, wa)
	}
	for _, run := range got.Carry {
		for _, a := range run {
			if want := optimistic.OptTxnID(a.Origin, a.Shard, a.OSeq); a.TxnID() != want {
				t.Fatalf("decoded action is %s, want %s", a.TxnID(), want)
			}
		}
	}
}

func testAgent() *optimistic.Recon {
	return &optimistic.Recon{
		From: 2, Seq: 7,
		Hops: []runtime.NodeID{3, 1}, Hop: 1,
		Know: []optimistic.KnowEntry{
			{Node: 2, Clock: 42, Counts: []uint64{3, 0}, Have: [][]uint64{{1, 2, 3}, {0, 0, 1}}, Frontier: []int64{40, 0}},
			{Node: 1, Clock: 40, Counts: []uint64{1, 1}, Have: [][]uint64{{1, 0, 0}, {1, 0, 0}}, Frontier: []int64{2, 39}},
		},
		Carry: [][]optimistic.Action{
			{
				{Origin: 2, OSeq: 3, Shard: 0, Stamp: 41, Key: "k", Data: "v", Guard: optimistic.GuardUnwritten, Deps: []string{"o001-s000-000000001"}},
				{Origin: 2, OSeq: 4, Shard: 0, Stamp: 43, Key: "k", Data: "w", Deps: []string{"o001-s000-000000001", "o002-s000-000000003"}},
			},
			{{Origin: 1, OSeq: 1, Shard: 1, Stamp: 2, Key: "q", Data: ""}},
		},
	}
}

// TestReconWireRoundTrip: the reconciliation agent survives its wire codec
// byte-exactly (the live fabric migrates it as encoded state).
func TestReconWireRoundTrip(t *testing.T) {
	// Covered via the cluster path too, but the codec deserves a direct
	// check with every field populated.
	ag := testAgent()
	buf, err := wire.AppendMessage(nil, ag)
	if err != nil {
		t.Fatal(err)
	}
	if wire.Size(ag) != len(buf) {
		t.Fatalf("wire.Size = %d, encoding is %d bytes", wire.Size(ag), len(buf))
	}
	got := roundTrip(t, ag)
	sameOnWire(t, got, ag)
	if len(got.Carry) != 1 {
		t.Fatalf("decoded cargo in %d runs, want the wire's one flat list", len(got.Carry))
	}
	again, err := wire.AppendMessage(nil, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, buf) {
		t.Fatal("re-encoding the decoded agent changed its bytes")
	}
}

// TestJournalGoldenBytes: what a replica journals is part of the on-disk
// format, and the representation of an action in memory is not. A fixed run
// — plain writes, same-key dependencies, a CAS race with losers, once as
// bare records and once with a snapshot every 16 — must leave every node's
// journal files byte-identical to a recorded run. Record types 10-13 and
// the snapshot layout (DESIGN.md §14) are the format; a snapshot says how
// much of each history was dropped, keeps the stable updates below that
// bare and the losers below it not at all, so what a node's files hold
// depends on where the watermark stood at its last snapshot — and replaying
// either kind of journal must still yield the one stable prefix and every
// decision. Both sets of hashes were re-recorded when stamps became hybrid
// clock readings in nanoseconds: the values in every stamp and clock
// record changed, the run's order with them, and clock records now ride
// own tentatives' barriers where they used to follow reports; no record's
// encoding changed.
func TestJournalGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		name         string
		compactEvery int
		want         [3]string
	}{
		{"records", -1, [3]string{"0fef919ce980a8c8dcc5c141", "057d8202ab850e5b550bb645", "5c73c2d9fe94727c07d0947e"}},
		{"snapshots", 16, [3]string{"028fa219275f19834f437917", "028fa219275f19834f437917", "d7f19ca71ef418207521c77f"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			disks := map[runtime.NodeID]*disk.Mem{}
			cl, err := desengine.NewOptimistic(desengine.OptConfig{Seed: 18, Cluster: optimistic.Config{
				N: 3, Shards: 2, GossipInterval: 20 * time.Millisecond,
				Durability: &optimistic.DurabilityConfig{
					Backend: func(id runtime.NodeID) disk.Backend {
						disks[id] = disk.NewMem()
						return disks[id]
					},
					CompactEvery: tc.compactEvery,
				},
			}})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 24; i++ {
				home := runtime.NodeID(i%3 + 1)
				if i%6 == 5 {
					_, err = cl.SubmitCAS(home, "lock", fmt.Sprint("owner-", i), optimistic.GuardUnwritten)
				} else {
					_, err = cl.Submit(home, fmt.Sprint("k", i%4), fmt.Sprint("v", i))
				}
				if err != nil {
					t.Fatal(err)
				}
				if i%8 == 7 {
					cl.Settle(35 * time.Millisecond)
				}
			}
			drain(t, cl)
			if cl.Metrics().Value("marp.opt.aborts") == 0 || cl.Metrics().Value("marp.opt.rollbacks") == 0 {
				t.Fatal("the run has no CAS loser or no out-of-order arrival to journal")
			}
			var stable [][]store.Update
			for s := 0; s < 2; s++ {
				log, err := cl.StableLog(1, s)
				if err != nil {
					t.Fatal(err)
				}
				stable = append(stable, log)
			}
			if err := cl.Close(); err != nil {
				t.Fatal(err)
			}
			for id := runtime.NodeID(1); id <= 3; id++ {
				names, err := disks[id].List()
				if err != nil {
					t.Fatal(err)
				}
				sort.Strings(names)
				h := sha256.New()
				for _, name := range names {
					data, err := disks[id].ReadFile(name)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(h, "%s %d\n", name, len(data))
					h.Write(data)
				}
				if got := fmt.Sprintf("%x", h.Sum(nil)[:12]); got != tc.want[id-1] {
					t.Errorf("node %d: journal files %v hash to %s, want %s", id, names, got, tc.want[id-1])
				}

				// What the files mean: 24 decisions, the stable ones in order.
				j, st, err := durable.OpenOpt(disks[id], durable.OptOptions{CompactEvery: -1})
				if err != nil {
					t.Fatal(err)
				}
				j.Kill()
				var dropped, bare, i0, i1 int
				for _, row := range st.Dropped {
					for _, n := range row {
						dropped += int(n)
					}
				}
				for _, rec := range st.Stable {
					origin, s, oseq, err := optimistic.ParseTxnID(rec.U.TxnID)
					if err != nil {
						t.Fatal(err)
					}
					next := &i0
					if s == 1 {
						next = &i1
					}
					if *next >= len(stable[s]) || rec.U != stable[s][*next] {
						t.Fatalf("node %d: replayed stable update %+v is not entry %d of shard %d's prefix", id, rec.U, *next, s)
					}
					*next++
					if len(st.Dropped) > s && oseq <= st.Dropped[s][origin-1] {
						bare++
						if rec.Guard != "" || rec.Deps != nil {
							t.Fatalf("node %d: %s lies below the counts and kept its constraints %q %v", id, rec.U.TxnID, rec.Guard, rec.Deps)
						}
					}
				}
				if i0 != len(stable[0]) || i1 != len(stable[1]) || len(st.Overlay) != 0 {
					t.Fatalf("node %d replays %d + %d stable updates and %d tentative ones, want %d + %d and none", id, i0, i1, len(st.Overlay), len(stable[0]), len(stable[1]))
				}
				if got := len(st.Stable) + len(st.Aborted) + dropped - bare; got != 24 {
					t.Fatalf("node %d replays %d stable + %d lost + %d counted - %d counted and stable = %d decisions, want 24", id, len(st.Stable), len(st.Aborted), dropped, bare, got)
				}
				if (dropped > 0) != (tc.compactEvery > 0) {
					t.Fatalf("node %d: %d actions counted as dropped with CompactEvery %d: bare records say nothing of the watermark, and a snapshot taken this late must", id, dropped, tc.compactEvery)
				}
			}
		})
	}
}
