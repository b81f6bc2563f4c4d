package optimistic

// Tests of how the tier represents an action: one strict identity, one copy
// per process in the history, agents that share the history's segments, and
// submit and hop paths whose allocations do not know how long the logs are.

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/runtime"
	"repro/internal/simnet"
)

func newTestCluster(t testing.TB, n int, durable bool) *Cluster {
	t.Helper()
	cfg := Config{N: n, GossipInterval: 20 * time.Millisecond}
	if durable {
		cfg.Durability = &DurabilityConfig{Backend: func(runtime.NodeID) disk.Backend { return disk.NewMem() }}
	}
	sim := des.New(1)
	c, err := NewCluster(sim, simnet.New(sim, simnet.FullMesh(n), simnet.LAN()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func submitN(t testing.TB, c *Cluster, home runtime.NodeID, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		if _, err := c.Submit(home, fmt.Sprint("key-", i), fmt.Sprint("v", i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTxnIDIsStrictAndFixedWidth(t *testing.T) {
	for _, tc := range []struct {
		origin runtime.NodeID
		shard  int
		oseq   uint64
		want   string
	}{
		{1, 0, 1, "o001-s000-000000001"},
		{999, 999, 999999999, "o999-s999-999999999"},
		{0, 0, 0, "o000-s000-000000000"},
		{12, 3, 4567, "o012-s003-000004567"},
	} {
		got := OptTxnID(tc.origin, tc.shard, tc.oseq)
		if got != tc.want {
			t.Errorf("OptTxnID(%d, %d, %d) = %q, want %q", tc.origin, tc.shard, tc.oseq, got, tc.want)
		}
		o, s, q, err := ParseTxnID(got)
		if err != nil || o != tc.origin || s != tc.shard || q != tc.oseq {
			t.Errorf("ParseTxnID(%q) = %d, %d, %d, %v", got, o, s, q, err)
		}
	}
	// Everything fmt.Sscanf used to let through, and the IDs OptTxnID makes
	// for values wider than the padding: unique, but not canonical.
	for _, bad := range []string{
		"", "o1-s2-3", "o+01-s000-000000001", "o001-s000-000000001xyz", "o001-s000-00000001",
		"o001-s000-0000000001", "O001-s000-000000001", "o001_s000-000000001", "o001-s00a-000000001",
		"o001-s000-00000000١", " o001-s000-000000001", "o-01-s000-000000001", "o001-s000--00000001",
		OptTxnID(1000, 0, 1), OptTxnID(1, 1000, 1), OptTxnID(1, 0, 1_000_000_000), OptTxnID(-1, 0, 1),
	} {
		if o, s, q, err := ParseTxnID(bad); err == nil {
			t.Errorf("ParseTxnID(%q) = %d, %d, %d: accepted", bad, o, s, q)
		}
	}
	if a, b := OptTxnID(1000, 0, 1), OptTxnID(100, 0, 1); a == b {
		t.Errorf("out-of-width origin collides: %q", a)
	}
}

// FuzzParseTxnID: whatever parses is the one canonical spelling of what it
// parsed to, so two strings never name one action.
func FuzzParseTxnID(f *testing.F) {
	for _, seed := range []string{
		"o001-s000-000000001", "o999-s999-999999999", "o1-s2-3", "o+01-s000-000000001",
		"o001-s000-000000001xyz", "o001-s000-00000000\x00", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, txn string) {
		o, s, q, err := ParseTxnID(txn)
		if err != nil {
			return
		}
		if back := OptTxnID(o, s, q); back != txn {
			t.Fatalf("ParseTxnID(%q) = %d, %d, %d, which is %q", txn, o, s, q, back)
		}
	})
}

func TestConfigRefusesWhatATxnIDCannotHold(t *testing.T) {
	sim := des.New(1)
	for _, cfg := range []Config{{N: 1000}, {N: 3, Shards: 1000}} {
		if _, err := NewCluster(sim, simnet.New(sim, simnet.FullMesh(3), simnet.LAN()), cfg); err == nil {
			t.Errorf("NewCluster(N=%d, Shards=%d) succeeded", cfg.N, cfg.Shards)
		}
	}
}

func copyRuns(runs [][]Action) [][]Action {
	out := make([][]Action, len(runs))
	for i, run := range runs {
		out[i] = append([]Action(nil), run...)
	}
	return out
}

// flatten is a cargo as the wire carries it: its runs, one after the other.
func flatten(runs [][]Action) []Action {
	var out []Action
	for _, run := range runs {
		out = append(out, run...)
	}
	return out
}

// carried returns the first n of h's held actions packed as pickCarry packs
// them: segments of the history, one per block they span.
func carried(h *history, n int) [][]Action {
	var runs [][]Action
	for from := h.base; n > 0; {
		run := h.after(from, n)
		if len(run) == 0 {
			break
		}
		runs = append(runs, run)
		n -= len(run)
		from = run[len(run)-1].OSeq
	}
	return runs
}

// TestCarriedSegmentsSurviveTheHistoryChanging: an agent's cargo is the
// packing host's history itself — a run that straddles two blocks goes as
// two segments of them, and encodes as the one run would — so nothing the
// host does afterwards — filling its last block and adding more, dropping
// what became stable everywhere, losing it all in a crash and rebuilding it
// from the journal — may reach a packed agent.
func TestCarriedSegmentsSurviveTheHistoryChanging(t *testing.T) {
	c := newTestCluster(t, 3, true)
	const total = blockLen + 40
	submitN(t, c, 1, 0, total)
	r := c.reps[1]
	c.cfg.MaxCarry = total
	carry := r.pickCarry(2)
	c.cfg.MaxCarry = 512
	if got := runLens(carry); !reflect.DeepEqual(got, []int{blockLen, 40}) {
		t.Fatalf("carry runs %v, want [%d 40]: one run in two segments", got, blockLen)
	}
	for i, first := range []uint64{1, blockLen + 1} {
		if &carry[i][0] != r.hist[0][0].at(first) {
			t.Fatalf("segment %d: pickCarry copied the history", i)
		}
		if cap(carry[i]) != len(carry[i]) {
			t.Fatalf("segment %d has spare capacity (%d > %d): appending to it would write into the history", i, cap(carry[i]), len(carry[i]))
		}
	}
	if two, one := appendRecon(nil, &Recon{Carry: carry}), appendRecon(nil, &Recon{Carry: [][]Action{flatten(carry)}}); !bytes.Equal(two, one) {
		t.Fatal("two segments encode differently from the run they make up")
	}
	want := copyRuns(carry)

	submitN(t, c, 1, total, 2000) // into the second block, then past many more
	if !reflect.DeepEqual(carry, want) {
		t.Fatal("appending to the history changed a packed agent's cargo")
	}
	c.Settle(2 * time.Second)
	if h := &r.hist[0][0]; h.base < total {
		t.Fatalf("node 1 dropped %d of its actions after they became stable everywhere, want at least %d", h.base, total)
	}
	if !reflect.DeepEqual(carry, want) {
		t.Fatal("dropping from the history changed a packed agent's cargo")
	}
	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Recover(1); err != nil {
		t.Fatal(err)
	}
	if got := c.reps[1].hist[0][0].count(); got != total+2000 {
		t.Fatalf("recovered history counts %d own actions, want %d", got, total+2000)
	}
	if !reflect.DeepEqual(carry, want) {
		t.Fatal("crash and restore changed a packed agent's cargo")
	}
	for _, a := range flatten(carry) {
		if a.txn != OptTxnID(a.Origin, a.Shard, a.OSeq) {
			t.Fatalf("carried identity %q for action %d of origin %d", a.txn, a.OSeq, a.Origin)
		}
	}
}

// TestPickCarryHonoursMaxCarryAcrossRuns: the cap counts actions, not runs,
// and cuts the last run rather than dropping it.
func TestPickCarryHonoursMaxCarryAcrossRuns(t *testing.T) {
	c := newTestCluster(t, 3, false)
	submitN(t, c, 1, 0, 30)
	submitN(t, c, 2, 100, 30)
	// No time passes: node 3 never reports, so everything is news to it, and
	// nothing becomes stable anywhere, so the histories keep all of it.
	r := c.reps[1]
	handOver(c.reps[2], r)
	r.c.cfg.MaxCarry = 45
	carry := r.pickCarry(3)
	if len(carry) != 2 || len(carry[0]) != 30 || len(carry[1]) != 15 {
		t.Fatalf("carry runs %v, want [30 15]", runLens(carry))
	}
	if carry[1][14].OSeq != 15 || carry[1][0].Origin != 2 {
		t.Fatalf("second run is not origin 2's first 15 actions: %+v", carry[1][14])
	}
}

// handOver delivers all of from's own actions to the replica to, as the last
// hop of one of from's agents would, without the simulator running.
func handOver(from, to *replica) {
	hops := itinerary(from.id, from.c.cfg.N, 0)
	to.onRecon(&Recon{
		From: from.id, Hops: hops, Hop: len(hops) - 1,
		Know: from.knowSnapshot(), Carry: carried(&from.hist[0][from.id-1], from.hist[0][from.id-1].held()),
	})
}

func runLens(runs [][]Action) []int {
	out := make([]int, len(runs))
	for i, run := range runs {
		out[i] = len(run)
	}
	return out
}

// TestSubmitAllocationsDoNotGrowWithTheLogs: a submit builds one identity
// and one outcome; everything else it touches it appends to or reads in
// place, however deep the overlay and however long the history.
func TestSubmitAllocationsDoNotGrowWithTheLogs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	c := newTestCluster(t, 3, false)
	keys := make([]string, 40_000)
	for i := range keys {
		keys[i] = fmt.Sprint("key-", i)
	}
	next := 0
	submit := func() {
		if _, err := c.Submit(1, keys[next], "v"); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for _, depth := range []int{100, 30_000} {
		for next < depth {
			submit()
		}
		if got := c.reps[1].st[0].OverlayLen(); got != depth {
			t.Fatalf("overlay depth %d, want %d", got, depth)
		}
		// Amortised growth of five slices and two maps stays under one
		// object per submit.
		if allocs := testing.AllocsPerRun(2000, submit); allocs > 3 {
			t.Fatalf("a submit over %d tentative actions allocates %.0f objects, want at most 3", depth, allocs)
		}
	}
}

// TestHostingHeldCargoAllocatesAConstant: four carried actions in five are
// already held where they arrive. Hosting such an agent — dropping its
// cargo, running the election, packing and sending its successor — costs
// the successor and its knowledge table, not a function of the cargo or of
// the history the successor shares. A history is only ever long while some
// replica has not been heard from, so one has not: node 3, which the
// successor is for. Its cargo is MaxCarry (512) actions in one segment per
// block they span, nine here, so the successor's list of segments grows
// twice past the N it starts with: 11 objects, where one list of N-1 whole
// runs made 9.
func TestHostingHeldCargoAllocatesAConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, history := range []int{300, 6000} {
		c := newTestCluster(t, 3, false)
		submitN(t, c, 1, 0, history)
		submitN(t, c, 2, history, history)
		from, host := c.reps[1], c.reps[2]
		handOver(from, host) // no time passes: nothing is stable, the histories stay whole
		if got := host.hist[0][0].held(); got != history {
			t.Fatalf("the host holds %d of node 1's %d actions", got, history)
		}
		for _, cargo := range []int{10, history} {
			ag := &Recon{
				From: 1, Seq: 1 << 20, Hops: itinerary(1, 3, 0), Hop: 0,
				Know: from.knowSnapshot(), Carry: carried(&from.hist[0][0], cargo),
			}
			before := c.mRedundant.Value()
			allocs := testing.AllocsPerRun(200, func() { host.onRecon(ag) })
			if got := c.mRedundant.Value() - before; got != uint64(201*cargo) {
				t.Fatalf("%d of %d carried actions counted redundant", got, 201*cargo)
			}
			if allocs > 11 {
				t.Fatalf("hosting %d held actions over a history of %d allocates %.0f objects, want at most 11", cargo, history, allocs)
			}
		}
	}
}
