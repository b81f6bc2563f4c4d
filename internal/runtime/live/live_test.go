package live_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/desengine"
	"repro/internal/disk"
	"repro/internal/replica"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
	"repro/internal/store"
	"repro/internal/wal"
)

// sharedReferee spans all processes of a live cluster: each node's OnGrant
// hook feeds one global single-claimant oracle, restoring the cross-replica
// view the in-process referee has for free on the simulator.
type sharedReferee struct {
	mu  sync.Mutex
	ref *core.Referee
}

func newSharedReferee(n int) *sharedReferee {
	start := time.Now()
	return &sharedReferee{
		ref: core.NewReferee(n, func() runtime.Time { return runtime.Time(time.Since(start)) }),
	}
}

func (s *sharedReferee) onGrant(server runtime.NodeID, shrd int, txn agent.ID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ref.OnGrant(server, shrd, txn)
}

func (s *sharedReferee) report() (wins int, violations []string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ref.Wins(), s.ref.Violations()
}

// startLiveCluster brings up one live node per replica, all in this process,
// wired through real TCP sockets.
func startLiveCluster(t *testing.T, n int, cfg core.Config) ([]*live.Node, *sharedReferee) {
	t.Helper()
	ref := newSharedReferee(n)
	cfg.OnGrant = ref.onGrant
	nodes, err := live.StartCluster(n, func(id runtime.NodeID, addrs map[runtime.NodeID]string) (*live.Node, error) {
		return live.StartNode(live.NodeConfig{Self: id, Addrs: addrs, Seed: int64(100 + id), Cluster: cfg})
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, node := range nodes {
		t.Cleanup(node.Close)
	}
	return nodes, ref
}

// submitAt runs a Submit on the owning node's actor loop.
func submitAt(t *testing.T, node *live.Node, home runtime.NodeID, reqs ...core.Request) {
	t.Helper()
	var err error
	if !node.Eng.Do(func() { err = node.Cluster.Submit(home, reqs...) }) {
		t.Fatal("engine closed during submit")
	}
	if err != nil {
		t.Fatal(err)
	}
}

// fullLog concatenates every shard's commit log of one replica. With one
// shard this is exactly the replica's single log; sharded replicas keep one
// log per shard and equivalence checks must see all of them.
func fullLog(srv *replica.Server) []store.Update {
	var log []store.Update
	for sh := 0; sh < srv.Shards(); sh++ {
		log = append(log, srv.StoreOf(sh).Log()...)
	}
	return log
}

// localLog snapshots the commit log of the node's own replica (all shards).
func localLog(t *testing.T, node *live.Node, self runtime.NodeID) []store.Update {
	t.Helper()
	var log []store.Update
	if !node.Eng.Do(func() { log = fullLog(node.Cluster.Server(self)) }) {
		t.Fatal("engine closed during log read")
	}
	return log
}

// commitSet reduces a log to its engine-independent content: the set of
// (key, txn, data) triples. Seq and Stamp are deliberately excluded — the
// global commit order is an artefact of scheduling, so two correct engines
// (or two runs of the live one) may commit the same transactions in
// different orders.
func commitSet(log []store.Update) map[string]bool {
	set := make(map[string]bool, len(log))
	for _, u := range log {
		set[u.Key+"\x00"+u.TxnID+"\x00"+u.Data] = true
	}
	return set
}

// normalizeTxns rewrites each entry's TxnID ("A<home>.<seq>") to its home
// prefix ("A<home>"). Agent sequence numbers are an engine artefact — the
// simulator allocates them from one cluster-global counter, a live
// deployment from one counter per process — so cross-ENGINE comparison must
// ignore them, while cross-REPLICA comparison within one run keeps them.
func normalizeTxns(set map[string]bool) map[string]bool {
	out := make(map[string]bool, len(set))
	for k := range set {
		parts := strings.SplitN(k, "\x00", 3)
		if i := strings.IndexByte(parts[1], '.'); i >= 0 {
			parts[1] = parts[1][:i]
		}
		out[strings.Join(parts, "\x00")] = true
	}
	return out
}

func equalSets(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// waitConverged polls until every node's local replica holds exactly the
// same commit set of the expected size.
func waitConverged(t *testing.T, nodes []*live.Node, want int, deadline time.Duration) []map[string]bool {
	t.Helper()
	end := time.Now().Add(deadline)
	for {
		sets := make([]map[string]bool, len(nodes))
		ok := true
		for i, node := range nodes {
			sets[i] = commitSet(localLog(t, node, runtime.NodeID(i+1)))
			if len(sets[i]) != want || !equalSets(sets[i], sets[0]) {
				ok = false
			}
		}
		if ok {
			return sets
		}
		if time.Now().After(end) {
			for i := range sets {
				t.Logf("replica %d: %d commits", i+1, len(sets[i]))
			}
			t.Fatalf("replicas did not converge on %d commits within %v", want, deadline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestLiveClusterMigratesAndConverges is the live engine's basic liveness
// check: three replica processes (in-process here, real sockets between
// them), concurrent writers on every node, agents physically migrating as
// serialized state, every replica ending with the identical committed log.
func TestLiveClusterMigratesAndConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test uses wall-clock timeouts")
	}
	nodes, ref := startLiveCluster(t, 3, core.Config{})

	const perNode = 3
	for i, node := range nodes {
		home := runtime.NodeID(i + 1)
		for s := 1; s <= perNode; s++ {
			submitAt(t, node, home, core.Set(fmt.Sprintf("k%d-%d", home, s), fmt.Sprintf("v%d-%d", home, s)))
		}
	}
	for i, node := range nodes {
		if err := node.Cluster.RunUntilDone(30 * time.Second); err != nil {
			t.Fatalf("node %d: %v", i+1, err)
		}
	}
	waitConverged(t, nodes, 3*perNode, 10*time.Second)

	// Agents must have genuinely crossed sockets: every update visits a
	// majority, so each node's platform completed remote migrations.
	migrations := 0
	for _, node := range nodes {
		var st agent.Stats
		node.Eng.Do(func() { st = node.Cluster.Platform().Stats() })
		migrations += st.MigrationsCompleted
	}
	if migrations == 0 {
		t.Fatal("no agent migrations happened — agents never left their home process")
	}

	wins, violations := ref.report()
	if len(violations) > 0 {
		t.Fatalf("shared referee saw %d violation(s): %s", len(violations), violations[0])
	}
	if wins < 3*perNode {
		t.Fatalf("referee saw %d majority wins, want >= %d (one per committed txn)", wins, 3*perNode)
	}
}

// TestCrossEngineEquivalence runs the same workload once on the discrete-
// event simulator and once on a three-process live deployment, then checks
// that both engines commit exactly the same transaction set and that every
// replica of both runs ends in the same final store state.
//
// Equality is on commit *sets*, not sequences: MARP totally orders updates
// within one run (the store's Seq), but which interleaving wins is an
// artefact of scheduling, so the two engines may order commits differently.
// The workload therefore gives every transaction its own key — making the
// final per-key state order-independent — plus one deliberately contended
// key whose committed-writer set must still match even though its final
// value may legitimately differ between engines.
func TestCrossEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test uses wall-clock timeouts")
	}
	const n, perNode = 3, 3
	type write struct {
		home       runtime.NodeID
		key, value string
	}
	var workload []write
	for home := 1; home <= n; home++ {
		for s := 1; s <= perNode; s++ {
			workload = append(workload, write{
				home:  runtime.NodeID(home),
				key:   fmt.Sprintf("k%d-%d", home, s),
				value: fmt.Sprintf("v%d-%d", home, s),
			})
		}
		workload = append(workload, write{
			home:  runtime.NodeID(home),
			key:   "hot",
			value: fmt.Sprintf("h%d", home),
		})
	}
	total := len(workload)

	// Engine 1: the simulator.
	des, err := desengine.New(desengine.Config{Seed: 42, Cluster: core.Config{N: n}})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workload {
		if err := des.Submit(w.home, core.Set(w.key, w.value)); err != nil {
			t.Fatal(err)
		}
	}
	if err := des.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	des.Settle(time.Second)
	if err := des.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	desSet := commitSet(des.Server(1).Store().Log())

	// Engine 2: three live replica processes.
	nodes, ref := startLiveCluster(t, n, core.Config{})
	for _, w := range workload {
		submitAt(t, nodes[w.home-1], w.home, core.Set(w.key, w.value))
	}
	for i, node := range nodes {
		if err := node.Cluster.RunUntilDone(30 * time.Second); err != nil {
			t.Fatalf("live node %d: %v", i+1, err)
		}
	}
	liveSets := waitConverged(t, nodes, total, 10*time.Second)

	if _, violations := ref.report(); len(violations) > 0 {
		t.Fatalf("shared referee saw violations: %s", violations[0])
	}

	// Same transactions committed, on every replica of both engines.
	if !equalSets(normalizeTxns(desSet), normalizeTxns(liveSets[0])) {
		t.Fatalf("commit sets differ:\nsim:  %d commits\nlive: %d commits", len(desSet), len(liveSets[0]))
	}

	// Single-writer keys must agree on final state across engines too.
	for _, w := range workload {
		if w.key == "hot" {
			continue
		}
		dv, ok := des.Read(1, w.key)
		if !ok || dv.Data != w.value {
			t.Fatalf("sim: %s = %q (%v), want %q", w.key, dv.Data, ok, w.value)
		}
		var lv store.Value
		var lok bool
		nodes[0].Eng.Do(func() { lv, lok = nodes[0].Cluster.Read(1, w.key) })
		if !lok || lv.Data != dv.Data {
			t.Fatalf("live: %s = %q (%v), sim has %q", w.key, lv.Data, lok, dv.Data)
		}
	}
}

// keyDigests reduces a commit log to one digest per key: the sorted set of
// (txn, data) pairs committed to that key, joined into a canonical string.
// Commit order is excluded for the same reason commitSet excludes Seq. With
// normalize set, agent sequence numbers are stripped from the TxnIDs (see
// normalizeTxns) so the digests compare across engines.
func keyDigests(log []store.Update, normalize bool) map[string]string {
	byKey := map[string][]string{}
	for _, u := range log {
		txn := u.TxnID
		if normalize {
			if i := strings.IndexByte(txn, '.'); i >= 0 {
				txn = txn[:i]
			}
		}
		byKey[u.Key] = append(byKey[u.Key], txn+"="+u.Data)
	}
	out := make(map[string]string, len(byKey))
	for k, entries := range byKey {
		sort.Strings(entries)
		out[k] = strings.Join(entries, "|")
	}
	return out
}

func equalDigests(t *testing.T, label string, a, b map[string]string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d keys vs %d keys", label, len(a), len(b))
	}
	for k, d := range a {
		if b[k] != d {
			t.Fatalf("%s: key %q digests differ:\n  %s\n  %s", label, k, d, b[k])
		}
	}
}

// TestCrossEngineEquivalenceSharded is the sharded, multi-key version of
// the cross-engine check: the same contended workload — every server
// updates every key of a small universe — runs once on the simulator and
// once on a three-process live deployment, both with four shards. Every
// replica of both runs must end with the same per-key commit-set digest:
// hash routing may spread the keys across shard-local locking lists and
// logs, but it must not lose, duplicate, or cross-wire a single commit.
func TestCrossEngineEquivalenceSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test uses wall-clock timeouts")
	}
	const n, shards, keys = 3, 4, 8
	type write struct {
		home       runtime.NodeID
		key, value string
	}
	var workload []write
	for home := 1; home <= n; home++ {
		for k := 0; k < keys; k++ {
			workload = append(workload, write{
				home:  runtime.NodeID(home),
				key:   fmt.Sprintf("key-%d", k),
				value: fmt.Sprintf("v%d-%d", home, k),
			})
		}
	}
	total := len(workload)

	// Engine 1: the simulator, four shards.
	des, err := desengine.New(desengine.Config{Seed: 42, Cluster: core.Config{N: n, Shards: shards}})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workload {
		if err := des.Submit(w.home, core.Set(w.key, w.value)); err != nil {
			t.Fatal(err)
		}
	}
	if err := des.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	des.Settle(time.Second)
	if err := des.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	desDigest := keyDigests(fullLog(des.Server(1)), false)
	if len(desDigest) != keys {
		t.Fatalf("sim committed to %d keys, want %d", len(desDigest), keys)
	}
	for id := 2; id <= n; id++ {
		equalDigests(t, fmt.Sprintf("sim replica 1 vs %d", id),
			desDigest, keyDigests(fullLog(des.Server(runtime.NodeID(id))), false))
	}

	// Engine 2: three live replica processes, four shards.
	nodes, ref := startLiveCluster(t, n, core.Config{Shards: shards})
	for _, w := range workload {
		submitAt(t, nodes[w.home-1], w.home, core.Set(w.key, w.value))
	}
	for i, node := range nodes {
		if err := node.Cluster.RunUntilDone(30 * time.Second); err != nil {
			t.Fatalf("live node %d: %v", i+1, err)
		}
	}
	waitConverged(t, nodes, total, 10*time.Second)
	if _, violations := ref.report(); len(violations) > 0 {
		t.Fatalf("shared referee saw violations: %s", violations[0])
	}
	liveDigest := keyDigests(localLog(t, nodes[0], 1), false)
	for id := 2; id <= n; id++ {
		equalDigests(t, fmt.Sprintf("live replica 1 vs %d", id),
			liveDigest, keyDigests(localLog(t, nodes[id-1], runtime.NodeID(id)), false))
	}

	// Cross-engine: identical per-key commit sets modulo agent sequence
	// numbers, which are an engine artefact (see normalizeTxns).
	equalDigests(t, "sim vs live",
		keyDigests(fullLog(des.Server(1)), true),
		keyDigests(localLog(t, nodes[0], 1), true))
}

// TestCrossEngineEquivalencePipelined re-runs the sharded cross-engine
// check on the A9 fast path — the wire codec (the only fabric framing) with
// WAL group commit at fsync=commit, commit barriers pipelined behind one
// covering fsync — against the plain simulator reference. Group commit only
// moves fsyncs around; the committed transaction set per key must be
// exactly the one the per-barrier protocol produces.
func TestCrossEngineEquivalencePipelined(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test uses wall-clock timeouts")
	}
	const n, shards, keys = 3, 4, 6
	type write struct {
		home       runtime.NodeID
		key, value string
	}
	var workload []write
	for home := 1; home <= n; home++ {
		for k := 0; k < keys; k++ {
			workload = append(workload, write{
				home:  runtime.NodeID(home),
				key:   fmt.Sprintf("key-%d", k),
				value: fmt.Sprintf("v%d-%d", home, k),
			})
		}
	}
	total := len(workload)

	// Reference: the simulator, no live-path knobs.
	des, err := desengine.New(desengine.Config{Seed: 7, Cluster: core.Config{N: n, Shards: shards}})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workload {
		if err := des.Submit(w.home, core.Set(w.key, w.value)); err != nil {
			t.Fatal(err)
		}
	}
	if err := des.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	des.Settle(time.Second)
	if err := des.CheckConvergence(); err != nil {
		t.Fatal(err)
	}

	// Live cluster on the fast path: group-committed WAL.
	nodes, ref := startLiveCluster(t, n, core.Config{
		Shards: shards,
		Durability: &core.DurabilityConfig{
			Backend:          func(runtime.NodeID) disk.Backend { return disk.NewMem() },
			Policy:           wal.PolicyCommit,
			GroupCommitDelay: 200 * time.Microsecond,
		},
	})
	for _, w := range workload {
		submitAt(t, nodes[w.home-1], w.home, core.Set(w.key, w.value))
	}
	for i, node := range nodes {
		if err := node.Cluster.RunUntilDone(30 * time.Second); err != nil {
			t.Fatalf("live node %d: %v", i+1, err)
		}
	}
	waitConverged(t, nodes, total, 10*time.Second)
	if _, violations := ref.report(); len(violations) > 0 {
		t.Fatalf("shared referee saw violations: %s", violations[0])
	}

	// The optimised run actually used its machinery.
	var batches int
	for _, node := range nodes {
		var js wal.Stats
		if !node.Eng.Do(func() { js = node.Cluster.JournalStats() }) {
			t.Fatal("engine closed during stats read")
		}
		batches += js.GroupBatches
	}
	if batches == 0 {
		t.Fatal("group commit enabled but no batches recorded")
	}

	// Replicas agree among themselves...
	liveDigest := keyDigests(localLog(t, nodes[0], 1), false)
	for id := 2; id <= n; id++ {
		equalDigests(t, fmt.Sprintf("live replica 1 vs %d", id),
			liveDigest, keyDigests(localLog(t, nodes[id-1], runtime.NodeID(id)), false))
	}
	// ...and with the unoptimised simulator, modulo agent sequence numbers.
	equalDigests(t, "sim vs pipelined live",
		keyDigests(fullLog(des.Server(1)), true),
		keyDigests(localLog(t, nodes[0], 1), true))
}

// TestLiveDispatchPacing pins the launch budget core.dispatchGap and
// core.dispatchBurst put on a live home, and that nothing held back is lost:
// of a burst of submissions at one home the first 64 leave at once and the
// rest one per 800 µs.
func TestLiveDispatchPacing(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test uses wall-clock timeouts")
	}
	const burst, free, gap = 100, 64, 800 * time.Microsecond
	nodes, _ := startLiveCluster(t, 3, core.Config{})
	start := time.Now()
	for i := 0; i < burst; i++ {
		submitAt(t, nodes[0], 1, core.Set(fmt.Sprintf("burst-%d", i), "v"))
	}
	if err := nodes[0].Cluster.RunUntilDone(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if took, min := time.Since(start), (burst-free)*gap; took < min {
		t.Fatalf("%d agents left one home in %v, want at least %v", burst, took, min)
	}
	var outs []core.Outcome
	nodes[0].Eng.Do(func() { outs = nodes[0].Cluster.Outcomes() })
	if len(outs) != burst {
		t.Fatalf("%d outcomes, want %d", len(outs), burst)
	}
	born := make([]int64, 0, burst)
	for _, o := range outs {
		if o.Failed {
			t.Fatalf("outcome failed: %+v", o)
		}
		born = append(born, o.Agent.Born)
	}
	sort.Slice(born, func(i, j int) bool { return born[i] < born[j] })
	if spread := time.Duration(born[burst-1] - born[0]); spread < (burst-free-1)*gap {
		t.Fatalf("births of %d agents of one home span %v, want at least %v", burst, spread, (burst-free-1)*gap)
	}
}

// TestLiveNodesForgetDepartedAgents: a node an agent only passes through
// must not keep its behavior (or, with regeneration on, its checkpoint)
// once the next host has acknowledged the migration. Five replicas, so
// every agent crosses nodes that are neither its home nor where it
// finishes; at quiescence marp.agent.tracked reads zero everywhere.
func TestLiveNodesForgetDepartedAgents(t *testing.T) {
	if testing.Short() {
		t.Skip("live cluster test uses wall-clock timeouts")
	}
	for _, regen := range []bool{false, true} {
		t.Run(fmt.Sprintf("regenerate=%v", regen), func(t *testing.T) {
			const n, perNode = 5, 40
			// The hook fires for acknowledged migrations. One the origin
			// timed out on first leaves a duplicate agent behind (a known
			// hazard, not this test's subject), so no timeout here: nothing
			// crashes, and a loaded CI host can sit on an ack for 300 ms.
			nodes, _ := startLiveCluster(t, n, core.Config{RegenerateAgents: regen, MigrationTimeout: 10 * time.Second})
			for s := 0; s < perNode; s++ {
				for i, node := range nodes {
					home := runtime.NodeID(i + 1)
					submitAt(t, node, home, core.Set(fmt.Sprintf("k%d-%d", home, s), "v"))
				}
			}
			for i, node := range nodes {
				if err := node.Cluster.RunUntilDone(90 * time.Second); err != nil {
					t.Fatalf("node %d: %v", i+1, err)
				}
			}
			waitConverged(t, nodes, n*perNode, 20*time.Second)
			// The last acks and outcome reports may still be on their way.
			end := time.Now().Add(10 * time.Second)
			for {
				tracked := make([]float64, n)
				idle := true
				for i, node := range nodes {
					node.Eng.Do(func() {
						reg := node.Cluster.Metrics()
						if reg.Help("marp.agent.tracked") == "" {
							t.Error("marp.agent.tracked is not registered")
						}
						tracked[i] = reg.Value("marp.agent.tracked")
					})
					idle = idle && tracked[i] == 0
				}
				if idle || t.Failed() {
					return
				}
				if time.Now().After(end) {
					for i, node := range nodes {
						node.Eng.Do(func() { t.Logf("node %d: %+v", i+1, node.Cluster.Platform().Stats()) })
					}
					t.Fatalf("idle nodes still track agents: marp.agent.tracked = %v", tracked)
				}
				time.Sleep(20 * time.Millisecond)
			}
		})
	}
}
