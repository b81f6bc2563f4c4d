package harness

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/optimistic"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
	"repro/internal/workload"
)

// TestA10WANTentativeBeatsMARP is the A10 acceptance bound on the
// simulator: under WAN latency the optimistic tentative ALT must undercut
// MARP's locking ALT (the pessimistic agent tours hundred-millisecond
// links before the client hears anything; the tentative commit never waits
// on the network), while the run still converges to one digest-verified
// stable prefix.
func TestA10WANTentativeBeatsMARP(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a WAN MARP simulation")
	}
	opt, err := runOptimisticDES(OptRunConfig{
		N: 5, Seed: 1, Latency: WAN, RequestsPerServer: 12, Mean: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	marp, err := Run(RunConfig{
		Protocol: MARP, N: 5, Seed: 1, Mean: 50 * time.Millisecond,
		RequestsPerServer: 12, Latency: WAN,
	})
	if err != nil {
		t.Fatal(err)
	}
	if opt.TentativeALT >= marp.Summary.MeanALT {
		t.Fatalf("WAN: optimistic tentative ALT %v did not beat MARP ALT %v",
			opt.TentativeALT, marp.Summary.MeanALT)
	}
	if opt.Committed != 5*12 {
		t.Fatalf("committed %d of %d", opt.Committed, 5*12)
	}
	if opt.Digest == "" {
		t.Fatal("no stable digest reported")
	}
	t.Logf("WAN: optimistic tentative ALT %v (stable lag %v) vs MARP ALT %v",
		opt.TentativeALT, opt.StableLag, marp.Summary.MeanALT)
}

// TestA10LiveTentativeBeatsMARP is the same bound on the live engine: the
// same workload (3 replicas, 6 requests per server) runs on three MARP
// processes and then on three optimistic ones over loopback TCP. A
// tentative commit never waits on the network, so even over loopback the
// client-observed tentative ALT must undercut MARP's locking ALT.
func TestA10LiveTentativeBeatsMARP(t *testing.T) {
	if testing.Short() {
		t.Skip("starts live TCP replicas")
	}
	const n, reqs, seed = 3, 6, 1
	events, err := workload.Generate(workload.Spec{
		Servers: n, RequestsPerServer: reqs,
		MeanInterarrival: time.Millisecond, Seed: seed + 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	marpALT := liveMARPALT(t, n, seed, events)
	optALT, optLag := liveTentativeALT(t, n, seed, events)
	if optALT >= marpALT {
		t.Fatalf("live: optimistic tentative ALT %v did not beat MARP ALT %v", optALT, marpALT)
	}
	t.Logf("live: optimistic tentative ALT %v (stable lag %v) vs MARP ALT %v", optALT, optLag, marpALT)
}

// liveMARPALT runs events on n live MARP processes, each update a Set
// submitted on its home's loop, and returns the mean ALT over every node's
// outcomes (each records its own homes'). A run that commits nothing fails.
func liveMARPALT(t *testing.T, n int, seed int64, events []workload.Event) time.Duration {
	t.Helper()
	nodes, err := live.StartCluster(n, func(id runtime.NodeID, addrs map[runtime.NodeID]string) (*live.Node, error) {
		return live.StartNode(live.NodeConfig{Self: id, Addrs: addrs, Seed: seed + int64(id)})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(nodes)
	err = runLive(nodes, events, func(node *live.Node, ev workload.Event) error {
		var err error
		if !node.Eng.Do(func() { err = node.Cluster.Submit(ev.Home, core.Set(ev.Key, ev.Value)) }) {
			return fmt.Errorf("engine closed during submit")
		}
		return err
	}, func(cl *core.Cluster) error { return cl.RunUntilDone(2 * time.Minute) })
	if err != nil {
		t.Fatal(err)
	}
	var outs []core.Outcome
	if err := onLoops(nodes, func(_ runtime.NodeID, cl *core.Cluster) { outs = append(outs, cl.Outcomes()...) }); err != nil {
		t.Fatal(err)
	}
	sum := metrics.Summarize(marpSamples(outs))
	if sum.Count == sum.Failures {
		t.Fatal("MARP: no updates committed")
	}
	return sum.MeanALT
}

// liveTentativeALT runs events on n live optimistic processes and returns
// the mean client-observed tentative ALT and the mean stability lag, with
// the stable-prefix digests verified across the processes.
func liveTentativeALT(t *testing.T, n int, seed int64, events []workload.Event) (time.Duration, time.Duration) {
	t.Helper()
	nodes, err := live.StartCluster(n, func(id runtime.NodeID, addrs map[runtime.NodeID]string) (*live.OptNode, error) {
		return live.StartOptNode(live.OptNodeConfig{
			Self: id, Addrs: addrs, Seed: seed + int64(id),
			GossipInterval: LAN.optGossip(),
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(nodes)
	var altSum time.Duration
	outs, err := runLiveOptimistic(nodes, events, func(node *live.OptNode, ev workload.Event) error {
		start := time.Now()
		err := submitOptimistic(node, ev)
		altSum += time.Since(start)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) == 0 {
		t.Fatal("optimistic: no updates stabilized")
	}
	var lagSum time.Duration
	for _, o := range outs {
		if o.Aborted || o.StableAt == 0 {
			t.Fatalf("optimistic: %s not stable after drain", o.Txn)
		}
		lagSum += o.StableAt.Sub(o.SubmittedAt)
	}
	return altSum / time.Duration(len(events)), lagSum / time.Duration(len(outs))
}

// TestA10LossGridConverges is the other half of the A10 acceptance claim:
// at 10%% and 30%% WAN message loss every replica still converges to the
// identical digest-verified stable prefix, with no retransmission layer —
// the periodic gossip rounds re-carry whatever was lost.
// runOptimisticDES itself fails the run on divergence or a stuck
// tentative, so the assertions here are the completeness counts.
func TestA10LossGridConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("runs lossy WAN simulations")
	}
	for _, loss := range []float64{0.10, 0.30} {
		res, err := runOptimisticDES(OptRunConfig{
			N: 5, Seed: 3, Latency: WAN, Loss: loss,
			RequestsPerServer: 10, Mean: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("loss=%.2f: %v", loss, err)
		}
		if res.Committed != 5*10 {
			t.Fatalf("loss=%.2f: committed %d of %d", loss, res.Committed, 5*10)
		}
		if res.Lost == 0 {
			t.Fatalf("loss=%.2f: fault model dropped nothing; the cell tested reliable delivery", loss)
		}
		t.Logf("loss=%.0f%%: stable lag %v, %d messages lost, digest %s",
			loss*100, res.StableLag, res.Lost, res.Digest)
	}
}

// TestStableOrderIgnoresTheNetwork: A10b's workload, at 0 %, 10 % and
// 30 % WAN loss and once on a LAN, ends with one stable digest in every
// run. Stamps are hybrid clock readings, and on the simulator every replica
// reads the same physical time, so the stable order is the submit order —
// how gossip happened to interleave decides when an action becomes stable,
// never where it lands. (Under Lamport stamps each of these runs elected
// its own order.)
func TestStableOrderIgnoresTheNetwork(t *testing.T) {
	if testing.Short() {
		t.Skip("runs lossy WAN simulations")
	}
	var want string
	for _, cell := range []struct {
		env  LatencyPreset
		loss float64
	}{{WAN, 0}, {WAN, 0.10}, {WAN, 0.30}, {LAN, 0}} {
		res, err := runOptimisticDES(OptRunConfig{
			N: 5, Seed: 1, Latency: cell.env, Loss: cell.loss,
			RequestsPerServer: 60, Mean: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("%s loss=%.2f: %v", cell.env, cell.loss, err)
		}
		if res.Committed != 5*60 {
			t.Fatalf("%s loss=%.2f: committed %d of %d", cell.env, cell.loss, res.Committed, 5*60)
		}
		if want == "" {
			want = res.Digest
		}
		if res.Digest != want {
			t.Errorf("%s loss=%.0f%%: stable digest %s, the first run's is %s", cell.env, cell.loss*100, res.Digest, want)
		}
		t.Logf("%s loss=%.0f%%: stable lag %v, digest %s", cell.env, cell.loss*100, res.StableLag, res.Digest)
	}
}

// TestChaosOptimisticCell runs the harshest chaos-grid cell (30%% loss +
// churn: minority partition, loss burst, crash blip on a Mem-journaled
// replica) and requires the single digest-verified stable prefix.
func TestChaosOptimisticCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a churned lossy simulation")
	}
	res, err := runOptimisticDES(OptRunConfig{
		N: 5, Seed: 7, Latency: LAN, Loss: 0.30,
		RequestsPerServer: 10, Mean: 30 * time.Millisecond,
		Durable: true, Churn: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != 5*10 {
		t.Fatalf("committed %d of %d", res.Committed, 5*10)
	}
	t.Logf("chaos cell: stable lag %v, %d rollbacks, digest %s",
		res.StableLag, res.Rollbacks, res.Digest)
}

// stableTxnSet runs one engine's outcomes into the sorted set of stable
// transaction IDs, failing if anything drained aborted or tentative.
func stableTxnSet(t *testing.T, engine string, outs []optimistic.Outcome) []string {
	t.Helper()
	set := make([]string, 0, len(outs))
	for _, o := range outs {
		if o.Aborted || o.StableAt == 0 {
			t.Fatalf("%s: %s drained without stabilizing (aborted=%v)", engine, o.Txn, o.Aborted)
		}
		set = append(set, o.Txn)
	}
	sort.Strings(set)
	return set
}

// TestOptCrossEngineEquivalence feeds the identical workload to the
// simulated cluster and to three live replica processes and requires the
// same stable commit set on every replica of both engines. Transaction IDs
// are engine-independent (origin, shard, per-origin sequence), so equal
// sets mean both engines elected exactly the same submissions; stable
// ORDER is compared within each engine only (digests), because it hangs
// off hybrid-clock stamps, which read each engine's own time and therefore
// legitimately differ between a simulated and a wall-clock run.
func TestOptCrossEngineEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("starts live TCP replicas")
	}
	const n, reqs = 3, 8

	// Simulated half. The run already verified per-replica digest agreement
	// and hands back the stable set it counted.
	desRes, err := runOptimisticDES(OptRunConfig{
		N: n, Seed: 42, Latency: LAN, RequestsPerServer: reqs, Mean: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	desSet := append([]string(nil), desRes.stable...)
	sort.Strings(desSet)
	if len(desSet) != n*reqs {
		t.Fatalf("DES stabilized %d of %d", len(desSet), n*reqs)
	}

	// Live half: three replica processes over loopback TCP, fed the events
	// runOptimisticDES generated (same spec, Seed+1000). Each live process
	// records outcomes for its own submissions only, so the cluster-wide
	// stable commit set is the union across processes; runLiveOptimistic
	// requires the stable-prefix digest to agree at every process.
	events, err := workload.Generate(workload.Spec{
		Servers: n, RequestsPerServer: reqs,
		MeanInterarrival: time.Millisecond, Seed: 42 + 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := live.StartCluster(n, func(id runtime.NodeID, addrs map[runtime.NodeID]string) (*live.OptNode, error) {
		return live.StartOptNode(live.OptNodeConfig{
			Self: id, Addrs: addrs, Seed: int64(id),
			GossipInterval: 10 * time.Millisecond,
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(nodes)
	allOuts, err := runLiveOptimistic(nodes, events, submitOptimistic)
	if err != nil {
		t.Fatal(err)
	}
	liveSet := stableTxnSet(t, "live", allOuts)
	if len(liveSet) != len(desSet) {
		t.Fatalf("live stabilized %d transactions, DES %d", len(liveSet), len(desSet))
	}
	for i := range desSet {
		if liveSet[i] != desSet[i] {
			t.Fatalf("stable commit sets differ at %d: live %s vs DES %s", i, liveSet[i], desSet[i])
		}
	}
	t.Logf("both engines stabilized the identical %d-transaction commit set", len(desSet))
}
