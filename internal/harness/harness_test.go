package harness

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/desengine"
	"repro/internal/failure"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// The harness tests run the real experiments at reduced scale and assert the
// qualitative shapes the paper reports — the actual reproduction criteria
// from DESIGN.md §4.

func TestFigure2ShapeALTDecreasesWithMean(t *testing.T) {
	o := FigureOptions{Quick: true, Seed: 3, RequestsPerServer: 30,
		Means:   []time.Duration{10 * time.Millisecond, 100 * time.Millisecond},
		Servers: []int{5}}
	tbl, results, err := Figure2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	fast, slow := results[0].Summary.MeanALT, results[1].Summary.MeanALT
	if fast <= slow {
		t.Fatalf("ALT did not decrease with slower arrivals: %v -> %v", fast, slow)
	}
	if !strings.Contains(tbl.String(), "Figure 2") {
		t.Fatal("table title missing")
	}
}

func TestFigure2ShapeALTGrowsWithServers(t *testing.T) {
	o := FigureOptions{Quick: true, Seed: 5, RequestsPerServer: 30,
		Means:   []time.Duration{20 * time.Millisecond},
		Servers: []int{3, 7}}
	_, results, err := Figure2(o)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Summary.MeanALT >= results[1].Summary.MeanALT {
		t.Fatalf("ALT(3 servers)=%v >= ALT(7 servers)=%v",
			results[0].Summary.MeanALT, results[1].Summary.MeanALT)
	}
}

func TestFigure3ATTExceedsALT(t *testing.T) {
	o := FigureOptions{Quick: true, Seed: 7, RequestsPerServer: 25,
		Means: []time.Duration{40 * time.Millisecond}, Servers: []int{5}}
	_, results, err := Figure3(o)
	if err != nil {
		t.Fatal(err)
	}
	s := results[0].Summary
	if s.MeanATT <= s.MeanALT {
		t.Fatalf("ATT %v not above ALT %v (must include UPDATE/COMMIT messaging)", s.MeanATT, s.MeanALT)
	}
}

func TestFigure4Crossover(t *testing.T) {
	o := FigureOptions{Quick: true, Seed: 9, RequestsPerServer: 40,
		Means: []time.Duration{15 * time.Millisecond, 120 * time.Millisecond}}
	_, results, err := Figure4(o)
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := results[0].Summary, results[1].Summary
	if fast.PRK(5) < 50 {
		t.Fatalf("at high rates only %.1f%% of locks required all 5 visits", fast.PRK(5))
	}
	if slow.PRK(3) < 50 {
		t.Fatalf("at low rates only %.1f%% of locks required 3 visits", slow.PRK(3))
	}
	if fast.MeanVisits() <= slow.MeanVisits() {
		t.Fatalf("mean visits did not shrink with lower rates: %.2f vs %.2f",
			fast.MeanVisits(), slow.MeanVisits())
	}
}

func TestCompareProtocolsWANShape(t *testing.T) {
	o := FigureOptions{Quick: true, Seed: 11, RequestsPerServer: 8,
		Means: []time.Duration{60 * time.Millisecond}, Servers: []int{5}}
	_, results, err := CompareProtocols(o)
	if err != nil {
		t.Fatal(err)
	}
	// Order: lan{marp,mcv,ac,primary}, wan{marp,mcv,ac,primary}.
	if len(results) != 8 {
		t.Fatalf("results = %d", len(results))
	}
	marpWAN, mcvWAN := results[4].Summary, results[5].Summary
	if marpWAN.MeanATT >= mcvWAN.MeanATT {
		t.Fatalf("MARP WAN ATT %v not below MCV-MP %v (the paper's headline claim)",
			marpWAN.MeanATT, mcvWAN.MeanATT)
	}
	if results[4].MsgsPerUpdate() >= results[5].MsgsPerUpdate() {
		t.Fatalf("MARP msgs/update %.1f not below MCV-MP %.1f",
			results[4].MsgsPerUpdate(), results[5].MsgsPerUpdate())
	}
}

// TestCompareProtocolsSaturatedCell: a run that never drained prints
// "saturated" in both of its columns, not a messages-per-update ratio.
func TestCompareProtocolsSaturatedCell(t *testing.T) {
	o := FigureOptions{Quick: true, Seed: 11, RequestsPerServer: 20,
		Means: []time.Duration{60 * time.Millisecond}, Servers: []int{5, 7}}
	tbl, results, err := CompareProtocols(o)
	if err != nil {
		t.Fatal(err)
	}
	// Order: lan{5,7} then wan{5,7}, four protocols each.
	if res := results[14]; res.Config.Protocol != AvailableCopy || !res.Saturated {
		t.Fatalf("WAN N=7 %s saturated = %v, want a saturated available-copy cell", res.Config.Protocol, res.Saturated)
	}
	row := tbl.Rows[3]
	for i, col := range tbl.Columns {
		if strings.HasPrefix(col, string(AvailableCopy)) && row[i] != "saturated" {
			t.Errorf("WAN N=7 %q = %q, want saturated", col, row[i])
		}
	}
}

func TestMigrationBoundsHold(t *testing.T) {
	o := FigureOptions{Quick: true, Seed: 13, RequestsPerServer: 15}
	tbl, results, err := MigrationBounds(o)
	if err != nil {
		t.Fatal(err)
	}
	ns := []int{3, 5, 7, 9}
	for i, res := range results {
		n := ns[i]
		lo, hi := n/2+1, n
		for visits, count := range res.Summary.VisitDist {
			if count == 0 {
				continue
			}
			if visits < lo || visits > hi {
				// Tie-break wins may legitimately fall below the bound;
				// only flag if there were no ties at all.
				if res.Summary.TieCount == 0 {
					t.Errorf("N=%d: %d wins with %d visits outside [%d,%d]", n, count, visits, lo, hi)
				}
			}
		}
	}
	if !strings.Contains(tbl.String(), "Theorem 3") {
		t.Fatal("table title missing")
	}
}

func TestAblationBatchingAmortizes(t *testing.T) {
	o := FigureOptions{Quick: true, Seed: 15, RequestsPerServer: 24}
	_, results, err := AblationBatching(o)
	if err != nil {
		t.Fatal(err)
	}
	b1, b8 := results[0], results[len(results)-1]
	if b8.Agents.AgentsCreated >= b1.Agents.AgentsCreated {
		t.Fatalf("batching did not reduce agent count: %d vs %d",
			b8.Agents.AgentsCreated, b1.Agents.AgentsCreated)
	}
	if b8.BytesPerUpdate() >= b1.BytesPerUpdate() {
		t.Fatalf("batching did not reduce bytes/update: %.0f vs %.0f",
			b8.BytesPerUpdate(), b1.BytesPerUpdate())
	}
}

func TestFailureInjectionConverges(t *testing.T) {
	o := FigureOptions{Quick: true, Seed: 17, RequestsPerServer: 8}
	_, results, err := FailureInjection(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if !r.ConvergedOK {
			t.Fatalf("%d crashes: replicas did not converge", r.Crashes)
		}
		committed := r.Summary.Count - r.Summary.Failures
		if int(r.CommittedSeqs) != committed {
			t.Fatalf("%d crashes: %d committed agents but LastSeq %d",
				r.Crashes, committed, r.CommittedSeqs)
		}
	}
}

func TestAblationInfoSharingRuns(t *testing.T) {
	o := FigureOptions{Quick: true, Seed: 19, RequestsPerServer: 12}
	_, results, err := AblationInfoSharing(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].Config.DisableInfoSharing || !results[1].Config.DisableInfoSharing {
		t.Fatal("ablation arms mislabeled")
	}
}

func TestAblationRoutingCostOrderedWinsUncontended(t *testing.T) {
	// Cost-ordering is a tour-cost optimization; its advantage shows when
	// queueing does not dominate. (Under heavy contention the deterministic
	// greedy routes can convoy agents and lose to random itineraries — a
	// finding recorded in EXPERIMENTS.md A2.) Compare the two arms on an
	// essentially serial workload, averaged across seeds.
	var ordered, random time.Duration
	for seed := int64(21); seed < 26; seed++ {
		for _, rand := range []bool{false, true} {
			topo := simnet.RandomGeo(7, newRand(seed))
			res, err := Run(RunConfig{
				Protocol: MARP, N: 7, Seed: seed, Mean: 3 * time.Second,
				RequestsPerServer: 4, Latency: WAN,
				Topology: topo, CostPerUnit: 60 * time.Millisecond,
				RandomItinerary: rand,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rand {
				random += res.Summary.MeanALT
			} else {
				ordered += res.Summary.MeanALT
			}
		}
	}
	if ordered >= random {
		t.Fatalf("cost-ordered itinerary %v not better than random %v on serial workload (5-seed sums)",
			ordered, random)
	}
}

func TestRunRejectsUnknownProtocolAndPreset(t *testing.T) {
	if _, err := Run(RunConfig{Protocol: "pigeon", N: 3}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if _, err := Run(RunConfig{Protocol: MARP, N: 3, Latency: "string-and-cans"}); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestRunBaselineProtocols(t *testing.T) {
	for _, p := range []Protocol{MCV, AvailableCopy, PrimaryCopy} {
		res, err := Run(RunConfig{Protocol: p, N: 3, Seed: 23, Mean: 50 * time.Millisecond,
			RequestsPerServer: 6})
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if res.Summary.Count != 18 || res.Summary.Failures != 0 {
			t.Fatalf("%s: summary %+v", p, res.Summary)
		}
	}
}

// faultOrder records when a fault schedule's events fire.
type faultOrder struct{ fired *[]string }

func (f faultOrder) Crash(simnet.NodeID)   { *f.fired = append(*f.fired, "crash") }
func (f faultOrder) Recover(simnet.NodeID) { *f.fired = append(*f.fired, "recover") }

// TestRunSimulatedOffersBeforeFaults: the simulator breaks timestamp ties by
// insertion order, so a request and a crash due at the same instant resolve
// as "request first" in every recorded figure only while the driver
// schedules the workload before the fault schedule.
func TestRunSimulatedOffersBeforeFaults(t *testing.T) {
	cl, err := desengine.New(desengine.Config{Seed: 1, Cluster: core.Config{N: 3}})
	if err != nil {
		t.Fatal(err)
	}
	const at = 5 * time.Millisecond
	var fired []string
	err = runSimulated(cl,
		[]workload.Event{{At: at, Home: 2, Key: "k", Value: "v"}},
		func(workload.Event) { fired = append(fired, "request") },
		failure.Blip(2, at, time.Millisecond), faultOrder{&fired}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"request", "crash", "recover"}; !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

func TestRunWithReadsInWorkload(t *testing.T) {
	// Reads are local and free; the run must still complete and count
	// only updates.
	res, err := Run(RunConfig{Protocol: MARP, N: 3, Seed: 25,
		Mean: 30 * time.Millisecond, RequestsPerServer: 10, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Count != 30 {
		t.Fatalf("count = %d", res.Summary.Count)
	}
}

func TestReadRatioShape(t *testing.T) {
	o := FigureOptions{Quick: true, Seed: 27, RequestsPerServer: 30}
	_, results, err := ReadRatio(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	// More reads -> fewer updates -> less total traffic.
	prevUpdates := 1 << 30
	prevMsgs := 1 << 62
	for i, r := range results {
		updates := r.Summary.Count - r.Summary.Failures
		if updates >= prevUpdates {
			t.Fatalf("row %d: updates did not fall (%d -> %d)", i, prevUpdates, updates)
		}
		prevUpdates = updates
		if r.Net.MessagesSent >= prevMsgs {
			t.Fatalf("row %d: traffic did not fall", i)
		}
		prevMsgs = r.Net.MessagesSent
	}
}

func TestMultiSeedReplication(t *testing.T) {
	o := FigureOptions{Quick: true, Seed: 29, Seeds: 3, RequestsPerServer: 15,
		Means: []time.Duration{40 * time.Millisecond}, Servers: []int{3}}
	tbl, results, err := Figure2(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want 3 replications", len(results))
	}
	seeds := map[int64]bool{}
	for _, r := range results {
		seeds[r.Config.Seed] = true
	}
	if len(seeds) != 3 {
		t.Fatalf("replications reused seeds: %v", seeds)
	}
	if !strings.Contains(tbl.String(), "±") {
		t.Fatalf("no ±sd cell in table:\n%s", tbl.String())
	}
	if !strings.Contains(tbl.String(), "3 seeds") {
		t.Fatal("note does not mention replication count")
	}
}
