// Command marpbench regenerates the paper's evaluation: every figure of
// "Achieving Replication Consistency Using Cooperating Mobile Agents"
// (Cao, Chan, Wu — ICPP 2001) plus the comparisons and ablations indexed in
// DESIGN.md. Output is one aligned table per experiment, with the same rows
// and series the paper plots.
//
// Usage:
//
//	marpbench                  # run everything at full scale
//	marpbench -exp f2,f4       # only Figures 2 and 4
//	marpbench -exp help        # list every experiment with its description
//	marpbench -quick           # reduced scale (seconds instead of minutes)
//	marpbench -seed 7          # different random seed
//	marpbench -latency wan     # latency preset for the figure sweeps
//	marpbench -requests 100    # requests per server per run
//	marpbench -parallel 8      # sweep-point workers (results identical at any value)
//	marpbench -cpuprofile p.out -memprofile m.out   # pprof the run
//
// Every sweep point is an independent deterministic simulation, so -parallel
// fans the grid across goroutines without changing a single output digit:
// parallelism buys wall-clock time only. Per-experiment wall-clock is
// printed so the speedup is visible.
//
// Experiments: f2 f3 f4 c1 t3 a1 a2 a3 a4 a5 a6 a7 a8 a10 (see DESIGN.md §4).
// Unknown -exp names are rejected; the list above, `-exp help`, and the
// DESIGN.md per-experiment index enumerate the same set.
//
// Separately from the figure experiments, `-exp replay -scenario <file>`
// re-executes a recorded incident bundle on the DES engine and checks its
// per-key commit digests (DESIGN.md §12). Exit status: 0 = digests match,
// 1 = mismatch (a per-key diff is printed), 2 = malformed or unreadable
// bundle — the same operator-error status an unknown -exp name gets.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/scenario"
)

var experiments = []string{"f2", "f3", "f4", "c1", "t3", "a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a10"}

func main() {
	var (
		expFlag  = flag.String("exp", "all", "comma-separated experiments to run ("+strings.Join(experiments, ",")+"), all, or help")
		quick    = flag.Bool("quick", false, "reduced scale for a fast pass")
		seed     = flag.Int64("seed", 1, "random seed")
		latency  = flag.String("latency", "lan", "latency preset for figure sweeps: lan, prototype, wan")
		requests = flag.Int("requests", 0, "requests per server per run (0 = experiment default)")
		seeds    = flag.Int("seeds", 1, "replications per sweep point for Figures 2-3 (mean±sd)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep-point worker goroutines (1 = sequential; results are identical at any value)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit")
		scenPath = flag.String("scenario", "", "incident bundle to replay (with -exp replay)")
	)
	flag.Parse()

	if *expFlag == "replay" {
		os.Exit(runReplay(*scenPath))
	}

	if *parallel <= 0 {
		*parallel = runtime.GOMAXPROCS(0)
	}

	// run does the real work so deferred profile writers flush before the
	// process exits (os.Exit skips defers).
	os.Exit(run(*expFlag, *cpuProf, *memProf, harness.FigureOptions{
		Seed:              *seed,
		Seeds:             *seeds,
		Quick:             *quick,
		RequestsPerServer: *requests,
		Latency:           harness.LatencyPreset(*latency),
		Parallelism:       *parallel,
	}))
}

func run(expFlag, cpuProf, memProf string, opts harness.FigureOptions) int {
	if cpuProf != "" {
		f, err := os.Create(cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "marpbench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "marpbench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if memProf != "" {
		defer func() {
			f, err := os.Create(memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "marpbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "marpbench: %v\n", err)
			}
		}()
	}

	// Experiments produce one table each, except A6 (MARP and optimistic),
	// A7 (overhead and recovery) and A10 (showdown and loss grid) — run
	// therefore yields a slice.
	type experiment struct {
		id   string
		name string
		run  func(harness.FigureOptions) ([]*metrics.Table, error)
	}
	table := func(f func(harness.FigureOptions) (*metrics.Table, []harness.RunResult, error)) func(harness.FigureOptions) ([]*metrics.Table, error) {
		return func(o harness.FigureOptions) ([]*metrics.Table, error) {
			t, _, err := f(o)
			return []*metrics.Table{t}, err
		}
	}
	all := []experiment{
		{id: "f2", name: "Figure 2 (ALT)", run: table(harness.Figure2)},
		{id: "f3", name: "Figure 3 (ATT)", run: table(harness.Figure3)},
		{id: "f4", name: "Figure 4 (PRK)", run: table(harness.Figure4)},
		{id: "c1", name: "Comparison vs message passing", run: table(harness.CompareProtocols)},
		{id: "t3", name: "Theorem 3 migration bounds", run: table(harness.MigrationBounds)},
		{id: "a1", name: "Ablation: information sharing", run: table(harness.AblationInfoSharing)},
		{id: "a2", name: "Ablation: itinerary routing", run: table(harness.AblationRouting)},
		{id: "a3", name: "Ablation: request batching", run: table(harness.AblationBatching)},
		{id: "a4", name: "Ablation: failure injection", run: func(o harness.FigureOptions) ([]*metrics.Table, error) {
			t, _, err := harness.FailureInjection(o)
			return []*metrics.Table{t}, err
		}},
		{id: "a5", name: "Ablation: read-to-update ratio", run: table(harness.ReadRatio)},
		{id: "a6", name: "Ablation: chaos (loss x partition churn)", run: func(o harness.FigureOptions) ([]*metrics.Table, error) {
			t, _, err := harness.Chaos(o)
			if err != nil {
				return nil, err
			}
			// The optimistic protocol rides the same grid: no reliable-
			// delivery machinery, one digest-verified stable prefix required.
			opt, _, err := harness.ChaosOptimistic(o)
			return []*metrics.Table{t, opt}, err
		}},
		{id: "a7", name: "Durability: WAL overhead and crash recovery", run: harness.Durability},
		{id: "a8", name: "Ablation: keyspace sharding throughput", run: table(harness.ShardingDES)},
		{id: "a10", name: "Ablation: optimistic asynchronous commitment (WAN showdown)", run: harness.Optimistic},
	}

	// The flag, the doc comment, and the experiment table must enumerate
	// the same set — DESIGN.md's per-experiment index is keyed off it.
	if len(all) != len(experiments) {
		panic("marpbench: experiments list out of sync with the experiment table")
	}
	known := map[string]bool{}
	for _, e := range all {
		known[e.id] = true
	}

	if expFlag == "help" || expFlag == "list" {
		for _, e := range all {
			fmt.Printf("%-3s  %s\n", e.id, e.name)
		}
		fmt.Printf("%-3s  %s\n", "replay", "Replay an incident bundle on the DES engine (needs -scenario <file>)")
		return 0
	}
	want := map[string]bool{}
	if expFlag == "all" {
		for _, e := range experiments {
			want[e] = true
		}
	} else {
		for _, e := range strings.Split(expFlag, ",") {
			e = strings.TrimSpace(strings.ToLower(e))
			if e == "" {
				continue
			}
			if e == "replay" {
				fmt.Fprintln(os.Stderr, "marpbench: -exp replay must be the only experiment (and needs -scenario <file>)")
				return 2
			}
			if !known[e] {
				fmt.Fprintf(os.Stderr, "marpbench: unknown experiment %q (want %s, all, or help)\n",
					e, strings.Join(experiments, ","))
				return 2
			}
			want[e] = true
		}
	}

	ran := 0
	total := time.Now()
	for _, e := range all {
		if !want[e.id] {
			continue
		}
		ran++
		start := time.Now()
		tbls, err := e.run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "marpbench: %s failed: %v\n", e.id, err)
			return 1
		}
		for _, tbl := range tbls {
			if err := tbl.Fprint(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "marpbench: %v\n", err)
				return 1
			}
		}
		fmt.Printf("  [%s completed in %.2fs wall clock, parallel=%d]\n\n",
			e.id, time.Since(start).Seconds(), opts.Parallelism)
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "marpbench: no experiments matched %q (want %s or all)\n",
			expFlag, strings.Join(experiments, ","))
		return 2
	}
	if ran > 1 {
		fmt.Printf("[%d experiments in %.2fs total]\n", ran, time.Since(total).Seconds())
	}
	return 0
}

// runReplay deterministically re-executes one incident bundle on the DES
// engine and checks invariant 14 (equal per-key commit digests). Exit
// status is scripting-grade: 0 match, 1 mismatch (with a per-key diff) or
// replay failure, 2 malformed/unreadable bundle.
func runReplay(path string) int {
	if path == "" {
		fmt.Fprintln(os.Stderr, "marpbench: -exp replay needs -scenario <bundle.jsonl>")
		return 2
	}
	b, err := scenario.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "marpbench: %v\n", err)
		return 2
	}
	fmt.Printf("replaying %s: %d servers, %d events, %d recorded commits over %v\n",
		b.Header.Name, b.Header.Servers, len(b.Events), b.Digest.Commits, b.Span().Round(time.Millisecond))
	start := time.Now()
	res, err := scenario.Replay(b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "marpbench: %v\n", err)
		if errors.Is(err, scenario.ErrMalformed) {
			return 2
		}
		return 1
	}
	if !res.OK() {
		fmt.Printf("DIGEST MISMATCH: %d divergence(s)\n", len(res.Mismatches))
		for _, m := range res.Mismatches {
			fmt.Printf("  %s\n", m)
		}
		return 1
	}
	fmt.Printf("ok: %d commits, %d keys, digests match the recording (%.2fs wall clock)\n",
		res.Commits, len(res.Keys), time.Since(start).Seconds())
	return 0
}
