// Command bench is the repository's benchmark: six named workloads, the
// end-to-end metrics a user of the system sees and the per-layer metrics
// that explain them, all taken from outside by driving and timing the
// public functions of internal/…. See README.md in this directory.
//
//	go run ./bench -workload live-open -seed 1 -seconds 10 -trace 0
//	go run ./bench -seed 1 -repeat 5 -out a.json  # a set: every workload, medians of 5
//	go run ./bench -compare a.json b.json
//	go run ./bench -check -seed 1
//	go run ./bench -manifest > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run inside a set file.
type record struct {
	Workload string `json:"workload"`
	Exact    uint64 `json:"exact,omitempty"` // des-*: equal for equal code and seed
	result
}

// set is what -out writes and -compare reads.
type set struct {
	Seed    int64    `json:"seed"`
	Seconds float64  `json:"seconds"`
	Trace   int      `json:"trace"`
	Repeat  int      `json:"repeat"`
	Go      string   `json:"go"`
	CPUs    int      `json:"cpus"`
	Runs    []record `json:"runs"`
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds  = flag.Float64("seconds", 10, "measured window per workload")
		trace    = flag.Int("trace", 0, "1 = the traced pass: per-layer metrics, spans, probes")
		out      = flag.String("out", "", "write the set of runs to this file")
		repeat   = flag.Int("repeat", 1, "runs per workload in a set, seeds seed..seed+repeat-1; the set keeps their medians")
		spanDir  = flag.String("spans", ".bench_build", "directory the traced pass writes span files to")
		compare  = flag.Bool("compare", false, "compare two set files: -compare A B")
		check    = flag.Bool("check", false, "determinism and seed check of the des-* workloads")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json")
	)
	flag.Parse()
	switch {
	case *manifest:
		exit(writeManifest(os.Stdout))
	case *compare:
		if flag.NArg() != 2 {
			exit(fmt.Errorf("usage: bench -compare A B"))
		}
		exit(compareSets(flag.Arg(0), flag.Arg(1)))
	case *check:
		exit(checkDeterminism(*seed))
	}

	names := workloadNames()
	if *workload != "all" {
		if !isWorkload(*workload) {
			exit(fmt.Errorf("unknown workload %q (have %v)", *workload, names))
		}
		names = []string{*workload}
	}
	s := set{Seed: *seed, Seconds: *seconds, Trace: *trace, Repeat: *repeat, Go: goruntime.Version(), CPUs: goruntime.NumCPU()}
	for _, name := range names {
		var runs []record
		for rep := 0; rep < *repeat; rep++ {
			o, err := measure(name, *seed+int64(rep), *seconds, *trace == 1)
			if err != nil {
				exit(fmt.Errorf("%s: %w", name, err))
			}
			if *trace == 1 {
				for k, v := range probes() {
					o.values[k] = v
				}
				path := filepath.Join(*spanDir, "spans-"+name+".jsonl")
				if err := writeSpans(path, o.spans); err != nil {
					exit(err)
				}
				fmt.Printf("# %s: %d spans in %s\n", name, len(o.spans), path)
			}
			res := report(name, o, *trace == 1)
			runs = append(runs, record{Workload: name, Exact: o.exact, result: res})
			line, err := json.Marshal(res)
			if err != nil {
				exit(err)
			}
			fmt.Println(string(line))
		}
		s.Runs = append(s.Runs, medianRecord(runs))
	}
	if *out != "" {
		data, err := json.MarshalIndent(s, "", " ")
		if err != nil {
			exit(err)
		}
		exit(os.WriteFile(*out, append(data, '\n'), 0o644))
	}
}

// medianRecord folds the runs of one workload into one record: counts are
// summed, every metric is its median over the runs.
func medianRecord(runs []record) record {
	m := runs[0]
	if len(runs) == 1 {
		return m
	}
	m.Metrics = make(map[string]metric)
	for name, first := range runs[0].Metrics {
		var vals []float64
		for _, r := range runs {
			vals = append(vals, r.Metrics[name].Value)
		}
		m.Metrics[name] = metric{Value: median(vals), Unit: first.Unit}
	}
	for _, r := range runs[1:] {
		m.Attempted += r.Attempted
		m.Failed += r.Failed
		m.Exact = m.Exact*31 + r.Exact
	}
	return m
}

func exit(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// report prints every metric the run produced, by name with its unit, and
// returns the contract's result: the end-to-end metrics of an untraced run,
// the per-layer metrics of a traced one.
func report(name string, o *outcome, traced bool) result {
	fmt.Printf("# %s: attempted %d, failed %d\n", name, o.attempted, o.failed)
	res := result{Correct: true, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metric)}
	for _, group := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range group {
			val, ok := o.values[d.Name]
			if ok {
				fmt.Printf("#   %-36s %14.4f %s\n", d.Name, val, d.Unit)
			}
		}
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		res.Metrics[d.Name] = metric{Value: o.values[d.Name], Unit: d.Unit}
	}
	return res
}

// manifestFile is BENCHMARK.json.
type manifestFile struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

const runSeconds = 10

func buildManifest() manifestFile {
	m := manifestFile{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, manifestLoad{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		b := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &b})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

func writeManifest(w *os.File) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(buildManifest())
}

// checkDeterminism is -check: every des-* workload, run twice in this
// process, must give identical numbers; another seed must give another
// schedule.
func checkDeterminism(seed int64) error {
	for _, w := range workloads {
		if isLive(w.Name) {
			continue
		}
		sim, passLen := desWorkload(w.Name, 0.25)
		var prints [2]uint64
		for round := range prints {
			for i := 0; i < passLen; i++ {
				r, err := sim.run(subSeed(seed, i), false)
				if err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				prints[round] = prints[round]*31 + r.fingerprint()
			}
		}
		if prints[0] != prints[1] {
			return fmt.Errorf("%s: two runs of seed %d differ (%x vs %x)", w.Name, seed, prints[0], prints[1])
		}
		a, err := sim.events(subSeed(seed, 0))
		if err != nil {
			return err
		}
		b, err := sim.events(subSeed(seed+1, 0))
		if err != nil {
			return err
		}
		same := len(a) == len(b)
		for i := 0; same && i < len(a); i++ {
			same = a[i] == b[i]
		}
		if same {
			return fmt.Errorf("%s: seeds %d and %d generate the same schedule", w.Name, seed, seed+1)
		}
		fmt.Printf("%s: deterministic (fingerprint %x), schedule changes with the seed\n", w.Name, prints[0])
	}
	for _, name := range []string{"live-open", "live-closed"} {
		a, err := liveSchedule(liveWorkload(name), seed, runSeconds*time.Second)
		if err != nil {
			return err
		}
		b, err := liveSchedule(liveWorkload(name), seed+1, runSeconds*time.Second)
		if err != nil {
			return err
		}
		same := len(a) == len(b)
		for i := 0; same && i < len(a); i++ {
			same = a[i] == b[i]
		}
		if same {
			return fmt.Errorf("%s: seeds %d and %d generate the same schedule", name, seed, seed+1)
		}
		fmt.Printf("%s: schedule changes with the seed\n", name)
	}
	return nil
}

func readSet(path string) (set, error) {
	var s set
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareSets is -compare: per workload and metric both values, the change
// and the bound; an end-to-end metric worse than its bound, or an exact
// number that differs between two runs of one seed, is an error.
func compareSets(pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	defs := make(map[string]metricDef)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		defs[d.Name] = d
	}
	byName := make(map[string]record)
	for _, r := range b.Runs {
		byName[r.Workload] = r
	}
	bad := 0
	for _, ra := range a.Runs {
		rb, ok := byName[ra.Workload]
		if !ok {
			continue
		}
		fmt.Printf("%s\n", ra.Workload)
		if a.Seed == b.Seed && a.Seconds == b.Seconds && a.Repeat == b.Repeat && ra.Exact != rb.Exact {
			fmt.Printf("  EXACT numbers differ for seed %d: %x vs %x\n", a.Seed, ra.Exact, rb.Exact)
			bad++
		}
		if rb.Failed > ra.Failed {
			fmt.Printf("  FAILED rose from %d to %d\n", ra.Failed, rb.Failed)
			bad++
		}
		names := make([]string, 0, len(ra.Metrics))
		for name := range ra.Metrics {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			va, vb := ra.Metrics[name].Value, rb.Metrics[name].Value
			d := defs[name]
			worse := ratio(vb-va, va)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if d.Bound > 0 {
				verdict = fmt.Sprintf("bound %.0f%%", d.Bound*100)
				if worse > d.Bound {
					verdict += "  REGRESSION"
					bad++
				}
			}
			fmt.Printf("  %-36s %14.4f %14.4f %-6s %+7.1f%%  %s\n", name, va, vb, d.Unit, 100*ratio(vb-va, va), verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric(s) beyond their bound or not exact", bad)
	}
	return nil
}
