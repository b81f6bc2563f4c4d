package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// smokeSeconds is 1/20 of the benchmark's window: measure scales every
// workload's fixed counts by the same factor.
const smokeSeconds = runSeconds / 20.0

// TestSmoke runs every workload at 1/20 scale, untraced and traced, through
// its correctness gate, and checks that the result lines carry exactly the
// metrics BENCHMARK.json promises.
func TestSmoke(t *testing.T) {
	probed := probes()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o, err := measure(w.Name, 1, smokeSeconds, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if o.attempted < 1 || o.failed != 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.Name, traced, o.attempted, o.failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				for k, v := range probed {
					o.values[k] = v
				}
				if len(o.spans) == 0 {
					t.Errorf("%s: traced pass recorded no spans", w.Name)
				}
			}
			res := report(w.Name, o, traced)
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s: metric %s missing or without its unit", w.Name, d.Name)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
		}
	}
}

// TestManifest checks the catalog against the contract's limits and against
// the BENCHMARK.json at the root of the repository.
func TestManifest(t *testing.T) {
	m := buildManifest()
	if len(m.Workloads) < 2 || len(m.Workloads) > 8 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer: outside 2..8 / 16 / 128",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, group := range [][]manifestMetric{m.EndToEnd, m.PerLayer} {
		for _, d := range group {
			use(d.Name)
			if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
				t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
			}
			if d.Bound != nil && (*d.Bound <= 0 || *d.Bound > 0.25) {
				t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, *d.Bound)
			}
			setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" && d.Bound != nil)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if d.Layer == "" || d.Moves == "" {
			t.Errorf("metric %s: the catalog names no layer or no metric it should move", d.Name)
		}
	}
	if !setup {
		t.Error("no end-to-end setup_s in seconds, lower is better")
	}

	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk manifestFile
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, m) {
		t.Error("BENCHMARK.json differs from the catalog; regenerate it with `go run ./bench -manifest > BENCHMARK.json`")
	}
}
