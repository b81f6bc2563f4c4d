package harness

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/sweep"
)

// FigureOptions tunes the sweeps. Zero values give the full paper-scale
// sweeps; Quick shrinks everything for use inside testing.B loops.
type FigureOptions struct {
	Seed              int64
	RequestsPerServer int
	Means             []time.Duration
	Servers           []int
	Latency           LatencyPreset
	Quick             bool
	// Seeds > 1 repeats every sweep point with seeds Seed, Seed+1, ... and
	// reports mean±sd across the replications (Figures 2-4 only).
	Seeds int
	// Parallelism is the number of worker goroutines the sweep fans out
	// across (<= 0 means GOMAXPROCS). Every sweep point is an independent
	// deterministic simulation, so parallelism changes wall-clock time
	// only — the results and tables are identical at any setting.
	Parallelism int
	// Progress, when non-nil, is called after each sweep point completes
	// (serialized, possibly from a worker goroutine).
	Progress func(done, total int)
}

// runner builds the worker pool shared by every experiment sweep.
func (o FigureOptions) runner() sweep.Runner {
	return sweep.Runner{Parallelism: o.Parallelism, OnProgress: o.Progress}
}

// Sweep executes each config through Run on a worker pool, preserving
// point order: out[i] is the result of cfgs[i] at any parallelism. Errors
// carry the offending config's coordinates and are aggregated across points.
func Sweep(r sweep.Runner, cfgs []RunConfig) ([]RunResult, error) {
	return sweep.Run(r, cfgs, func(_ int, c RunConfig) (RunResult, error) {
		res, err := Run(c)
		if err != nil {
			return res, fmt.Errorf("%s n=%d seed=%d mean=%v: %w", c.Protocol, c.N, c.Seed, c.Mean, err)
		}
		return res, nil
	})
}

func (o *FigureOptions) fill() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.RequestsPerServer == 0 {
		o.RequestsPerServer = 60
		if o.Quick {
			o.RequestsPerServer = 12
		}
	}
	if len(o.Means) == 0 {
		if o.Quick {
			o.Means = []time.Duration{10 * time.Millisecond, 40 * time.Millisecond, 100 * time.Millisecond}
		} else {
			for ms := 10; ms <= 100; ms += 10 {
				o.Means = append(o.Means, time.Duration(ms)*time.Millisecond)
			}
		}
	}
	if len(o.Servers) == 0 {
		o.Servers = []int{3, 4, 5}
	}
	if o.Latency == "" {
		// LAN reproduces the paper's Figure 4 crossover (~45 ms mean
		// inter-arrival); the heavier Prototype preset saturates the
		// fast end of the sweep (see EXPERIMENTS.md, calibration).
		o.Latency = LAN
	}
	if o.Seeds < 1 {
		o.Seeds = 1
	}
}

// meanSD formats the mean and (for Seeds > 1) the sample standard deviation
// of a per-replication statistic, in milliseconds.
func meanSD(results []RunResult, stat func(metrics.Summary) float64) string {
	n := float64(len(results))
	var sum float64
	for _, r := range results {
		sum += stat(r.Summary)
	}
	mean := sum / n
	if len(results) == 1 {
		return fmt.Sprintf("%.2f", mean/1e6)
	}
	var ss float64
	for _, r := range results {
		d := stat(r.Summary) - mean
		ss += d * d
	}
	sd := 0.0
	if n > 1 {
		sd = ss / (n - 1)
	}
	return fmt.Sprintf("%.2f±%.2f", mean/1e6, sqrt(sd)/1e6)
}

// sqrt avoids importing math for one call site.
func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 40; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// Figure2 reproduces the paper's Figure 2: the average time for a mobile
// agent to obtain the lock (ALT) versus the mean request inter-arrival
// time, for 3, 4 and 5 replicated servers.
func Figure2(o FigureOptions) (*metrics.Table, []RunResult, error) {
	return latencySweep(o, "Figure 2: average time for obtaining the lock by a mobile agent (ALT, ms)",
		func(s metrics.Summary) float64 { return float64(s.MeanALT) })
}

// Figure3 reproduces the paper's Figure 3: the average total time to
// complete an update request (ATT), including the UPDATE/COMMIT messaging.
func Figure3(o FigureOptions) (*metrics.Table, []RunResult, error) {
	return latencySweep(o, "Figure 3: average time for completing a request (ATT, ms)",
		func(s metrics.Summary) float64 { return float64(s.MeanATT) })
}

func latencySweep(o FigureOptions, title string, stat func(metrics.Summary) float64) (*metrics.Table, []RunResult, error) {
	o.fill()
	note := fmt.Sprintf("%s latency, %d requests/server, exponential arrivals", o.Latency, o.RequestsPerServer)
	if o.Seeds > 1 {
		note += fmt.Sprintf(", mean±sd over %d seeds", o.Seeds)
	}
	tbl := &metrics.Table{
		Title:   title,
		Note:    note,
		Columns: []string{"mean-interarrival"},
	}
	for _, n := range o.Servers {
		tbl.Columns = append(tbl.Columns, fmt.Sprintf("%d servers", n))
	}
	// The grid flattens mean-major, then server count, then replication
	// seed, so the result slice reads exactly like the sequential loops
	// it replaced.
	var cfgs []RunConfig
	for _, mean := range o.Means {
		for _, n := range o.Servers {
			for r := 0; r < o.Seeds; r++ {
				cfgs = append(cfgs, RunConfig{
					Protocol: MARP, N: n, Mean: mean, Seed: o.Seed + int64(r),
					RequestsPerServer: o.RequestsPerServer, Latency: o.Latency,
				})
			}
		}
	}
	all, err := Sweep(o.runner(), cfgs)
	if err != nil {
		return nil, nil, err
	}
	i := 0
	for _, mean := range o.Means {
		row := []string{mean.String()}
		for range o.Servers {
			row = append(row, meanSD(all[i:i+o.Seeds], stat))
			i += o.Seeds
		}
		tbl.AddRow(row...)
	}
	return tbl, all, nil
}

// Figure4 reproduces the paper's Figure 4: the percentage of requests whose
// lock is obtained by visiting K servers (K = 3, 4, 5) on a 5-server
// system, versus the mean inter-arrival time. At high request rates most
// agents must tour all five servers; at low rates the (N+1)/2 = 3 lower
// bound dominates.
func Figure4(o FigureOptions) (*metrics.Table, []RunResult, error) {
	if len(o.Means) == 0 {
		if o.Quick {
			o.Means = []time.Duration{15 * time.Millisecond, 60 * time.Millisecond, 120 * time.Millisecond}
		} else {
			for ms := 15; ms <= 120; ms += 15 {
				o.Means = append(o.Means, time.Duration(ms)*time.Millisecond)
			}
		}
	}
	o.fill()
	const n = 5
	tbl := &metrics.Table{
		Title:   "Figure 4: percentage of requests whose lock is obtained by visiting K servers (5 servers)",
		Note:    fmt.Sprintf("%s latency, %d requests/server", o.Latency, o.RequestsPerServer),
		Columns: []string{"mean-interarrival", "K=3 (%)", "K=4 (%)", "K=5 (%)", "mean visits"},
	}
	cfgs := make([]RunConfig, 0, len(o.Means))
	for _, mean := range o.Means {
		cfgs = append(cfgs, RunConfig{
			Protocol: MARP, N: n, Seed: o.Seed, Mean: mean,
			RequestsPerServer: o.RequestsPerServer, Latency: o.Latency,
		})
	}
	all, err := Sweep(o.runner(), cfgs)
	if err != nil {
		return nil, nil, err
	}
	for i, res := range all {
		tbl.AddRow(o.Means[i].String(),
			fmt.Sprintf("%.1f", res.Summary.PRK(3)),
			fmt.Sprintf("%.1f", res.Summary.PRK(4)),
			fmt.Sprintf("%.1f", res.Summary.PRK(5)),
			fmt.Sprintf("%.2f", res.Summary.MeanVisits()),
		)
	}
	return tbl, all, nil
}

// CompareProtocols reproduces the paper's §4 narrative claim ("message
// passing latency is the predominant factor... message passing would incur
// larger overhead in a wide-area network"): MARP versus the three
// message-passing baselines, in LAN and WAN environments, across server
// counts.
func CompareProtocols(o FigureOptions) (*metrics.Table, []RunResult, error) {
	o.fill()
	if len(o.Servers) == 3 && o.Servers[0] == 3 && o.Servers[2] == 5 {
		o.Servers = []int{3, 5, 7}
	}
	protocols := []Protocol{MARP, MCV, AvailableCopy, PrimaryCopy}
	presets := []LatencyPreset{LAN, WAN}
	tbl := &metrics.Table{
		Title:   "Comparison C1: mean ATT (ms) and messages per update, MARP vs message passing",
		Note:    fmt.Sprintf("%d requests/server; WAN rows use a mean inter-arrival of at least 250ms", o.RequestsPerServer),
		Columns: []string{"latency", "N"},
	}
	for _, p := range protocols {
		tbl.Columns = append(tbl.Columns, string(p)+" att", string(p)+" msg/upd")
	}
	// Grid order (preset-major, then N, then protocol) is part of the
	// result contract: harness_test.go indexes into it.
	var cfgs []RunConfig
	for _, preset := range presets {
		mean := o.Means[len(o.Means)/2]
		if preset == WAN && mean < 250*time.Millisecond {
			// Keep the offered load comparable relative to the network:
			// WAN round trips are ~100x LAN ones, so the same absolute
			// arrival rate would saturate every protocol and measure
			// queueing collapse instead of protocol structure.
			mean = 250 * time.Millisecond
		}
		for _, n := range o.Servers {
			for _, p := range protocols {
				cfgs = append(cfgs, RunConfig{
					Protocol: p, N: n, Seed: o.Seed, Mean: mean,
					RequestsPerServer: o.RequestsPerServer, Latency: preset,
				})
			}
		}
	}
	all, err := Sweep(o.runner(), cfgs)
	if err != nil {
		return nil, nil, err
	}
	i := 0
	for _, preset := range presets {
		for _, n := range o.Servers {
			row := []string{string(preset), fmt.Sprintf("%d", n)}
			for range protocols {
				res := all[i]
				i++
				att, msgs := metrics.Ms(res.Summary.MeanATT), fmt.Sprintf("%.1f", res.MsgsPerUpdate())
				if res.Saturated {
					// A run that never drained has no per-update cost.
					att, msgs = "saturated", "saturated"
				}
				row = append(row, att, msgs)
			}
			tbl.AddRow(row...)
		}
	}
	return tbl, all, nil
}

// MigrationBounds verifies Theorem 3 empirically: the winning agent visits
// between (N+1)/2 and N servers before knowing the result.
func MigrationBounds(o FigureOptions) (*metrics.Table, []RunResult, error) {
	o.fill()
	servers := []int{3, 5, 7, 9}
	tbl := &metrics.Table{
		Title:   "Theorem 3: winner migration counts, bounds [(N+1)/2, N]",
		Note:    "rank-majority wins only; tie-break wins annotated separately",
		Columns: []string{"N", "bound-lo", "bound-hi", "min", "mean", "max", "tie wins", "in bounds"},
	}
	cfgs := make([]RunConfig, 0, len(servers))
	for _, n := range servers {
		cfgs = append(cfgs, RunConfig{
			Protocol: MARP, N: n, Seed: o.Seed, Mean: 20 * time.Millisecond,
			RequestsPerServer: o.RequestsPerServer, Latency: o.Latency,
		})
	}
	all, err := Sweep(o.runner(), cfgs)
	if err != nil {
		return nil, nil, err
	}
	for i, res := range all {
		n := servers[i]
		lo, hi := n/2+1, n
		min, max, sum, count := n+1, 0, 0, 0
		for k, c := range res.Summary.VisitDist {
			if c == 0 {
				continue
			}
			if k < min {
				min = k
			}
			if k > max {
				max = k
			}
			sum += k * c
			count += c
		}
		inBounds := min >= lo && max <= hi
		meanV := 0.0
		if count > 0 {
			meanV = float64(sum) / float64(count)
		}
		tbl.AddRow(fmt.Sprintf("%d", n), fmt.Sprintf("%d", lo), fmt.Sprintf("%d", hi),
			fmt.Sprintf("%d", min), fmt.Sprintf("%.2f", meanV), fmt.Sprintf("%d", max),
			fmt.Sprintf("%d", res.Summary.TieCount), fmt.Sprintf("%v", inBounds))
	}
	return tbl, all, nil
}

// AblationInfoSharing measures the effect of the paper's server-mediated
// locking-information exchange (A1): with sharing off, agents learn only
// from their own visits.
func AblationInfoSharing(o FigureOptions) (*metrics.Table, []RunResult, error) {
	o.fill()
	tbl := &metrics.Table{
		Title:   "Ablation A1: information sharing between agents and servers",
		Columns: []string{"sharing", "mean ALT (ms)", "mean ATT (ms)", "mean visits", "tie wins"},
	}
	settings := []bool{false, true}
	cfgs := make([]RunConfig, 0, len(settings))
	for _, off := range settings {
		cfgs = append(cfgs, RunConfig{
			Protocol: MARP, N: 5, Seed: o.Seed, Mean: 20 * time.Millisecond,
			RequestsPerServer: o.RequestsPerServer, Latency: o.Latency,
			DisableInfoSharing: off,
		})
	}
	all, err := Sweep(o.runner(), cfgs)
	if err != nil {
		return nil, nil, err
	}
	for i, res := range all {
		label := "on"
		if settings[i] {
			label = "off"
		}
		tbl.AddRow(label, metrics.Ms(res.Summary.MeanALT), metrics.Ms(res.Summary.MeanATT),
			fmt.Sprintf("%.2f", res.Summary.MeanVisits()), fmt.Sprintf("%d", res.Summary.TieCount))
	}
	return tbl, all, nil
}

// AblationRouting measures cost-aware itinerary ordering against a random
// itinerary (A2) on a geographically dispersed topology — the paper's
// "should tend to communicate with nearby replicas" design point. Two load
// regimes are reported: on a light (serial) load the tour cost dominates and
// cost-ordering wins; under contention the deterministic greedy routes
// convoy competing agents onto the same servers and random itineraries can
// come out ahead — a trade-off the paper does not discuss.
func AblationRouting(o FigureOptions) (*metrics.Table, []RunResult, error) {
	o.fill()
	tbl := &metrics.Table{
		Title:   "Ablation A2: cost-ordered vs random itinerary (geo topology, cost-proportional latency)",
		Columns: []string{"load", "itinerary", "mean ALT (ms)", "mean ATT (ms)", "p95 ATT (ms)"},
	}
	var all []RunResult
	regimes := []struct {
		label string
		mean  time.Duration
		reqs  int
	}{
		{"serial", 3 * time.Second, o.RequestsPerServer / 4},
		{"contended", 400 * time.Millisecond, o.RequestsPerServer},
	}
	type point struct {
		regime string
		label  string
	}
	var cfgs []RunConfig
	var labels []point
	for _, regime := range regimes {
		reqs := regime.reqs
		if reqs < 2 {
			reqs = 2
		}
		for _, random := range []bool{false, true} {
			// A fresh deterministic geo topology per run (same seed ->
			// same map), generated serially here so no two concurrent
			// points ever share a topology or a random source.
			topoRng := simnet.RandomGeo(7, newRand(o.Seed))
			cfgs = append(cfgs, RunConfig{
				Protocol: MARP, N: 7, Seed: o.Seed, Mean: regime.mean,
				RequestsPerServer: reqs, Latency: WAN,
				Topology:        topoRng,
				CostPerUnit:     60 * time.Millisecond,
				RandomItinerary: random,
			})
			label := "cost-ordered"
			if random {
				label = "random"
			}
			labels = append(labels, point{regime.label, label})
		}
	}
	all, err := Sweep(o.runner(), cfgs)
	if err != nil {
		return nil, nil, err
	}
	for i, res := range all {
		tbl.AddRow(labels[i].regime, labels[i].label, metrics.Ms(res.Summary.MeanALT),
			metrics.Ms(res.Summary.MeanATT), metrics.Ms(res.Summary.P95ATT))
	}
	return tbl, all, nil
}

// AblationBatching measures the request-batching policy (A3): more requests
// per agent amortize the tour.
func AblationBatching(o FigureOptions) (*metrics.Table, []RunResult, error) {
	o.fill()
	tbl := &metrics.Table{
		Title:   "Ablation A3: requests per agent (batching)",
		Columns: []string{"batch", "agents", "mean ATT (ms)", "msgs/update", "bytes/update"},
	}
	batches := []int{1, 2, 4, 8}
	cfgs := make([]RunConfig, 0, len(batches))
	for _, b := range batches {
		cfgs = append(cfgs, RunConfig{
			Protocol: MARP, N: 5, Seed: o.Seed, Mean: 15 * time.Millisecond,
			RequestsPerServer: o.RequestsPerServer, Latency: o.Latency,
			BatchSize: b,
		})
	}
	all, err := Sweep(o.runner(), cfgs)
	if err != nil {
		return nil, nil, err
	}
	for i, res := range all {
		tbl.AddRow(fmt.Sprintf("%d", batches[i]), fmt.Sprintf("%d", res.Agents.AgentsCreated),
			metrics.Ms(res.Summary.MeanATT),
			fmt.Sprintf("%.1f", res.MsgsPerUpdate()),
			fmt.Sprintf("%.0f", res.BytesPerUpdate()))
	}
	return tbl, all, nil
}

// ReadRatio runs the A5 experiment: the paper's premise is a read-dominated
// Internet workload ("the protocol described uses a strategy that yields
// good performance for an object that has a high read-to-update ratio, since
// a read operation needs only to access the local copy", §5). Reads are
// local and pay no network cost; the experiment quantifies how the average
// per-operation latency falls as the read fraction rises, with the update
// path's cost unchanged.
func ReadRatio(o FigureOptions) (*metrics.Table, []RunResult, error) {
	o.fill()
	tbl := &metrics.Table{
		Title:   "Ablation A5: read-to-update ratio (reads served from the local copy)",
		Note:    fmt.Sprintf("%s latency, %d ops/server", o.Latency, o.RequestsPerServer),
		Columns: []string{"read fraction", "updates", "mean update ATT (ms)", "mean op latency (ms)", "msgs/op"},
	}
	fracs := []float64{0, 0.5, 0.9, 0.99}
	all, err := sweep.Run(o.runner(), fracs, func(_ int, frac float64) (RunResult, error) {
		res, err := runMARPWithReads(o, frac)
		if err != nil {
			return res, fmt.Errorf("read fraction %.2f: %w", frac, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, nil, err
	}
	for i, res := range all {
		frac := fracs[i]
		updates := res.Summary.Count - res.Summary.Failures
		totalOps := res.Config.RequestsPerServer * res.Config.N
		// Reads are synchronous local lookups: zero network latency.
		opLatency := float64(res.Summary.MeanATT) * float64(updates) / float64(totalOps)
		tbl.AddRow(fmt.Sprintf("%.2f", frac),
			fmt.Sprintf("%d", updates),
			metrics.Ms(res.Summary.MeanATT),
			fmt.Sprintf("%.2f", opLatency/1e6),
			fmt.Sprintf("%.1f", float64(res.Net.MessagesSent)/float64(totalOps)))
	}
	return tbl, all, nil
}
