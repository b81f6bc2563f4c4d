package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// outcome is what one run of one workload measured: every metric it could
// produce by name, the counts the contract asks for, and the traced pass's
// spans. Metrics a workload has no layer for stay absent and report 0.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	spans             []span
	exact             uint64 // des-*: fingerprint of everything the seed determines
}

// maxGenLateMs invalidates an open-loop run whose generator handed over a
// tenth of its requests later than this: commit_p90_ms would then measure
// the generator. The limit is on the p90 of lateness, not the p99 the
// per-layer metric reports: on the shared VM this was sized on, single
// whole-process stalls of ~120 ms put p99 over 20 ms in 3 runs of 16 and move
// neither p50 nor p90.
const maxGenLateMs = 5.0

// scaleOf is the share of the full workload a window of the given length
// runs: the smoke test passes a short window and gets 1/20 of everything.
func scaleOf(seconds float64) float64 {
	if seconds >= 5 {
		return 1
	}
	return seconds / 10
}

// measure runs one workload once. The traced pass's probes are the same on
// every workload, so the caller runs them and adds them.
func measure(name string, seed int64, seconds float64, traced bool) (*outcome, error) {
	if isLive(name) {
		return measureLive(liveWorkload(name), seed, seconds, traced)
	}
	return measureDES(name, seed, seconds, traced)
}

// slowFrac is the contention proxy: the share of commits slower than five
// times the median.
func slowFrac(lat []float64) float64 {
	limit, slow := 5*median(lat), 0
	for _, l := range lat {
		if l > limit {
			slow++
		}
	}
	return ratio(float64(slow), float64(len(lat)))
}

func measureLive(spec liveSpec, seed int64, seconds float64, traced bool) (*outcome, error) {
	window := time.Duration(seconds * float64(time.Second))
	setups := 3
	if scaleOf(seconds) < 1 {
		setups = 1
	}
	run, err := runLive(spec, seed, window, traced, setups)
	if err != nil {
		return nil, err
	}
	v := make(map[string]float64)
	out := &outcome{values: v}
	lc := run.lc
	end := run.t0 + window

	var lat, accept, reads []float64
	bySlice := make(map[int][]float64) // traced pass: latency by recording slice of the due time
	var visits, retries, ties, won3 float64
	inWindow := 0
	var lastCommit time.Duration
	for i := run.first; i < len(lc.reqs); i++ {
		r := &lc.reqs[i]
		out.attempted++
		if r.read {
			if r.accept == 0 {
				out.failed++
				continue
			}
			reads = append(reads, us(r.accept-r.due))
			continue
		}
		if r.refused || r.commit == 0 {
			out.failed++
			continue
		}
		l := ms(r.commit - r.due)
		lat = append(lat, l)
		if traced {
			k := int((r.due - run.t0) / traceSlice)
			bySlice[k] = append(bySlice[k], l)
		}
		accept = append(accept, us(r.accept-r.due))
		if r.commit <= end {
			inWindow++
		}
		if r.commit > lastCommit {
			lastCommit = r.commit
		}
		visits += float64(r.visits)
		retries += float64(r.retries)
		if r.byTie {
			ties++
		}
		if r.visits == 3 {
			won3++
		}
	}
	commits := float64(len(lat))
	if commits == 0 {
		return nil, errors.New("no request committed in the window")
	}
	delta := func(name string) float64 { return run.after[name] - run.before[name] }

	v["setup_s"] = median(run.setups)
	v["commit_p50_ms"] = median(lat)
	v["commit_p90_ms"] = quantile(lat, 0.90)
	if spec.outstanding > 0 {
		v["commits_per_s"] = float64(inWindow) / window.Seconds()
	} else {
		// Open loop: goodput until the last of the offered writes is in. It
		// is the offered rate while the system keeps up and falls with the
		// time a backlog takes to drain.
		v["commits_per_s"] = commits / (lastCommit - run.t0).Seconds()
	}
	v["cpu_ms_per_commit"] = ms(run.cpu) / commits
	v["heap_live_mb"] = float64(run.heapLive) / (1 << 20)
	v["msgs_per_commit"] = delta("marp.fabric.messages_sent") / commits

	v["client.accept_p50_us"] = median(accept)
	v["client.commit_p99_ms"] = quantile(lat, 0.99)
	v["client.slow_ops_frac"] = slowFrac(lat)
	v["client.read_p50_us"] = median(reads)
	v["client.read_p99_ms"] = quantile(reads, 0.99) / 1000
	v["client.gen_late_p99_ms"] = quantile(run.late, 0.99)
	var gaps, depth []float64
	for _, n := range lc.nodes {
		gaps = append(gaps, n.pollGaps...)
		for i, d := range n.llDepth {
			if i >= len(depth) {
				depth = append(depth, 0)
			}
			depth[i] += d
		}
	}
	v["client.observer_lag_us"] = quantile(gaps, 0.99)
	v["client.failed_frac"] = float64(out.failed) / float64(out.attempted)

	v["live.msgs_per_commit"] = v["msgs_per_commit"]
	v["live.bytes_per_commit"] = delta("marp.fabric.bytes_sent") / commits
	v["live.queue_drops"] = delta("marp.fabric.queue_drops")
	v["agent.migrations_per_commit"] = delta("marp.agent.migrations_started") / commits
	v["agent.migrations_failed"] = delta("marp.agent.migrations_failed")
	v["agent.regenerated"] = delta("marp.replica.regenerated")
	v["replica.ll_depth_max"] = maxOf(depth)
	v["replica.ll_depth_mean"] = mean(depth)
	v["core.visits_mean"] = visits / commits
	v["core.retries_per_commit"] = retries / commits
	v["core.tie_break_frac"] = ties / commits
	v["core.prk3_pct"] = 100 * won3 / commits
	m := lc.marks
	v["core.history_growth_ratio"] = ratio(
		ratio(m[4].bytes-m[3].bytes, m[4].commits-m[3].commits),
		ratio(m[1].bytes-m[0].bytes, m[1].commits-m[0].commits))
	v["wal.appends_per_commit"] = delta("marp.wal.appends") / commits
	v["wal.bytes_per_commit"] = delta("marp.wal.appended_bytes") / commits
	v["wal.group_batches"] = delta("marp.wal.group_batches")
	v["disk.syncs_per_commit"] = delta("marp.disk.syncs") / commits
	v["durable.replay_ms"] = run.replayMs
	v["reliable.retransmissions_per_commit"] = delta("marp.reliable.retransmissions") / commits
	v["reliable.duplicates_suppressed"] = delta("marp.reliable.duplicates_suppressed")
	v["reliable.gave_up"] = delta("marp.reliable.gave_up")
	v["rt.gc_cycles"] = float64(run.gcCycles)
	v["rt.gc_pause_total_ms"] = ms(run.gcPause)
	v["rt.alloc_mb_per_kcommit"] = float64(run.allocBytes) / (1 << 20) / commits * 1000

	lost := delta("marp.fabric.messages_lost") + delta("marp.fabric.messages_dropped")
	if traced {
		run.stages(v, lost > 0)
		v["bench.trace_overhead_frac"] = sliceOverhead(bySlice)
		out.spans = run.spans
	}
	if late := quantile(run.late, 0.90); scaleOf(seconds) == 1 && late > maxGenLateMs {
		return nil, fmt.Errorf("invalid run: generator ran %.1f ms late at p90 (limit %.0f ms)", late, maxGenLateMs)
	}
	return out, nil
}

// stages derives the per-request stages of the traced pass from the transit
// spans the fabric decorators recorded, and the layer metrics built on them.
// For a request whose agent is A: accepted when Submit returned on the home
// loop; lock phase until A's winning UPDATE left (migrations are its
// children); update round until A's COMMIT left; commit notice until the
// home's poll saw the outcome. The four add up to the request's latency.
func (run *liveRun) stages(v map[string]float64, lossy bool) {
	lc := run.lc
	byReq := make(map[string][]*span)
	all := run.spans
	var transit, migrate, syncs []float64
	for i := range all {
		s := &all[i]
		s.ID = i + 1
		d := us(time.Duration(s.End - s.Start))
		switch s.Name {
		case "live.transit":
			transit = append(transit, d)
			if s.Kind == "agent-migrate" {
				migrate = append(migrate, d)
			}
			if s.Req != "" {
				byReq[s.Req] = append(byReq[s.Req], s)
			}
		case "disk.sync":
			syncs = append(syncs, d)
		}
	}
	v["disk.sync_p50_us"] = median(syncs)
	if lossy || run.misaligned > 0 {
		// A dropped message shifts the send/deliver pairing of its link:
		// the transit spans of this run cannot be trusted.
		return
	}
	v["live.transit_p50_us"] = median(transit)
	v["live.transit_p99_us"] = quantile(transit, 0.99)
	v["live.migrate_transit_p50_us"] = median(migrate)

	var acceptS, lockS, roundS, noticeS, total []float64
	for i := run.first; i < len(lc.reqs); i++ {
		r := &lc.reqs[i]
		if r.read || !r.traced || r.commit == 0 {
			continue
		}
		var commitAt, updateAt int64 = math.MaxInt64, 0
		for _, s := range byReq[r.agentID] {
			if s.Kind == "commit" && s.Start < commitAt {
				commitAt = s.Start
			}
		}
		for _, s := range byReq[r.agentID] {
			if s.Kind == "update" && s.Start <= commitAt && s.Start > updateAt {
				updateAt = s.Start
			}
		}
		if commitAt == math.MaxInt64 || updateAt == 0 {
			continue // recording flipped off while the request was in flight
		}
		root := len(all) + 1
		all = append(all,
			span{ID: root, Name: "client.commit", Req: r.agentID, Node: r.home + 1, Clock: "wall", Start: int64(r.due), End: int64(r.commit)},
			span{ID: root + 1, Parent: root, Name: "client.accept", Req: r.agentID, Node: r.home + 1, Clock: "wall", Start: int64(r.due), End: int64(r.accept)},
			span{ID: root + 2, Parent: root, Name: "core.lock_phase", Req: r.agentID, Node: r.home + 1, Clock: "wall", Start: int64(r.accept), End: updateAt},
			span{ID: root + 3, Parent: root, Name: "core.update_round", Req: r.agentID, Clock: "wall", Start: updateAt, End: commitAt},
			span{ID: root + 4, Parent: root, Name: "client.commit_notice", Req: r.agentID, Node: r.home + 1, Clock: "wall", Start: commitAt, End: int64(r.commit)},
		)
		for _, s := range byReq[r.agentID] {
			switch {
			case s.Start < updateAt:
				s.Parent = root + 2
			case s.Start < commitAt:
				s.Parent = root + 3
			default:
				s.Parent = root + 4
			}
		}
		acceptS = append(acceptS, us(r.accept-r.due))
		lockS = append(lockS, ms(time.Duration(updateAt)-r.accept))
		roundS = append(roundS, ms(time.Duration(commitAt-updateAt)))
		noticeS = append(noticeS, us(r.commit-time.Duration(commitAt)))
		total = append(total, ms(r.commit-r.due))
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	run.spans = all
	st := medianRequest(total, acceptS, lockS, roundS, noticeS)
	v["client.accept_p50_us"] = st[0]
	v["core.lock_phase_p50_ms"] = st[1]
	v["core.update_round_p50_ms"] = st[2]
	v["client.commit_notice_p50_us"] = st[3]
	sum := st[0]/1000 + st[1] + st[2] + st[3]/1000
	v["bench.stage_sum_frac"] = math.Abs(ratio(sum, median(total)) - 1)
}

// medianRequest says how the median request's time splits into stages: each
// stage averaged over the requests whose total lies between the 45th and the
// 55th percentile. Stage medians taken one by one do not add up (on
// live-open they summed to 81% of the median latency); these do, and
// bench.stage_sum_frac checks that they still do.
func medianRequest(total []float64, stages ...[]float64) []float64 {
	lo, hi := quantile(total, 0.45), quantile(total, 0.55)
	out := make([]float64, len(stages))
	n := 0.0
	for i, t := range total {
		if t < lo || t > hi {
			continue
		}
		n++
		for s := range stages {
			out[s] += stages[s][i]
		}
	}
	for s := range out {
		out[s] = ratio(out[s], n)
	}
	return out
}

// sliceOverhead compares the latency of each recording slice with the mean
// of its two neighbours, which record the other way, and returns the median
// relative cost of recording. Comparing neighbours cancels the drift of a
// run whose latency grows with its history: plain on-versus-off medians read
// -23% on live-closed, because the on slices come first.
func sliceOverhead(bySlice map[int][]float64) float64 {
	var costs []float64
	for k, on := range bySlice {
		before, after := bySlice[k-1], bySlice[k+1]
		if len(before) == 0 || len(after) == 0 {
			continue
		}
		r := ratio(median(on), (median(before)+median(after))/2)
		if k%2 == 1 { // an off slice between two on slices
			r = ratio(1, r)
		}
		costs = append(costs, r-1)
	}
	return median(costs)
}

// measureDES runs a des-* workload: one pass over its fixed sub-seeded runs
// gives the exact numbers; the pass is then repeated, run by run, until the
// window is used up, and the timings are medians over all runs made.
func measureDES(name string, seed int64, seconds float64, traced bool) (*outcome, error) {
	sim, passLen := desWorkload(name, scaleOf(seconds))
	v := make(map[string]float64)
	out := &outcome{values: v}

	// Warm-up: a quarter-size run of the first sub-seed, so the heap and the
	// collector's pacing are what they will be in the window. It is most of
	// setup_s: generating a schedule and wiring a simulated cluster takes
	// under a millisecond, and a number that small moved 27% between two
	// sets of ten runs on the machine's mood alone.
	warmStart := time.Now()
	warm, _ := desWorkload(name, scaleOf(seconds)/4)
	if _, err := warm.run(subSeed(seed, 0), false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	warmed := time.Since(warmStart).Seconds()

	var pass simRun // the first pass, pooled
	var setups, rates, stepRates, walls []float64
	var traceCost, wallSum time.Duration
	var commitsAll int
	var heap uint64
	var ru0, ru1 rusage
	var m0, m1 memStats
	m0.read()
	ru0.read()
	start := time.Now()
	for i := 0; i < passLen || time.Since(start).Seconds() < seconds; i++ {
		first := i < passLen
		r, err := sim.run(subSeed(seed, i%passLen), traced && first)
		if err != nil {
			return nil, fmt.Errorf("sub-seed %d: %w", i%passLen, err)
		}
		setups = append(setups, r.setup.Seconds())
		rates = append(rates, float64(r.committed)/r.wall.Seconds())
		stepRates = append(stepRates, float64(r.steps)/r.wall.Seconds())
		walls = append(walls, r.wall.Seconds())
		wallSum += r.wall
		commitsAll += r.committed
		if !first {
			continue
		}
		if r.heap > heap {
			heap = r.heap
		}
		traceCost += r.traceCost
		base := len(pass.spans)
		for _, s := range r.spans {
			s.ID += base
			if s.Parent != 0 {
				s.Parent += base
			}
			s.Kind = fmt.Sprint("sub-seed ", i)
			pass.spans = append(pass.spans, s)
		}
		pass.pool(r)
		out.exact = out.exact*31 + r.fingerprint()
	}
	ru1.read()
	m1.read()
	commits := float64(pass.committed)
	if commits == 0 {
		return nil, errors.New("no request committed")
	}
	out.attempted, out.failed = pass.attempted, pass.failed

	v["setup_s"] = warmed + median(setups)
	v["commit_p50_ms"] = median(pass.lat)
	v["commit_p90_ms"] = quantile(pass.lat, 0.90)
	v["commits_per_s"] = median(rates)
	v["cpu_ms_per_commit"] = ms(ru1.cpu-ru0.cpu) / float64(commitsAll)
	v["heap_live_mb"] = float64(heap) / (1 << 20)
	v["msgs_per_commit"] = float64(pass.msgs) / commits

	v["client.commit_p99_ms"] = quantile(pass.lat, 0.99)
	v["client.slow_ops_frac"] = slowFrac(pass.lat)
	v["client.failed_frac"] = float64(pass.failed) / float64(pass.attempted)
	v["agent.migrations_per_commit"] = float64(pass.migrations) / commits
	v["agent.migrations_failed"] = float64(pass.migFailed)
	v["agent.regenerated"] = float64(pass.regenerated)
	v["replica.ll_depth_max"] = maxOf(pass.llDepth)
	v["replica.ll_depth_mean"] = mean(pass.llDepth)
	v["reliable.retransmissions_per_commit"] = float64(pass.retransmits) / commits
	v["reliable.duplicates_suppressed"] = float64(pass.dupDropped)
	v["reliable.gave_up"] = float64(pass.gaveUp)
	v["des.steps"] = float64(pass.steps)
	v["des.events_per_wall_s"] = median(stepRates)
	v["des.sim_wall_s"] = median(walls) * float64(passLen)
	v["simnet.bytes_per_commit"] = float64(pass.bytes) / commits
	v["simnet.msgs_lost"] = float64(pass.lost)
	if name == "des-optimistic" {
		v["opt.tentative_mean_ms"] = mean(pass.first)
		v["opt.stable_lag_mean_ms"] = mean(pass.lat)
		v["opt.rollbacks_per_commit"] = float64(pass.rollbacks) / commits
		v["opt.gossip_hops_per_commit"] = float64(pass.hops) / commits
		v["opt.tentative_depth_max"] = pass.tentDepthMax
		v["opt.aborts"] = float64(pass.aborts)
	} else {
		v["core.visits_mean"] = float64(pass.visits) / commits
		v["core.retries_per_commit"] = float64(pass.retries) / commits
		v["core.tie_break_frac"] = float64(pass.ties) / commits
		v["core.prk3_pct"] = 100 * float64(pass.won3) / commits
		v["core.alt_mean_ms"] = mean(pass.first)
		v["core.att_mean_ms"] = mean(pass.lat)
		v["core.lock_phase_p50_ms"] = median(pass.first)
		v["core.update_round_p50_ms"] = median(pass.updateRound)
		v["core.history_growth_ratio"] = pass.growth / float64(passLen)
	}
	v["rt.gc_cycles"] = float64(m1.numGC - m0.numGC)
	v["rt.gc_pause_total_ms"] = ms(m1.pause - m0.pause)
	v["rt.alloc_mb_per_kcommit"] = float64(m1.totalAlloc-m0.totalAlloc) / (1 << 20) / float64(commitsAll) * 1000
	if traced {
		v["bench.trace_overhead_frac"] = ratio(traceCost.Seconds(), wallSum.Seconds())
		out.spans = pass.spans
	}
	return out, nil
}

// pool adds one run of a pass to the pass's totals.
func (p *simRun) pool(r *simRun) {
	p.attempted += r.attempted
	p.committed += r.committed
	p.failed += r.failed
	p.lat = append(p.lat, r.lat...)
	p.first = append(p.first, r.first...)
	p.updateRound = append(p.updateRound, r.updateRound...)
	p.msgs += r.msgs
	p.bytes += r.bytes
	p.lost += r.lost
	p.steps += r.steps
	p.visits += r.visits
	p.retries += r.retries
	p.ties += r.ties
	p.won3 += r.won3
	p.migrations += r.migrations
	p.migFailed += r.migFailed
	p.regenerated += r.regenerated
	p.retransmits += r.retransmits
	p.dupDropped += r.dupDropped
	p.gaveUp += r.gaveUp
	p.llDepth = append(p.llDepth, r.llDepth...)
	p.growth += r.growth
	p.rollbacks += r.rollbacks
	p.hops += r.hops
	p.aborts += r.aborts
	if r.tentDepthMax > p.tentDepthMax {
		p.tentDepthMax = r.tentDepthMax
	}
}
