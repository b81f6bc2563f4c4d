package main

import "strings"

// The catalog is the single definition of every workload and metric the
// benchmark reports. BENCHMARK.json is generated from it (`-manifest`) and
// the smoke test fails when the two disagree; README.md carries the same
// rows as prose.

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

// metricDef is one reported metric. Bound is set on end-to-end metrics only:
// the share of the parent's median by which the metric may get worse before
// a change counts as a regression. Layer and Moves are documentation: the
// module the number is taken from, and the end-to-end metric (and workload)
// it is expected to move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Layer  string
	Moves  string
}

var workloads = []workloadDef{
	{"live-open", "open loop, 100 writes/s and 400 local reads/s (about a third of capacity): commit latency when nothing contends, so transit, hops and the UPDATE/ACK round are the blocking steps"},
	{"live-closed", "closed loop, 6 always outstanding, volatile: the three actor loops saturate, so CPU per message (wire, live, core) sets commits/s"},
	{"live-durable", "live-closed with fsync=commit on a modelled 100us-fsync disk: WAL/disk/durable dominate and fabric gains are fsync-masked; ends with a power-cut replay"},
	{"des-hot", "DES, N=5 LAN, one key: the paper's contended setting in exact virtual time (LL wait, visits, tie-breaks, retries); wall time is simulator speed"},
	{"des-churn", "DES with message loss, duplication, periodic minority partitions and crash blips: the only workload on the reliable, failure, regeneration and checkpoint paths"},
	{"des-optimistic", "DES, optimistic tier on WAN: its own replica, store tier and codec; submit-to-stable lag and rollbacks per commit"},
}

// endToEnd is what a user of the system sees. Every workload produces every
// one of them: on live-* the latencies are wall-clock as a client observes
// them, on des-* they are virtual time (exact for a seed) and commits_per_s,
// cpu_ms_per_commit are the simulator's speed on the fixed workload.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Layer: "bench",
		Moves: "everything before the measured window: schedule generation, cluster construction and (live) the warm-up until every home has committed"},
	{Name: "commit_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Layer: "client",
		Moves: "median due/submit -> commit observed (des-optimistic: submit -> stable at origin)"},
	{Name: "commit_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25, Layer: "client",
		Moves: "90th percentile of the same"},
	{Name: "commits_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Layer: "client",
		Moves: "commits per wall-clock second (live-open: goodput at the fixed rate; des-*: simulated commits per wall second)"},
	{Name: "cpu_ms_per_commit", Unit: "ms", Better: "lower", Bound: 0.25, Layer: "rt",
		Moves: "process user+sys CPU (getrusage) over the window / commits"},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.25, Layer: "rt",
		Moves: "HeapAlloc after runtime.GC() at the end of the window, before teardown"},
	{Name: "msgs_per_commit", Unit: "count", Better: "lower", Bound: 0.10, Layer: "fabric",
		Moves: "fabric messages (migrations included) / commits; exact on des-*"},
}

// perLayer metrics carry no bound. A layer that does no work on a workload
// reports 0 there, which is itself the prediction ("no change").
var perLayer = []metricDef{
	// client: the benchmark driver's own view.
	{Name: "client.accept_p50_us", Unit: "us", Better: "lower", Layer: "client", Moves: "commit_p50_ms live-open (due -> Submit returned on the home loop)"},
	{Name: "client.commit_p99_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "tail beyond commit_p90_ms; varies 2x run to run, so not gated"},
	{Name: "client.commit_notice_p50_us", Unit: "us", Better: "lower", Layer: "client", Moves: "commit_p50_ms live-* (COMMIT sent -> observed at home; traced)"},
	{Name: "client.slow_ops_frac", Unit: "ratio", Better: "lower", Layer: "client", Moves: "commit_p90_ms (share of commits slower than 5x the run median: the contention proxy)"},
	{Name: "client.read_p50_us", Unit: "us", Better: "lower", Layer: "client", Moves: "local read due -> returned, live-open"},
	{Name: "client.read_p99_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "reads queue behind protocol callbacks on the same loop, live-open"},
	{Name: "client.gen_late_p99_ms", Unit: "ms", Better: "lower", Layer: "client", Moves: "a late generator invalidates an open-loop run (> 20 ms)"},
	{Name: "client.observer_lag_us", Unit: "us", Better: "lower", Layer: "client", Moves: "p99 gap between commit polls on a home loop: the resolution of every live latency"},
	{Name: "client.failed_frac", Unit: "ratio", Better: "lower", Layer: "client", Moves: "(failed + refused + not committed by the drain deadline) / attempted"},
	// transport: the client plane, bypassed by the workloads, probed alone.
	{Name: "transport.submit_rtt_p50_us", Unit: "us", Better: "lower", Layer: "transport", Moves: "nothing yet: baseline for a commit-notify client op (probe)"},
	{Name: "transport.read_rtt_p50_us", Unit: "us", Better: "lower", Layer: "transport", Moves: "nothing yet (probe)"},
	// live fabric.
	{Name: "live.transit_p50_us", Unit: "us", Better: "lower", Layer: "live", Moves: "commit_p50_ms live-open: ~4 transits on the blocking path (traced)"},
	{Name: "live.transit_p99_us", Unit: "us", Better: "lower", Layer: "live", Moves: "commit_p90_ms live-open (traced)"},
	{Name: "live.migrate_transit_p50_us", Unit: "us", Better: "lower", Layer: "live", Moves: "commit_p50_ms live-open: agent hops (traced)"},
	{Name: "live.msgs_per_commit", Unit: "count", Better: "lower", Layer: "live", Moves: "commits_per_s, cpu_ms_per_commit live-closed"},
	{Name: "live.bytes_per_commit", Unit: "bytes", Better: "lower", Layer: "live", Moves: "cpu_ms_per_commit live-closed (modelled bytes)"},
	{Name: "live.queue_drops", Unit: "count", Better: "lower", Layer: "live", Moves: "failed; any drop also invalidates the transit spans"},
	{Name: "live.pingpong_rtt_p50_us", Unit: "us", Better: "lower", Layer: "live", Moves: "commit_p50_ms live-open (probe: two bare fabrics)"},
	// wire codec.
	{Name: "wire.msg_encode_ns", Unit: "ns", Better: "lower", Layer: "wire", Moves: "cpu_ms_per_commit, commits_per_s live-closed; none on des-* (probe)"},
	{Name: "wire.msg_decode_ns", Unit: "ns", Better: "lower", Layer: "wire", Moves: "same (probe)"},
	{Name: "wire.allocs_per_msg", Unit: "count", Better: "lower", Layer: "wire", Moves: "rt.alloc_mb_per_kcommit live-closed (probe)"},
	{Name: "wire.agentstate_encode_ns_g4096", Unit: "ns", Better: "lower", Layer: "wire", Moves: "history growth: encode cost of an agent carrying 4096 gone IDs (probe)"},
	{Name: "wire.agentstate_bytes_g4096", Unit: "bytes", Better: "lower", Layer: "wire", Moves: "same, size (probe)"},
	// agent platform.
	{Name: "agent.migrations_per_commit", Unit: "count", Better: "lower", Layer: "agent", Moves: "commit_p50_ms live-open and des-hot"},
	{Name: "agent.migrations_failed", Unit: "count", Better: "lower", Layer: "agent", Moves: "commit_p90_ms; des-churn"},
	{Name: "agent.regenerated", Unit: "count", Better: "lower", Layer: "agent", Moves: "des-churn only"},
	// replica.
	{Name: "replica.ll_depth_max", Unit: "count", Better: "lower", Layer: "replica", Moves: "commit_p90_ms (Locking List depth summed over replicas, sampled)"},
	{Name: "replica.ll_depth_mean", Unit: "count", Better: "lower", Layer: "replica", Moves: "core.alt_mean_ms des-hot"},
	// core protocol.
	{Name: "core.visits_mean", Unit: "count", Better: "lower", Layer: "core", Moves: "core.alt_mean_ms des-hot"},
	{Name: "core.retries_per_commit", Unit: "count", Better: "lower", Layer: "core", Moves: "wasted work: aborted claims / commits; commit_p90_ms des-hot"},
	{Name: "core.tie_break_frac", Unit: "ratio", Better: "lower", Layer: "core", Moves: "des-hot"},
	{Name: "core.prk3_pct", Unit: "%", Better: "higher", Layer: "core", Moves: "paper Fig. 4: share of locks won after exactly 3 visits, des-hot"},
	{Name: "core.alt_mean_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "paper Fig. 2 (mean ALT, virtual) on des-hot, des-churn"},
	{Name: "core.att_mean_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "paper Fig. 3 (mean ATT, virtual) on des-hot, des-churn"},
	{Name: "core.lock_phase_p50_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "commit_p50_ms (accepted -> winning UPDATE sent; traced on live, virtual on des)"},
	{Name: "core.update_round_p50_ms", Unit: "ms", Better: "lower", Layer: "core", Moves: "commit_p50_ms (UPDATE sent -> COMMIT sent: two transits)"},
	{Name: "core.locktable_decide_ns", Unit: "ns", Better: "lower", Layer: "core", Moves: "cpu_ms_per_commit (probe: MergeSnapshot+Decide, N=5, depth 32)"},
	{Name: "core.history_growth_ratio", Unit: "ratio", Better: "lower", Layer: "core", Moves: "bytes/commit in the last quarter / first quarter of a run; 1.0 = flat; commits_per_s on long runs, heap_live_mb"},
	// store.
	{Name: "store.commit_ns", Unit: "ns", Better: "lower", Layer: "store", Moves: "cpu_ms_per_commit live-closed, small (probe: Prepare+Commit)"},
	// wal / disk / durable.
	{Name: "wal.appends_per_commit", Unit: "count", Better: "lower", Layer: "wal", Moves: "commits_per_s live-durable only"},
	{Name: "wal.bytes_per_commit", Unit: "bytes", Better: "lower", Layer: "wal", Moves: "live-durable only"},
	{Name: "wal.group_batches", Unit: "count", Better: "higher", Layer: "wal", Moves: "0 while group commit stays off by default"},
	{Name: "wal.append_sync_p50_us", Unit: "us", Better: "lower", Layer: "wal", Moves: "commit_p50_ms live-durable (probe: Append+fsync on a Mem disk)"},
	{Name: "disk.syncs_per_commit", Unit: "count", Better: "lower", Layer: "disk", Moves: "commits_per_s, commit_p50_ms live-durable"},
	{Name: "disk.sync_p50_us", Unit: "us", Better: "lower", Layer: "disk", Moves: "live-durable (traced disk decorator; includes the modelled 100us)"},
	{Name: "durable.replay_ms", Unit: "ms", Better: "lower", Layer: "durable", Moves: "recovery time after the power cut, live-durable"},
	// reliable delivery.
	{Name: "reliable.retransmissions_per_commit", Unit: "count", Better: "lower", Layer: "reliable", Moves: "commits_per_s, msgs_per_commit des-churn"},
	{Name: "reliable.duplicates_suppressed", Unit: "count", Better: "lower", Layer: "reliable", Moves: "des-churn"},
	{Name: "reliable.gave_up", Unit: "count", Better: "lower", Layer: "reliable", Moves: "failed, des-churn"},
	// simulator.
	{Name: "des.steps", Unit: "count", Better: "lower", Layer: "des", Moves: "commits_per_s des-* (exact)"},
	{Name: "des.events_per_wall_s", Unit: "1/s", Better: "higher", Layer: "des", Moves: "commits_per_s des-*"},
	{Name: "des.sim_wall_s", Unit: "s", Better: "lower", Layer: "des", Moves: "wall time of one pass over the fixed workload, oracles included"},
	{Name: "des.schedule_ns", Unit: "ns", Better: "lower", Layer: "des", Moves: "commits_per_s des-* (probe: After+Step steady state)"},
	{Name: "simnet.bytes_per_commit", Unit: "bytes", Better: "lower", Layer: "simnet", Moves: "modelled bytes: the message-economy claim; grows with history"},
	{Name: "simnet.msgs_lost", Unit: "count", Better: "lower", Layer: "simnet", Moves: "des-churn (eaten by the fault model)"},
	// optimistic tier.
	{Name: "opt.tentative_mean_ms", Unit: "ms", Better: "lower", Layer: "optimistic", Moves: "submit -> tentative commit, virtual; des-optimistic"},
	{Name: "opt.stable_lag_mean_ms", Unit: "ms", Better: "lower", Layer: "optimistic", Moves: "commit_p50_ms des-optimistic (mean submit -> stable at origin)"},
	{Name: "opt.rollbacks_per_commit", Unit: "count", Better: "lower", Layer: "optimistic", Moves: "wasted re-execution; commits_per_s des-optimistic"},
	{Name: "opt.gossip_hops_per_commit", Unit: "count", Better: "lower", Layer: "optimistic", Moves: "msgs_per_commit des-optimistic"},
	{Name: "opt.tentative_depth_max", Unit: "count", Better: "lower", Layer: "optimistic", Moves: "heap_live_mb des-optimistic"},
	{Name: "opt.aborts", Unit: "count", Better: "lower", Layer: "optimistic", Moves: "0 without CAS guards"},
	// Go runtime and the benchmark itself.
	{Name: "rt.gc_cycles", Unit: "count", Better: "lower", Layer: "rt", Moves: "commit_p90_ms live-open"},
	{Name: "rt.gc_pause_total_ms", Unit: "ms", Better: "lower", Layer: "rt", Moves: "commit_p90_ms live-open"},
	{Name: "rt.alloc_mb_per_kcommit", Unit: "MB", Better: "lower", Layer: "rt", Moves: "cpu_ms_per_commit live-closed"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower", Layer: "bench", Moves: "recording on vs off in alternating slices of the traced pass"},
	{Name: "bench.stage_sum_frac", Unit: "ratio", Better: "lower", Layer: "bench", Moves: "|sum of stage medians - traced commit p50| / p50; > 0.15 means the stages do not explain the latency"},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// isLive reports whether the workload runs on the live engine (real
// sockets, wall clock) rather than on the simulator.
func isLive(name string) bool { return strings.HasPrefix(name, "live-") }

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
