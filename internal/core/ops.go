package core

import (
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/replica"
	"repro/internal/runtime"
	"repro/internal/wal"
)

// This file is the cluster's ops plane: the metric registry every
// subsystem reports into under its stable dotted name (DESIGN.md §13
// tables the scheme), and the quorum-reachability health summary behind
// /healthz. Both are read paths — gathering a snapshot or computing
// health reads the same counters and fabric state the protocol already
// maintains, schedules nothing, and therefore cannot perturb a DES run.

// fsyncBuckets spans 10µs (page-cache Mem backend) to 1s (a stalling
// device), in seconds.
var fsyncBuckets = []float64{
	10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
	1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1,
}

// Metrics returns the cluster's registry. Read-through collectors sample
// engine-owned state, so Gather must run on the engine's execution context
// (transport.Server.GatherMetrics wraps that; the DES harness is already
// single-threaded).
func (c *Cluster) Metrics() *metrics.Registry { return c.metrics }

// initMetrics creates the registry and the typed instruments that hot
// paths observe into; NewCluster calls it before any journal opens so the
// WAL fsync histogram exists when durableOptions wires the OnSync hook.
func (c *Cluster) initMetrics() {
	c.metrics = metrics.NewRegistry()
	c.mWalFsync = c.metrics.Histogram("marp.wal.fsync_seconds",
		"Wall-clock latency of WAL segment fsyncs.", fsyncBuckets)
}

// registerMetrics installs the read-through collectors over every
// subsystem's existing counters. Called once at the end of NewCluster.
func (c *Cluster) registerMetrics() {
	r := c.metrics

	// WAL: summed across locally hosted journals (live mode hosts one).
	walCounter := func(name, help string, get func(s wal.Stats) int) {
		r.CounterFunc("marp.wal."+name, help, func() float64 {
			return float64(get(c.JournalStats()))
		})
	}
	walCounter("appends", "Records appended to the write-ahead log.",
		func(s wal.Stats) int { return s.Appends })
	walCounter("appended_bytes", "Bytes appended to the write-ahead log.",
		func(s wal.Stats) int { return s.AppendedBytes })
	walCounter("syncs", "WAL segment fsyncs issued.",
		func(s wal.Stats) int { return s.Syncs })
	walCounter("rotations", "WAL segment rotations.",
		func(s wal.Stats) int { return s.Rotations })
	walCounter("snapshots", "Snapshot compactions installed.",
		func(s wal.Stats) int { return s.Snapshots })
	walCounter("replayed", "Records replayed by journal open.",
		func(s wal.Stats) int { return s.Replayed })
	walCounter("group_batches", "Group-commit fsyncs that covered parked barriers.",
		func(s wal.Stats) int { return s.GroupBatches })
	walCounter("group_barriers", "Commit barriers covered by group-commit fsyncs.",
		func(s wal.Stats) int { return s.GroupBarriers })

	// Disk: backend I/O summed across locally hosted nodes.
	r.CounterFunc("marp.disk.writes", "Write calls issued to the disk backend.",
		func() float64 { return float64(c.DiskStats().Writes) })
	r.CounterFunc("marp.disk.bytes_written", "Bytes written to the disk backend.",
		func() float64 { return float64(c.DiskStats().BytesWritten) })
	r.CounterFunc("marp.disk.syncs", "Sync calls issued to the disk backend.",
		func() float64 { return float64(c.DiskStats().Syncs) })
	// Duration.Seconds, not a raw ns/1e9 divide: the A7 table formats this
	// value and the two conversions can differ in the last ulp.
	r.CounterFunc("marp.disk.sync_seconds_total", "Modelled or measured time spent in disk Sync calls.",
		func() float64 { return time.Duration(c.DiskStats().SyncTime).Seconds() })

	// Reliable delivery: zeros when the cluster runs on raw channels, so
	// the family is always present and scrapes need no existence dance.
	r.CounterFunc("marp.reliable.retransmissions", "Frames sent beyond their first transmission.",
		func() float64 { return float64(c.ReliableStats().Retransmissions) })
	r.CounterFunc("marp.reliable.duplicates_suppressed", "Frames received more than once and dropped.",
		func() float64 { return float64(c.ReliableStats().DuplicatesSuppressed) })
	r.CounterFunc("marp.reliable.acks_sent", "Standalone acknowledgement frames sent: no data frame left for the peer within the ack delay.",
		func() float64 { return float64(c.ReliableStats().AcksSent) })
	r.CounterFunc("marp.reliable.acks_piggybacked", "Acknowledgements that rode a data frame going the other way instead of a frame of their own.",
		func() float64 { return float64(c.ReliableStats().AcksPiggybacked) })
	r.GaugeFunc("marp.reliable.dedup_residue", "Frames held out of order above the receive watermarks: zero at quiescence; one that only grows means a hole no floor has closed.",
		func() float64 { return float64(c.ReliableStats().DedupResidue) })
	r.CounterFunc("marp.reliable.gave_up", "Sends that exhausted the retry cap.",
		func() float64 { return float64(c.ReliableStats().GaveUp) })
	r.CounterFunc("marp.reliable.rtt_samples", "Round trips measured from first transmissions, the receiver's ack delay taken out.",
		func() float64 { return float64(c.ReliableStats().RTTSamples) })
	r.GaugeFunc("marp.reliable.rto_max_seconds", "The longest first retransmission timeout a link that has measured its round trip would give a frame now, backoff included.",
		func() float64 { return c.ReliableStats().RTOMax.Seconds() })

	// Fabric: the transport the protocol actually sends on.
	r.CounterFunc("marp.fabric.messages_sent", "Protocol messages handed to the fabric.",
		func() float64 { return float64(c.NetStats().MessagesSent) })
	r.CounterFunc("marp.fabric.messages_delivered", "Messages delivered (or handed to the kernel).",
		func() float64 { return float64(c.NetStats().MessagesDelivered) })
	r.CounterFunc("marp.fabric.messages_dropped", "Messages dropped: destination down, partitioned, or detached.",
		func() float64 { return float64(c.NetStats().MessagesDropped) })
	r.CounterFunc("marp.fabric.messages_lost", "Messages eaten by the fault model or a dead connection.",
		func() float64 { return float64(c.NetStats().MessagesLost) })
	r.CounterFunc("marp.fabric.messages_duplicated", "Messages delivered twice by the fault model.",
		func() float64 { return float64(c.NetStats().MessagesDuplicated) })
	r.CounterFunc("marp.fabric.queue_drops", "Messages dropped by a full per-peer writer queue (live fabric).",
		func() float64 { return float64(c.NetStats().QueueDrops) })
	r.CounterFunc("marp.fabric.bytes_sent", "Modelled payload bytes handed to the fabric.",
		func() float64 { return float64(c.NetStats().BytesSent) })

	// Agent platform: migration traffic.
	r.CounterFunc("marp.agent.created", "Mobile agents created.",
		func() float64 { return float64(c.platform.Stats().AgentsCreated) })
	r.CounterFunc("marp.agent.migrations_started", "Agent migrations started.",
		func() float64 { return float64(c.platform.Stats().MigrationsStarted) })
	r.CounterFunc("marp.agent.migrations_completed", "Agent migrations completed.",
		func() float64 { return float64(c.platform.Stats().MigrationsCompleted) })
	r.CounterFunc("marp.agent.migrations_failed", "Agent migrations that timed out.",
		func() float64 { return float64(c.platform.Stats().MigrationsFailed) })
	r.CounterFunc("marp.agent.killed", "Agents that died with a crashed host or in transit to one.",
		func() float64 { return float64(c.platform.Stats().AgentsKilled) })
	r.GaugeFunc("marp.agent.tracked", "Agents this process keeps a behavior or a regeneration checkpoint for; zero when idle.",
		func() float64 { return float64(len(c.active) + len(c.checkpoints)) })

	// Replica / request level.
	r.CounterFunc("marp.replica.commits", "Client requests committed (batch members counted individually).",
		func() float64 {
			n := 0
			for _, o := range c.outcomes {
				if !o.Failed {
					n += o.Requests
				}
			}
			return float64(n)
		})
	r.CounterFunc("marp.replica.failures", "Client requests that failed.",
		func() float64 {
			n := 0
			for _, o := range c.outcomes {
				if o.Failed {
					n += o.Requests
				}
			}
			return float64(n)
		})
	r.GaugeFunc("marp.replica.outstanding", "Dispatched agents not yet finished.",
		func() float64 { return float64(c.outstanding) })
	r.CounterFunc("marp.replica.regenerated", "Lost agents respawned from checkpoints.",
		func() float64 { return float64(c.regenerated) })

	// Per-shard views. Locking-list depth sums over the replicas this
	// process hosts; committed counts read one representative local
	// replica (the lowest-ID live one) so a sim-mode process does not
	// multiply every commit by N.
	r.GaugeVecFunc("marp.shard.ll_depth", "Locking List depth per shard, summed over locally hosted replicas.",
		"shard", func() map[string]float64 {
			out := make(map[string]float64, c.shards)
			for sh := 0; sh < c.shards; sh++ {
				depth := 0
				for _, id := range c.nodes {
					if s := c.servers[id]; s != nil {
						depth += s.QueueLen(sh)
					}
				}
				out[strconv.Itoa(sh)] = float64(depth)
			}
			return out
		})
	// A home's watermark waits behind the oldest agent it dispatched that is
	// not accounted for, so a lost agent shows here as a residue that only
	// grows — at every server, since the residue spreads like the list did.
	r.GaugeVecFunc("marp.replica.gone_residue", "Finished or dead agents each locally hosted server holds individually because no gone-set watermark covers them yet.",
		"server", func() map[string]float64 {
			out := make(map[string]float64, len(c.servers))
			for id, s := range c.servers {
				out[strconv.Itoa(int(id))] = float64(s.GoneResidue())
			}
			return out
		})
	r.CounterVecFunc("marp.shard.commits", "Committed updates per shard at a representative local replica.",
		"shard", func() map[string]float64 {
			out := make(map[string]float64, c.shards)
			rep := c.representative()
			for sh := 0; sh < c.shards; sh++ {
				v := 0.0
				if rep != nil {
					v = float64(rep.StoreOf(sh).LogLen())
				}
				out[strconv.Itoa(sh)] = v
			}
			return out
		})

	// Health, as scrape-able gauges mirroring /healthz.
	r.GaugeFunc("marp.health.quorum_ok", "1 when every shard group has a reachable write quorum from this process's vantage.",
		func() float64 {
			if c.Health().QuorumOK {
				return 1
			}
			return 0
		})
	r.GaugeFunc("marp.health.shards_degraded", "Shard groups without a reachable write quorum.",
		func() float64 {
			n := 0
			for _, sh := range c.Health().Shards {
				if !sh.QuorumOK {
					n++
				}
			}
			return float64(n)
		})
}

// ShardHealth is one shard group's quorum reachability from this
// process's vantage node.
type ShardHealth struct {
	Shard int `json:"shard"`
	// Group is the shard's replica group, ascending.
	Group []runtime.NodeID `json:"group"`
	// Reachable counts group members this process can currently reach
	// (itself included when it is a member).
	Reachable int `json:"reachable"`
	// MinWrite is the size of the smallest write quorum for the shard's
	// geometry.
	MinWrite int `json:"min_write"`
	// QuorumOK reports whether the reachable members contain a write
	// quorum.
	QuorumOK bool `json:"quorum_ok"`
	// Unreachable lists the members counted out, if any.
	Unreachable []runtime.NodeID `json:"unreachable,omitempty"`
}

// Health is the /healthz body: quorum reachability per shard group,
// computed from the same fabric state — crashes the fabric knows about,
// partitions it was told of — that gates the protocol's own sends.
type Health struct {
	// Vantage is the local replica the reachability is judged from (the
	// lowest-ID locally hosted live node; None when every local replica is
	// down, which is itself degraded).
	Vantage runtime.NodeID `json:"vantage"`
	// QuorumOK is the summary verdict: every shard group has a reachable
	// write quorum.
	QuorumOK bool          `json:"quorum_ok"`
	Shards   []ShardHealth `json:"shards"`
}

// representative returns the lowest-ID locally hosted live replica (nil
// when all are down).
func (c *Cluster) representative() *replica.Server {
	for _, id := range c.nodes {
		if !c.local[id] {
			continue
		}
		if s := c.servers[id]; s != nil && !s.Down() {
			return s
		}
	}
	return nil
}

// Health computes the quorum-reachability summary. Like every cluster
// read it must run on the engine's execution context.
func (c *Cluster) Health() Health {
	vantage := runtime.None
	for _, id := range c.nodes {
		if !c.local[id] {
			continue
		}
		if s := c.servers[id]; s != nil && !s.Down() {
			vantage = id
			break
		}
	}
	h := Health{Vantage: vantage, QuorumOK: true}
	reachSrc, _ := c.base.(runtime.ReachabilitySource)
	reachable := func(m runtime.NodeID) bool {
		if vantage == runtime.None {
			return false
		}
		if s, hosted := c.servers[m]; hosted && s.Down() {
			return false
		}
		if c.base.Down(m) {
			return false
		}
		if m == vantage || reachSrc == nil {
			return true
		}
		return reachSrc.Reachable(vantage, m)
	}
	for sh := 0; sh < c.shards; sh++ {
		group := c.groups[sh]
		shh := ShardHealth{Shard: sh, Group: group, MinWrite: c.assigns[sh].MinWrite()}
		var ok []runtime.NodeID
		for _, m := range group {
			if reachable(m) {
				ok = append(ok, m)
			} else {
				shh.Unreachable = append(shh.Unreachable, m)
			}
		}
		shh.Reachable = len(ok)
		shh.QuorumOK = c.assigns[sh].HasWrite(ok)
		if !shh.QuorumOK {
			h.QuorumOK = false
		}
		h.Shards = append(h.Shards, shh)
	}
	return h
}
