package optimistic

import (
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/runtime"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// TestClockBarrierCostsNoExtraSyncs: a durable N=5 WAN run — 2000 submits
// at 100/s, one launch per replica every 250 ms — fsyncs no more per commit
// than it did while stamps were Lamport ticks. A stamp is now a hybrid
// clock reading in nanoseconds, so nearly every report crossed the old
// 64-tick high-water stride: 6.86 syncs per commit here. A one-second span
// alone is one clock barrier per second per replica, 6.06; riding the own
// tentatives' barriers, the clock costs none while a replica submits.
func TestClockBarrierCostsNoExtraSyncs(t *testing.T) {
	const n, perServer = 5, 400
	// Lamport stamps with a 64-tick stride, measured on this run.
	const lamportSyncsPerCommit = 6.0225
	sim := des.New(1)
	disks := map[runtime.NodeID]*disk.Mem{}
	c, err := NewCluster(sim, simnet.New(sim, simnet.FullMesh(n), simnet.WAN()), Config{
		N: n, GossipInterval: 250 * time.Millisecond,
		Durability: &DurabilityConfig{Backend: func(id runtime.NodeID) disk.Backend {
			disks[id] = disk.NewMem()
			return disks[id]
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	events, err := workload.Generate(workload.Spec{
		Servers: n, RequestsPerServer: perServer,
		MeanInterarrival: 50 * time.Millisecond, Keys: 64, Seed: 1001,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		ev := ev
		sim.After(ev.At, func() {
			if _, err := c.Submit(ev.Home, ev.Key, ev.Value); err != nil {
				t.Error(err)
			}
		})
	}
	sim.RunFor(workload.Span(events) + time.Millisecond)
	if err := c.RunUntilDone(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	syncs := 0
	for _, d := range disks {
		syncs += d.Stats().Syncs
	}
	perCommit := float64(syncs) / float64(len(events))
	t.Logf("%d syncs for %d commits: %.4f per commit", syncs, len(events), perCommit)
	if perCommit > lamportSyncsPerCommit {
		t.Fatalf("%.4f syncs per commit, want at most the %.4f Lamport stamps cost", perCommit, lamportSyncsPerCommit)
	}
}
