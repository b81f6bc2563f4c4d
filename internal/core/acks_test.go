package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/runtime"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// TestOpenLoopAcksRideTheTraffic is the census of the standalone
// acknowledgements an open loop costs on a wire fabric: three processes,
// sixteen shards, 64 keys, Poisson writes at a 30 ms mean per home for ten
// seconds on a ~150 µs link. A commit's last frames (its COMMITs, the
// report that carries the home's) find reverse traffic only when a later
// commit crosses the same link, which at this rate is tens of milliseconds
// away: a 10 ms hold sent a rel-ack for about every commit, the wire
// policy's 40 ms about one for every four, and the measured timeout allows
// the hold, so nothing is retransmitted.
func TestOpenLoopAcksRideTheTraffic(t *testing.T) {
	const (
		n, shards, keys = 3, 16, 64
		mean            = 30 * time.Millisecond
		window          = 10 * time.Second
	)
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			sim := des.New(seed)
			p := newProcessesOn(t, sim, simnet.Exponential(100*time.Microsecond, 50*time.Microsecond), Config{N: n, Shards: shards})
			evs, err := workload.Generate(workload.Spec{
				Servers: n, RequestsPerServer: 2 * int(window/mean), Keys: keys, MeanInterarrival: mean, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			requests := 0
			for _, ev := range evs {
				if ev.At >= window {
					break
				}
				requests++
				home, r := runtime.NodeID(ev.Home), Set(ev.Key, ev.Value)
				sim.At(runtime.Time(ev.At), func() {
					if err := p.cl[home-1].Submit(home, r); err != nil {
						t.Error(err)
					}
				})
			}
			sim.RunUntil(runtime.Time(window))
			busy := func() bool {
				for _, c := range p.cl {
					if c.Outstanding() != 0 {
						return true
					}
				}
				return false
			}
			if err := sim.Wait(time.Minute, func() bool { return !busy() }); err != nil {
				t.Fatal(err)
			}
			sim.RunFor(time.Second) // the last acknowledgements
			commits, retx := 0, 0
			for _, c := range p.cl {
				for _, o := range c.Outcomes() {
					if o.Failed {
						t.Fatalf("agent %s failed", o.Agent)
					}
					commits += o.Requests
				}
				retx += c.ReliableStats().Retransmissions
			}
			if commits != requests {
				t.Fatalf("%d of %d requests committed", commits, requests)
			}
			for sh := 0; sh < shards; sh++ {
				p.converged(t, sh)
			}
			st := p.net.Stats()
			acks := float64(st.ByKind["rel-ack"]) / float64(commits)
			t.Logf("%d commits: %.3f rel-ack and %.3f frames per commit, %d retransmissions",
				commits, acks, float64(st.MessagesSent)/float64(commits), retx)
			if acks > 0.35 {
				t.Errorf("%.3f standalone acknowledgements per commit, want at most 0.35", acks)
			}
			if retx != 0 {
				t.Errorf("%d retransmissions, want none: the timeout allows the hold", retx)
			}
		})
	}
}
