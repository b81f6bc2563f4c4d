package optimistic_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/desengine"
	"repro/internal/optimistic"
	"repro/internal/simnet"
)

// TestBurstFromOneOriginDrains: a burst longer than two hops' cargo from one
// origin, with no submit after it, used to never drain — every clock in a
// quiescent cluster stands still, a report replaced the held one only on a
// strictly newer clock, and so each packer kept estimating from the first
// delivery vector it had seen and re-sent the same first MaxCarry actions
// for ever.
func TestBurstFromOneOriginDrains(t *testing.T) {
	for _, burst := range []int{1025, 2000} {
		t.Run(fmt.Sprint(burst), func(t *testing.T) {
			cl, err := desengine.NewOptimistic(desengine.OptConfig{
				Seed: 1, Latency: simnet.WAN(),
				Cluster: optimistic.Config{N: 5, GossipInterval: 250 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < burst; i++ {
				if _, err := cl.Submit(1, fmt.Sprint("k", i%16), fmt.Sprint("v", i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := cl.RunUntilDone(10 * time.Minute); err != nil {
				carried := cl.Metrics().Value("marp.opt.actions_carried")
				t.Fatalf("%v (the agents carried %.0f actions for %d submits)", err, carried, burst)
			}
			if err := cl.CheckConvergence(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
