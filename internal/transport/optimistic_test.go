package transport

import (
	"strings"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/runtime/live"
)

// startOptCluster is startCluster for an optimistic service: three live
// optimistic nodes gossiping every 5 ms, one client per server.
func startOptCluster(t *testing.T) *testCluster {
	t.Helper()
	const n = 3
	addrs := freeAddrs(t, n)
	c := &testCluster{}
	for i := 1; i <= n; i++ {
		srv, err := ServeLiveOptimistic("127.0.0.1:0", live.OptNodeConfig{
			Self: runtime.NodeID(i), Addrs: addrs, Seed: int64(i), GossipInterval: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		c.srvs = append(c.srvs, srv)
		c.clis = append(c.clis, dial(t, srv))
	}
	return c
}

// TestOptimisticClientPlane drives every op of an optimistic service over
// real sockets: three live optimistic nodes gossiping every 5 ms, one write,
// and what each op reports before and after the write turns stable.
func TestOptimisticClientPlane(t *testing.T) {
	c := startOptCluster(t)
	srvs, clis, n := c.srvs, c.clis, len(c.clis)
	cli := clis[0]

	txn, err := cli.SubmitCAS(1, "city", "kowloon", "!unwritten")
	if err != nil || txn == "" {
		t.Fatalf("SubmitCAS = %q, %v", txn, err)
	}
	if v, found, err := cli.ReadTentative(1, "city"); err != nil || !found || v != "kowloon" {
		t.Fatalf("tentative read right after the submit = %q, %v, %v", v, found, err)
	}

	// Refusals: what this service cannot honour is an error, never an ok.
	if err := cli.Submit(1, "city", "-hk", true); err == nil || !strings.Contains(err.Error(), "append") {
		t.Fatalf("append: err = %v", err)
	}
	if _, err := cli.SubmitCAS(2, "city", "x", ""); err == nil {
		t.Fatal("submit for a replica hosted by another process accepted")
	}
	refusesCrashOps(t, cli)

	// The write turns stable everywhere and the stable digests converge.
	var first Response
	eventually(t, "three equal one-entry stable digests", func() bool {
		for i, c := range clis {
			resp, err := c.DigestReport(i + 1)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Kind != DigestKindStablePrefix || resp.Stable == nil || resp.Tentative == nil {
				t.Fatalf("node %d digest is not a two-tier %s report: %+v", i+1, DigestKindStablePrefix, resp)
			}
			if i == 0 {
				first = resp
			}
			if resp.Stable.Entries != 1 || resp.Stable.Digest != first.Stable.Digest || resp.Value != resp.Stable.Digest {
				return false
			}
		}
		return true
	})
	if v, _, found, err := clis[2].Read(3, "city"); err != nil || !found || v != "kowloon" {
		t.Fatalf("stable read at node 3 = %q, %v, %v", v, found, err)
	}

	st, err := cli.Stats()
	if err != nil || st.Servers != n || st.Committed != 1 || st.Failed != 0 || st.Outstanding != 0 {
		t.Fatalf("stats = %+v, %v", st, err)
	}
	ref, err := cli.RefereeReport()
	if err != nil || ref.Kind != DigestKindStablePrefix || ref.Wins != 1 || ref.Violations != 0 {
		t.Fatalf("referee = %+v, %v", ref, err)
	}
	body, err := cli.Scenario()
	if err != nil || body.DigestKind != DigestKindStablePrefix || body.Geometry != OptGeometry ||
		body.Servers != n || body.Commits != 1 || len(body.Keys) != 1 {
		t.Fatalf("scenario = %+v, %v", body, err)
	}
	if h, err := srvs[0].Health(); err != nil || !h.QuorumOK || h.Vantage != 1 {
		t.Fatalf("health = %+v, %v", h, err)
	}
	snap, reg, err := srvs[0].GatherMetrics()
	if err != nil || reg == nil || snap.Value("marp.opt.gossip_hops") == 0 {
		t.Fatalf("metrics: gossip_hops = %v, registry %v, err %v", snap.Value("marp.opt.gossip_hops"), reg, err)
	}
}
