package transport

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/runtime"
	"repro/internal/runtime/live"
)

// testCluster is three live replica processes' worth of servers in one test
// process, one client per server. Index i holds node i+1.
type testCluster struct {
	srvs []*Server
	clis []*Client
}

// freeAddrs reserves n loopback fabric addresses, keyed by node ID.
func freeAddrs(t *testing.T, n int) map[runtime.NodeID]string {
	t.Helper()
	addrs, err := live.ReserveAddrs(n)
	if err != nil {
		t.Fatal(err)
	}
	return addrs
}

func dial(t *testing.T, srv *Server) *Client {
	t.Helper()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

func startCluster(t *testing.T) *testCluster {
	t.Helper()
	const n = 3
	addrs := freeAddrs(t, n)
	c := &testCluster{}
	for i := 1; i <= n; i++ {
		srv, err := ServeLive("127.0.0.1:0", live.NodeConfig{Self: runtime.NodeID(i), Addrs: addrs, Seed: int64(41 + i)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
		c.srvs = append(c.srvs, srv)
		c.clis = append(c.clis, dial(t, srv))
	}
	return c
}

// eventually polls cond until it holds or ten seconds pass.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stats sums the per-process counters: each process counts what it did (an
// outcome is recorded where the agent's home is hosted, a migration where it
// was acknowledged).
func (c *testCluster) stats(t *testing.T) StatsBody {
	t.Helper()
	var sum StatsBody
	for _, cli := range c.clis {
		st, err := cli.Stats()
		if err != nil {
			t.Fatal(err)
		}
		sum.Servers = st.Servers
		sum.Committed += st.Committed
		sum.Failed += st.Failed
		sum.Messages += st.Messages
		sum.Migrations += st.Migrations
	}
	return sum
}

func (c *testCluster) waitCommitted(t *testing.T, want int) {
	t.Helper()
	eventually(t, "commits", func() bool { return c.stats(t).Committed >= want })
}

// refusesCrashOps asserts that crash and recover — for a hosted node and for
// one that does not exist — are unknown ops like any other: no server can
// fail-stop itself on request, so none may answer ok.
func refusesCrashOps(t *testing.T, cli *Client) {
	t.Helper()
	for _, req := range []Request{
		{Op: "dance"}, {Op: "crash", Node: 1}, {Op: "recover", Node: 1}, {Op: "crash", Node: 7},
	} {
		if _, err := cli.roundTrip(req); err == nil || !strings.Contains(err.Error(), "unknown op") {
			t.Fatalf("%s %d: err = %v, want an unknown-op refusal", req.Op, req.Node, err)
		}
	}
}

func TestSubmitReadOverTCP(t *testing.T) {
	c := startCluster(t)
	if err := c.clis[0].Submit(1, "greeting", "hello-tcp", false); err != nil {
		t.Fatal(err)
	}
	c.waitCommitted(t, 1)
	for i, cli := range c.clis {
		eventually(t, "the commit at every replica", func() bool {
			value, seq, found, err := cli.Read(i+1, "greeting")
			if err != nil {
				t.Fatal(err)
			}
			return found && value == "hello-tcp" && seq == 1
		})
	}
}

func TestConcurrentClients(t *testing.T) {
	c := startCluster(t)
	const clients = 4
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		home := i%len(c.srvs) + 1
		go func() {
			cli, err := Dial(c.srvs[home-1].Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			errs <- cli.Submit(home, "shared", "from-client", true)
		}()
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	c.waitCommitted(t, clients)
	eventually(t, "every append at replica 1", func() bool {
		value, _, found, err := c.clis[0].Read(1, "shared")
		if err != nil {
			t.Fatal(err)
		}
		if len(value) > clients*len("from-client") {
			t.Fatalf("append duplicated data: %q", value)
		}
		return found && len(value) == clients*len("from-client")
	})
}

func TestStats(t *testing.T) {
	c := startCluster(t)
	if st := c.stats(t); st.Servers != 3 {
		t.Fatalf("stats = %+v", st)
	}
	if err := c.clis[1].Submit(2, "k", "v", false); err != nil {
		t.Fatal(err)
	}
	c.waitCommitted(t, 1)
	eventually(t, "migration and message counts", func() bool {
		st := c.stats(t)
		return st.Messages > 0 && st.Migrations > 0
	})
	if st := c.stats(t); st.Committed != 1 || st.Failed != 0 {
		t.Fatalf("stats after update = %+v", st)
	}
}

func TestProtocolErrors(t *testing.T) {
	c := startCluster(t)
	cli := c.clis[0]
	if err := cli.Submit(99, "k", "v", false); err == nil {
		t.Fatal("submit to unknown home accepted")
	}
	if err := cli.Submit(2, "k", "v", false); err == nil {
		t.Fatal("submit for a replica hosted by another process accepted")
	}
	if _, err := cli.SubmitCAS(1, "k", "v", "expected"); err == nil {
		t.Fatal("MARP service accepted a CAS guard")
	}
	refusesCrashOps(t, cli)
	// The connection remains usable after an error response.
	if err := cli.Submit(1, "k", "v", false); err != nil {
		t.Fatal(err)
	}
}

// TestPartitionRefusesWhatItCannotApply: on both protocols' services, a
// partition that names a node outside the cluster, or one node in two
// groups, is refused rather than splitting the cluster some way nobody
// stated; a well-formed one still applies.
func TestPartitionRefusesWhatItCannotApply(t *testing.T) {
	for _, svc := range []struct {
		name  string
		start func(*testing.T) *testCluster
	}{{"marp", startCluster}, {"optimistic", startOptCluster}} {
		cli := svc.start(t).clis[0]
		for _, bad := range []struct {
			groups [][]int
			want   string
		}{
			{[][]int{{1, 2}, {2, 3}}, "node 2 twice"},
			{[][]int{{1}, {9}}, "unknown node 9"},
		} {
			if err := cli.Partition(bad.groups); err == nil || !strings.Contains(err.Error(), bad.want) {
				t.Errorf("%s: partition %v: err = %v, want a refusal naming %q", svc.name, bad.groups, err, bad.want)
			}
		}
		if err := cli.Partition([][]int{{1}, {2, 3}}); err != nil {
			t.Errorf("%s: partition [[1] [2 3]]: %v", svc.name, err)
		}
		if err := cli.Heal(); err != nil {
			t.Errorf("%s: heal: %v", svc.name, err)
		}
	}
}

// TestOversizeRequestIsRefused: a request line over maxRequestLine is
// answered with an error naming the limit instead of reaching the cluster
// (where a large enough value would exceed the fabric's frame bound), and the
// node goes on serving new clients.
func TestOversizeRequestIsRefused(t *testing.T) {
	c := startCluster(t)
	big := strings.Repeat("x", maxRequestLine)
	err := c.clis[0].Submit(1, "k", big, false)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(maxRequestLine)) {
		t.Fatalf("oversize submit: err = %v, want a refusal naming the %d-byte limit", err, maxRequestLine)
	}
	cli := dial(t, c.srvs[0])
	c.clis[0] = cli
	if err := cli.Submit(1, "k", "small", false); err != nil {
		t.Fatal(err)
	}
	c.waitCommitted(t, 1)
	if st := c.stats(t); st.Committed != 1 {
		t.Fatalf("committed = %d, want only the small submit", st.Committed)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, err := ServeLive("127.0.0.1:0", live.NodeConfig{Self: 1, Addrs: freeAddrs(t, 1), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	srv.Close() // no panic
	if _, err := Dial(srv.Addr()); err == nil {
		t.Fatal("dial succeeded after close")
	}
}
