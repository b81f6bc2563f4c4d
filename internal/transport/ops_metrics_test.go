package transport

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/ops"
)

// scrape fetches /metrics and returns the parsed sample lines.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("/metrics status %d: %s", resp.StatusCode, body)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, found := strings.Cut(line, " ")
		if !found {
			t.Fatalf("unparseable sample line %q", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[name] = f
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsScrapeUnderLoad is the ops-plane half of the registry
// concurrency test (internal/metrics has the package-level half): HTTP
// scrapes race live submit traffic, every Gather marshalled onto the
// engine's execution context, and the exported counters must be present
// and monotonic throughout. Run with -race this doubles as the proof
// that scraping never touches engine state off-loop.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	c := startCluster(t)
	srv := c.srvs[0]
	opsSrv, err := ops.Serve("127.0.0.1:0", ops.Config{
		Gather: srv.GatherMetrics,
		Health: srv.Health,
	})
	if err != nil {
		t.Fatalf("ops.Serve: %v", err)
	}
	defer opsSrv.Close()
	url := "http://" + opsSrv.Addr() + "/metrics"

	const writers, submits = 3, 8
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Every writer submits at node 1, the scraped process: a
			// process counts the commits of the agents it dispatched.
			cli, err := Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			for i := 0; i < submits; i++ {
				if err := cli.Submit(1, fmt.Sprintf("k%d-%d", w, i), "v", false); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}

	monotonic := []string{
		"marp_replica_commits",
		"marp_fabric_messages_sent",
		"marp_agent_migrations_completed",
		"marp_wal_appends", // zero throughout (volatile node), still monotonic
	}
	prev := make(map[string]float64)
	const scrapes = 40
	for i := 0; i < scrapes; i++ {
		samples := scrape(t, url)
		for _, name := range monotonic {
			v, present := samples[name]
			if !present {
				t.Fatalf("scrape %d: %s missing", i, name)
			}
			if v < prev[name] {
				t.Fatalf("scrape %d: %s went backwards: %v -> %v", i, name, prev[name], v)
			}
			prev[name] = v
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The final scrape must show the whole ops surface: one family from
	// each instrumented subsystem.
	samples := scrape(t, url)
	for _, subsystem := range []string{
		"marp_wal_", "marp_disk_", "marp_reliable_", "marp_fabric_",
		"marp_agent_", "marp_replica_", "marp_shard_", "marp_health_",
	} {
		found := false
		for name := range samples {
			if strings.HasPrefix(name, subsystem) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no metric exported under %s*", subsystem)
		}
	}
	c.waitCommitted(t, writers*submits)
	if got := scrape(t, url)["marp_replica_commits"]; got < float64(writers*submits) {
		t.Errorf("marp_replica_commits = %v after %d committed submits", got, writers*submits)
	}
}
