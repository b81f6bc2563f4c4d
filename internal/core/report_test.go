package core

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/agent"
	"repro/internal/des"
	"repro/internal/replica"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/wire"
)

// nowhere is a fabric that delivers nothing: the test below hands the
// cluster its report itself.
type nowhere struct{}

func (nowhere) Attach(runtime.NodeID, runtime.Handler)      {}
func (nowhere) Send(runtime.Message)                        {}
func (nowhere) Cost(runtime.NodeID, runtime.NodeID) float64 { return 1 }
func (nowhere) Down(runtime.NodeID) bool                    { return false }

// TestReportAppliedTwiceChangesNothing: a home that hears its agent's
// outcome report twice — whatever the reliable layer suppresses, a copy
// can cross a restart of its window — applies the COMMIT the report
// carries and records the outcome the first time, and the second copy
// applies nothing and records nothing. (On the wire, every report carries
// its home's COMMIT: TestReportCarriesTheHomeCommit.)
func TestReportAppliedTwiceChangesNothing(t *testing.T) {
	c, err := NewCluster(des.New(1), nowhere{}, Config{N: 3, Local: []runtime.NodeID{1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(1, Set("k", "v")); err != nil {
		t.Fatal(err)
	}
	if len(c.active) != 1 || c.Outstanding() != 1 {
		t.Fatalf("%d agents active, %d outstanding, want the one dispatched", len(c.active), c.Outstanding())
	}
	var id agent.ID
	for a := range c.active {
		id = a
	}
	// The report node 2 sends when the agent commits there.
	report := runtime.Message{From: 2, To: 1, Payload: &OutcomeMsg{
		Outcome: Outcome{Agent: id, Home: 1, Requests: 1, LockAt: 2, DoneAt: 3, Shards: []int{0}},
		Commit:  &replica.CommitMsg{Txn: id, Origin: 2, Updates: []store.Update{{TxnID: id.String(), Key: "k", Data: "v", Seq: 1, Stamp: 3}}},
	}}
	srv := c.Server(1)
	type state struct {
		outcomes    []Outcome
		outstanding int
		log         []store.Update
		watermarks  []agent.Watermark
	}
	snap := func() state {
		return state{c.Outcomes(), c.Outstanding(), srv.StoreOf(0).Log(), srv.Watermarks()}
	}
	if !c.intercept(report) {
		t.Fatal("the cluster did not take the report")
	}
	once := snap()
	if len(once.outcomes) != 1 || once.outcomes[0].Failed || once.outstanding != 0 || len(once.log) != 1 || !srv.IsGone(id) {
		t.Fatalf("after the report: %+v, agent gone %v; want one outcome, none outstanding, one update", once, srv.IsGone(id))
	}
	if !c.intercept(report) {
		t.Fatal("the cluster did not take the second copy")
	}
	if twice := snap(); !reflect.DeepEqual(twice, once) {
		t.Fatalf("the second copy changed the home: %+v, was %+v", twice, once)
	}
}

// TestOutcomeCountsFollowReplacement: the running totals the stats op, the
// scenario snapshot and marp.replica.commits/failures read are a scan of
// Outcomes() at every point, and stay so when the home declares its agent
// lost (a failed outcome) and then hears it committed after all (the
// commit replaces the failure in place).
func TestOutcomeCountsFollowReplacement(t *testing.T) {
	c, err := NewCluster(des.New(1), nowhere{}, Config{N: 3, Local: []runtime.NodeID{1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(1, Set("a", "v"), Set("b", "w")); err != nil {
		t.Fatal(err)
	}
	var id agent.ID
	for a := range c.active {
		id = a
	}
	check := func(when string, want OutcomeCounts) {
		t.Helper()
		var scan OutcomeCounts
		for _, o := range c.Outcomes() {
			if o.Failed {
				scan.Failed++
				scan.FailedRequests += o.Requests
			} else {
				scan.Committed++
				scan.CommittedRequests += o.Requests
			}
		}
		got := c.OutcomeCounts()
		if got != scan || got != want {
			t.Fatalf("%s: counts %+v, a scan reads %+v, want %+v", when, got, scan, want)
		}
		m := c.Metrics()
		if m.Value("marp.replica.commits") != float64(got.CommittedRequests) || m.Value("marp.replica.failures") != float64(got.FailedRequests) {
			t.Fatalf("%s: marp.replica.commits %v and failures %v, counts %+v", when, m.Value("marp.replica.commits"), m.Value("marp.replica.failures"), got)
		}
	}
	check("in flight", OutcomeCounts{})
	c.loseAgent(id)
	check("declared lost", OutcomeCounts{Failed: 1, FailedRequests: 2})
	c.intercept(runtime.Message{From: 2, To: 1, Payload: &OutcomeMsg{
		Outcome: Outcome{Agent: id, Home: 1, Requests: 2, LockAt: 2, DoneAt: 3, Shards: []int{0}},
	}})
	check("heard committed", OutcomeCounts{Committed: 1, CommittedRequests: 2})
	if c.Outstanding() != 0 || len(c.Outcomes()) != 1 {
		t.Fatalf("%d outstanding, %d outcomes; want 0 and the one", c.Outstanding(), len(c.Outcomes()))
	}
}

// TestReportRoundTrip: the wire carries a report's COMMIT as its updates
// alone, and the decoder restores the rest from the outcome — the home from
// the agent's ID, the COMMIT's transaction from the agent. A plain report
// decodes without one.
func TestReportRoundTrip(t *testing.T) {
	id := agentID(3)
	commit := &replica.CommitMsg{Txn: id, Origin: 2, Updates: []store.Update{{TxnID: id.String(), Key: "k", Data: "v", Seq: 1, Stamp: 5}}}
	for _, sent := range []*OutcomeMsg{
		{Outcome: Outcome{Agent: id, Home: id.Home, Requests: 1, DoneAt: 5, Shards: []int{0}}, Commit: commit},
		{Outcome: Outcome{Agent: id, Home: id.Home, Requests: 1, DoneAt: 5, Shards: []int{0}}},
	} {
		buf, err := wire.AppendMessage(nil, sent)
		if err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(buf)
		v, err := wire.DecodeMessage(r)
		if err == nil {
			err = r.Finish()
		}
		if err != nil {
			t.Fatal(err)
		}
		got := v.(*OutcomeMsg)
		if got.Outcome.Home != id.Home || got.Outcome.Agent != id || got.Outcome.DoneAt != 5 {
			t.Fatalf("outcome %+v", got.Outcome)
		}
		if (got.Commit == nil) != (sent.Commit == nil) {
			t.Fatalf("sent COMMIT %v, got %v", sent.Commit, got.Commit)
		}
		if got.Commit != nil && (got.Commit.Txn != id || !slices.Equal(got.Commit.Updates, commit.Updates)) {
			t.Fatalf("carried COMMIT %+v", got.Commit)
		}
		if got.Kind() != sent.Kind() {
			t.Fatalf("kind %s, sent %s", got.Kind(), sent.Kind())
		}
	}
}
