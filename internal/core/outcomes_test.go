package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/agent"
	"repro/internal/runtime"
)

// plainOutcomes is the obviously-right outcome table: a list in completion
// order, a map from each agent to its place in it, and the set of agents
// launched, outside which a report is refused.
type plainOutcomes struct {
	outs        []Outcome
	done        map[agent.ID]int
	launched    map[agent.ID]bool
	outstanding int
}

func (m *plainOutcomes) record(o Outcome) {
	if !m.launched[o.Agent] {
		return
	}
	if i, ok := m.done[o.Agent]; ok {
		if m.outs[i].Failed && !o.Failed {
			m.outs[i] = o
		}
		return
	}
	m.done[o.Agent] = len(m.outs)
	m.outs = append(m.outs, o)
	m.outstanding--
}

// counts are the running totals by a scan.
func (m *plainOutcomes) counts() OutcomeCounts {
	var n OutcomeCounts
	for _, o := range m.outs {
		if o.Failed {
			n.Failed++
			n.FailedRequests += o.Requests
		} else {
			n.Committed++
			n.CommittedRequests += o.Requests
		}
	}
	return n
}

// TestOutcomeTableMatchesPlainList: a cluster's outcome table answers as
// the plain list and map do after every step of a random mix of launches,
// commits and failures, failures replaced by a later commit, repeated
// reports, reports of no launch (a Seq not minted yet, a Born or a home
// of another incarnation) and batches over one to three shards: the same
// Outcomes in the same order, the same outstanding count and the same
// totals.
func TestOutcomeTableMatchesPlainList(t *testing.T) {
	if size := unsafe.Sizeof(outcomeRec{}); size > 64 {
		t.Fatalf("an outcome record is %d bytes, want at most 64", size)
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := &Cluster{}
		m := &plainOutcomes{done: map[agent.ID]int{}, launched: map[agent.ID]bool{}}
		var ids []agent.ID
		born := int64(1000)
		outcome := func(id agent.ID, failed bool) Outcome {
			o := Outcome{Agent: id, Home: id.Home, Requests: 1 + rng.Intn(4), Dispatched: runtime.Time(id.Born),
				Visits: rng.Intn(5), Retries: rng.Intn(3), Failed: failed}
			if !failed {
				o.LockAt = o.Dispatched + runtime.Time(rng.Intn(1000))
				o.DoneAt = o.LockAt + runtime.Time(rng.Intn(1000))
				o.ByTie = rng.Intn(4) == 0
				for sh := 0; sh < 8; sh++ {
					if rng.Intn(3) == 0 && len(o.Shards) < 3 {
						o.Shards = append(o.Shards, sh)
					}
				}
				if o.Shards == nil {
					o.Shards = []int{rng.Intn(8)}
				}
			}
			return o
		}
		report := func(o Outcome) {
			c.recordOutcome(o)
			m.record(o)
		}
		steps := 50 + rng.Intn(600)
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(12); {
			case op < 3 || len(ids) == 0: // a launch
				born += int64(rng.Intn(3)) // two agents may be born in one instant
				id := agent.ID{Home: runtime.NodeID(1 + rng.Intn(3)), Born: born, Seq: uint64(len(ids) + 1)}
				c.outcomes.launch(id)
				c.outstanding++
				m.launched[id] = true
				m.outstanding++
				ids = append(ids, id)
			case op < 7: // a commit or a failure, perhaps a repeat
				report(outcome(ids[rng.Intn(len(ids))], rng.Intn(3) == 0))
			case op < 8: // a failure heard to have committed after all
				for _, o := range m.outs {
					if o.Failed {
						report(outcome(o.Agent, false))
						break
					}
				}
			case op < 9: // the very same report again
				if len(m.outs) > 0 {
					report(m.outs[rng.Intn(len(m.outs))])
				}
			case op < 10: // a Seq this table has not minted
				seq := uint64(len(ids) + 1 + rng.Intn(3))
				if rng.Intn(4) == 0 {
					seq = 0
				}
				report(outcome(agent.ID{Home: 1, Born: born, Seq: seq}, rng.Intn(2) == 0))
			default: // a launched Seq under another incarnation's Born or home
				id := ids[rng.Intn(len(ids))]
				if rng.Intn(2) == 0 {
					id.Born -= 1 + int64(rng.Intn(1000))
				} else {
					id.Home = id.Home%3 + 1
				}
				report(outcome(id, rng.Intn(2) == 0))
			}
			got := c.Outcomes()
			if len(got) != len(m.outs) || len(got) > 0 && !reflect.DeepEqual(got, m.outs) {
				t.Logf("seed %d step %d: Outcomes() = %+v, want %+v", seed, step, got, m.outs)
				return false
			}
			if c.Outstanding() != m.outstanding || c.OutcomeCounts() != m.counts() {
				t.Logf("seed %d step %d: outstanding %d, counts %+v; want %d, %+v", seed, step,
					c.Outstanding(), c.OutcomeCounts(), m.outstanding, m.counts())
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestOutcomeTableRefusesASkippedLaunch: the table is found by Seq because
// the cluster launches every Seq its platform mints, in order; an agent
// minted anywhere else would put every later record under the wrong Seq,
// so the table refuses to open it.
func TestOutcomeTableRefusesASkippedLaunch(t *testing.T) {
	var tab outcomeTable
	tab.launch(agent.ID{Home: 1, Born: 5, Seq: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("the table opened Seq 3 after Seq 1")
		}
	}()
	tab.launch(agent.ID{Home: 1, Born: 6, Seq: 3})
}
