package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/agent"
	"repro/internal/des"
	"repro/internal/quorum"
	"repro/internal/runtime"
	"repro/internal/simnet"
)

func TestRefereeCleanSerialRun(t *testing.T) {
	r := NewReferee(5, func() des.Time { return 0 })
	a, b := agentID(1), agentID(2)
	// a wins 3 grants, commits (grants released), then b.
	r.OnGrant(1, 0, a)
	r.OnGrant(2, 0, a)
	if r.Holder() != (agent.ID{}) {
		t.Fatal("holder before majority")
	}
	r.OnGrant(3, 0, a)
	if r.Holder() != a {
		t.Fatalf("holder = %v", r.Holder())
	}
	for i := 1; i <= 3; i++ {
		r.OnGrant(simnet.NodeID(i), 0, agent.ID{})
	}
	r.OnGrant(1, 0, b)
	r.OnGrant(2, 0, b)
	r.OnGrant(4, 0, b)
	if r.Holder() != b {
		t.Fatalf("holder = %v", r.Holder())
	}
	if r.Wins() != 2 {
		t.Fatalf("wins = %d", r.Wins())
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestRefereeDetectsOverlap(t *testing.T) {
	r := NewReferee(5, func() des.Time { return 100 })
	a, b := agentID(1), agentID(2)
	r.OnGrant(1, 0, a)
	r.OnGrant(2, 0, a)
	r.OnGrant(3, 0, a)
	// A second majority without releasing the first: impossible with
	// exclusive grants, but the referee must catch it if it happens.
	r.OnGrant(4, 0, b)
	r.OnGrant(5, 0, b)
	r.OnGrant(3, 0, b) // server 3 betrays its exclusivity
	if err := r.Err(); err == nil {
		t.Fatal("overlap not detected")
	}
	if len(r.Violations()) == 0 {
		t.Fatal("no violations recorded")
	}
}

func TestRefereeHolderClearsOnRelease(t *testing.T) {
	r := NewReferee(3, func() des.Time { return 0 })
	a := agentID(1)
	r.OnGrant(1, 0, a)
	r.OnGrant(2, 0, a)
	if r.Holder() != a {
		t.Fatal("no holder at majority")
	}
	r.OnGrant(1, 0, agent.ID{})
	if r.Holder() != (agent.ID{}) {
		t.Fatal("holder survived dropping below majority")
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// mapReferee is the referee's rules in their plainest form: a map of
// grants per shard, and a map of holders built on every check. It is the
// reference model TestRefereeMatchesMapModel holds the referee to.
type mapReferee struct {
	votes      []quorum.Assignment
	grants     []map[runtime.NodeID]agent.ID
	holder     []agent.ID
	wins       int
	violations []string
}

func (m *mapReferee) OnGrant(server runtime.NodeID, shrd int, txn agent.ID) {
	if shrd < 0 || shrd >= len(m.grants) {
		return
	}
	if prev, ok := m.grants[shrd][server]; ok && !prev.IsZero() && !txn.IsZero() && txn != prev {
		m.violations = append(m.violations, "grant exclusivity violated")
	}
	m.grants[shrd][server] = txn
	holding := make(map[agent.ID][]runtime.NodeID)
	for server, txn := range m.grants[shrd] {
		if !txn.IsZero() {
			holding[txn] = append(holding[txn], server)
		}
	}
	var atQuorum []agent.ID
	for txn, nodes := range holding {
		if m.votes[shrd].HasWrite(nodes) {
			atQuorum = append(atQuorum, txn)
		}
	}
	switch {
	case len(atQuorum) > 1:
		m.violations = append(m.violations, "mutual exclusion violated")
	case len(atQuorum) == 1:
		if m.holder[shrd] != atQuorum[0] {
			m.holder[shrd] = atQuorum[0]
			m.wins++
		}
	default:
		m.holder[shrd] = agent.ID{}
	}
}

// TestRefereeMatchesMapModel: over random sequences of grants and
// releases on two shards — reassignments without release and rival write
// quorums among them — the referee records the same holders, the same
// wins and the same violations, in the same order, as the map-backed
// model.
func TestRefereeMatchesMapModel(t *testing.T) {
	nodes := []runtime.NodeID{1, 2, 3, 4, 5}
	assigns := []quorum.Assignment{
		quorum.Equal(nodes),
		quorum.Weighted(map[runtime.NodeID]int{1: 3, 2: 1, 3: 1, 4: 2, 5: 1}),
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewShardedReferee(assigns, func() des.Time { return 0 })
		m := &mapReferee{votes: assigns, holder: make([]agent.ID, len(assigns))}
		for range assigns {
			m.grants = append(m.grants, make(map[runtime.NodeID]agent.ID))
		}
		for i := 0; i < 300; i++ {
			server := runtime.NodeID(1 + rng.Intn(6)) // 6 holds no votes
			shrd := rng.Intn(len(assigns) + 1)        // one past the shards: ignored
			var txn agent.ID
			if rng.Intn(3) > 0 {
				txn = agentID(1 + rng.Intn(3))
			}
			r.OnGrant(server, shrd, txn)
			m.OnGrant(server, shrd, txn)
			got := r.Violations()
			same := r.Wins() == m.wins && len(got) == len(m.violations)
			for j := 0; same && j < len(got); j++ {
				same = strings.HasPrefix(got[j], m.violations[j])
			}
			for j, rs := range r.shards {
				same = same && rs.holder == m.holder[j]
			}
			if !same {
				t.Logf("seed %d step %d: OnGrant(%d, %d, %v): wins %d, violations %q; model %d, %q",
					seed, i, server, shrd, txn, r.Wins(), got, m.wins, m.violations)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
