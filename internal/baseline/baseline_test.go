package baseline

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/des"
	"repro/internal/simnet"
	"repro/internal/store"
)

func storeUpdate(txn TxnID, seq uint64) (u store.Update) {
	return store.Update{TxnID: txn.String(), Key: "k", Data: "v", Seq: seq}
}

// simulated builds a system of kind over an n-node LAN, returning the
// simulator that drives it. The tests build the engine and fabric
// themselves; outside tests that is desengine.NewBaseline's job.
func simulated(kind Kind, n int, seed int64) (*System, *des.Simulator, error) {
	sim := des.New(seed)
	s, err := New(sim, simnet.New(sim, simnet.FullMesh(n), simnet.LAN()), Config{Kind: kind, N: n})
	return s, sim, err
}

func newSystem(t *testing.T, kind Kind, n int, seed int64) (*System, *des.Simulator) {
	t.Helper()
	s, sim, err := simulated(kind, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s, sim
}

func allKinds() []Kind { return []Kind{MCV, AvailableCopy, PrimaryCopy} }

func TestSingleUpdateEachKind(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			s, _ := newSystem(t, kind, 5, 1)
			if err := s.Submit(2, "x", "hello"); err != nil {
				t.Fatal(err)
			}
			if err := s.RunUntilDone(time.Minute); err != nil {
				t.Fatal(err)
			}
			s.Settle(time.Second)
			if err := s.CheckConvergence(); err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 5; i++ {
				v, ok := s.Read(simnet.NodeID(i), "x")
				if !ok || v.Data != "hello" {
					t.Fatalf("node %d read = %+v %v", i, v, ok)
				}
			}
			res := s.Results()
			if len(res) != 1 {
				t.Fatalf("results = %+v", res)
			}
			if res[0].LockAt < res[0].Dispatched || res[0].DoneAt < res[0].LockAt {
				t.Fatalf("time travel: %+v", res[0])
			}
		})
	}
}

func TestConcurrentUpdatesSerializeEachKind(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			const n = 5
			s, _ := newSystem(t, kind, n, 2)
			for i := 1; i <= n; i++ {
				if err := s.Submit(simnet.NodeID(i), "x", fmt.Sprintf("v%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.RunUntilDone(2 * time.Minute); err != nil {
				t.Fatal(err)
			}
			s.Settle(2 * time.Second)
			if err := s.CheckConvergence(); err != nil {
				t.Fatal(err)
			}
			log := s.nodes[1].st.Log()
			if len(log) != n {
				t.Fatalf("log = %d updates, want %d", len(log), n)
			}
			for i, u := range log {
				if u.Seq != uint64(i+1) {
					t.Fatalf("log[%d].Seq = %d", i, u.Seq)
				}
			}
		})
	}
}

func TestHighContentionEachKind(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			const n, rounds = 5, 4
			s, sim := newSystem(t, kind, n, 3)
			count := 0
			for r := 0; r < rounds; r++ {
				for i := 1; i <= n; i++ {
					count++
					home := simnet.NodeID(i)
					val := fmt.Sprintf("r%d-s%d", r, i)
					delay := time.Duration(count) * time.Millisecond
					sim.After(delay, func() { _ = s.Submit(home, "hot", val) })
				}
			}
			sim.RunFor(time.Duration(count+1) * time.Millisecond)
			if err := s.RunUntilDone(5 * time.Minute); err != nil {
				t.Fatal(err)
			}
			s.Settle(2 * time.Second)
			if err := s.CheckConvergence(); err != nil {
				t.Fatal(err)
			}
			if got := int(s.nodes[1].st.LastSeq()); got != n*rounds {
				t.Fatalf("LastSeq = %d, want %d", got, n*rounds)
			}
		})
	}
}

func TestPrimaryCopySerializesAtPrimary(t *testing.T) {
	s, _ := newSystem(t, PrimaryCopy, 3, 4)
	for i := 1; i <= 3; i++ {
		if err := s.Submit(simnet.NodeID(i), "k", fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	s.Settle(time.Second)
	if err := s.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	// Requests from every home committed through the primary's serial
	// order, and each result's timeline is sane.
	for _, r := range s.Results() {
		if r.LockAt < r.Dispatched || r.DoneAt < r.LockAt {
			t.Fatalf("time travel: %+v", r)
		}
	}
}

func TestQuorumSizes(t *testing.T) {
	s, _ := newSystem(t, MCV, 5, 5)
	c := &coord{sys: s, txn: TxnID{Born: 1, Home: 1, Seq: 1}, home: 1, key: "x"}
	if c.quorum() != 3 {
		t.Fatalf("MCV quorum = %d", c.quorum())
	}
	sAC, _ := newSystem(t, AvailableCopy, 5, 5)
	cAC := &coord{sys: sAC, txn: TxnID{Born: 1, Home: 1, Seq: 1}, home: 1, key: "x"}
	if cAC.quorum() != 5 {
		t.Fatalf("AC quorum = %d", cAC.quorum())
	}
}

func TestVoteSlotExclusive(t *testing.T) {
	s, _ := newSystem(t, MCV, 3, 7)
	n := s.nodes[1]
	a := TxnID{Born: 1, Home: 1, Seq: 1}
	b := TxnID{Born: 2, Home: 2, Seq: 2}
	var got []voteRep
	// Capture replies by submitting from node 1 itself (local replies go
	// through Deliver, which needs a coordinator; instead call handlers
	// directly and inspect the vote map).
	n.onVoteReq(voteReq{Txn: a, Round: 1, From: 1, Update: storeUpdate(a, 1)})
	if holder := n.votes[1]; holder != a {
		t.Fatalf("vote holder = %v", holder)
	}
	n.onVoteReq(voteReq{Txn: b, Round: 1, From: 1, Update: storeUpdate(b, 1)})
	if holder := n.votes[1]; holder != a {
		t.Fatalf("slot stolen: %v", n.votes[1])
	}
	n.onAbort(abortReq{Txn: a, From: 1})
	if _, held := n.votes[1]; held {
		t.Fatal("abort did not free the slot")
	}
	n.onVoteReq(voteReq{Txn: b, Round: 2, From: 1, Update: storeUpdate(b, 1)})
	if holder := n.votes[1]; holder != b {
		t.Fatalf("slot not granted after abort: %v", n.votes[1])
	}
	_ = got
}

func TestTxnIDString(t *testing.T) {
	if got := (TxnID{Born: 1, Home: 1, Seq: 1}).String(); got != "T1.1" {
		t.Fatalf("String = %q", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, _, err := simulated(MCV, 0, 1); err == nil {
		t.Fatal("N=0 accepted")
	}
}

func TestSubmitValidation(t *testing.T) {
	s, _ := newSystem(t, MCV, 3, 6)
	if err := s.Submit(9, "x", "v"); err == nil {
		t.Fatal("unknown home accepted")
	}
	if err := s.Submit(1, "", "v"); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestKindString(t *testing.T) {
	if MCV.String() != "mcv-mp" || AvailableCopy.String() != "available-copy" || PrimaryCopy.String() != "primary-copy" {
		t.Fatal("Kind names wrong")
	}
}

// Property: random workloads on every baseline converge with gapless logs.
func TestPropertyBaselineConvergence(t *testing.T) {
	f := func(seed int64, kindRaw, opsRaw uint8) bool {
		kind := allKinds()[int(kindRaw)%3]
		ops := int(opsRaw%10) + 1
		s, sim, err := simulated(kind, 5, seed)
		if err != nil {
			return false
		}
		rng := sim.Rand()
		for i := 0; i < ops; i++ {
			i := i
			home := simnet.NodeID(rng.Intn(5) + 1)
			delay := time.Duration(rng.Intn(40)) * time.Millisecond
			sim.After(delay, func() {
				_ = s.Submit(home, "k", fmt.Sprintf("v%d", i))
			})
		}
		sim.RunFor(50 * time.Millisecond)
		if err := s.RunUntilDone(5 * time.Minute); err != nil {
			t.Log(err)
			return false
		}
		s.Settle(2 * time.Second)
		if err := s.CheckConvergence(); err != nil {
			t.Log(err)
			return false
		}
		return int(s.nodes[1].st.LastSeq()) == ops
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
