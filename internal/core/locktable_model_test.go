package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/agent"
	"repro/internal/quorum"
	"repro/internal/replica"
	"repro/internal/runtime"
)

// mapTable is the LockTable's rules in their plainest form: three maps
// keyed by (shard, server), and a per-head map in each decision. It is the
// reference model TestLockTableMatchesMapModel holds the table to.
type mapTable struct {
	views     []ShardView
	snaps     map[snapKey]replica.QueueSnapshot
	gone      agent.GoneSet
	visitMark map[snapKey]VisitMark
	floor     map[snapKey]replica.QueueSnapshot
	rev       uint64
}

func newMapTable(views []ShardView) *mapTable {
	return &mapTable{
		views:     views,
		snaps:     make(map[snapKey]replica.QueueSnapshot),
		visitMark: make(map[snapKey]VisitMark),
		floor:     make(map[snapKey]replica.QueueSnapshot),
	}
}

func (m *mapTable) MergeGone(marks []agent.Watermark, ids []agent.ID) {
	m.rev += uint64(m.gone.Merge(marks, ids))
}

func (m *mapTable) MergeSnapshot(s replica.QueueSnapshot) {
	k := snapKey{s.Shard, s.Server}
	if f, ok := m.floor[k]; ok && !s.Newer(f) {
		return
	}
	if cur, ok := m.snaps[k]; !ok || s.Newer(cur) {
		m.snaps[k] = s
		m.rev++
	}
}

func (m *mapTable) Forget(server runtime.NodeID) {
	for k, s := range m.snaps {
		if k.server != server {
			continue
		}
		m.floor[k] = replica.QueueSnapshot{Server: server, Shard: k.shard, Epoch: s.Epoch, Version: s.Version}
		delete(m.snaps, k)
		m.rev++
	}
}

func (m *mapTable) MergeInfo(info replica.LockInfo, visited bool) {
	for _, local := range info.Locals {
		m.MergeSnapshot(local)
		if visited {
			m.visitMark[snapKey{local.Shard, local.Server}] =
				VisitMark{Server: local.Server, Shard: local.Shard, Epoch: local.Epoch, Version: local.Version}
		}
	}
	m.MergeGone(info.Marks, info.Gone)
	for _, snap := range info.Remote {
		m.MergeSnapshot(snap)
	}
}

// thaw rebuilds the model from a frozen state by merging: floors first,
// then every snapshot through MergeSnapshot.
func (m *mapTable) thaw(st WireState) *mapTable {
	out := newMapTable(m.views)
	for _, f := range st.Floors {
		out.floor[snapKey{f.Shard, f.Server}] = f
	}
	for _, s := range st.Snapshots {
		out.MergeSnapshot(s)
	}
	out.MergeGone(st.Marks, st.Gone)
	for _, v := range st.Visited {
		out.visitMark[snapKey{v.Shard, v.Server}] = v
	}
	return out
}

func (m *mapTable) Visited(server runtime.NodeID) bool {
	for k := range m.visitMark {
		if k.server == server {
			return true
		}
	}
	return false
}

func (m *mapTable) Export() []replica.QueueSnapshot { return sorted(m.snaps) }

func (m *mapTable) Evidence() map[runtime.NodeID]uint64 {
	out := make(map[runtime.NodeID]uint64, len(m.snaps))
	for k, s := range m.snaps {
		if cur, ok := out[k.server]; !ok || s.HeadVersion > cur {
			out[k.server] = s.HeadVersion
		}
	}
	return out
}

func (m *mapTable) NeedRevisit(self agent.ID) []runtime.NodeID {
	seen := make(map[runtime.NodeID]bool)
	var out []runtime.NodeID
	for k, mark := range m.visitMark {
		if seen[k.server] {
			continue
		}
		s, ok := m.snaps[k]
		if !ok {
			continue
		}
		fresher := s.Epoch > mark.Epoch || (s.Epoch == mark.Epoch && s.Version >= mark.Version)
		if fresher && !slices.Contains(s.Queue, self) {
			seen[k.server] = true
			out = append(out, k.server)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *mapTable) headAt(shrd int, server runtime.NodeID) (agent.ID, bool) {
	s, ok := m.snaps[snapKey{shrd, server}]
	if !ok {
		return agent.ID{}, false
	}
	for _, id := range s.Queue {
		if !m.gone.Contains(id) {
			return id, true
		}
	}
	return agent.ID{}, false
}

type mapDecision struct {
	found  bool
	winner agent.ID
	byTie  bool
	headed map[agent.ID][]runtime.NodeID
	votes  quorum.Assignment
}

func (m *mapTable) Decide(self agent.ID) Decision {
	subs := make([]mapDecision, len(m.views))
	selfTops := 0
	for i, v := range m.views {
		subs[i] = m.decideShard(v)
		selfTops += v.Votes.Score(subs[i].headed[self])
	}
	d := Decision{SelfTops: selfTops}
	for _, s := range subs {
		if !s.found {
			return d
		}
	}
	winner := subs[0].winner
	agreed := true
	for _, s := range subs[1:] {
		if s.winner != winner {
			agreed = false
		}
	}
	if !agreed {
		winner = agent.ID{}
		best := -1
		for _, s := range subs {
			total := 0
			for _, x := range subs {
				total += x.votes.Score(x.headed[s.winner])
			}
			if total > best || (total == best && s.winner.Less(winner)) {
				winner, best = s.winner, total
			}
		}
		return Decision{Found: true, Winner: winner, ByTie: true, SelfTops: selfTops, TopCount: best}
	}
	d.Found = true
	d.Winner = winner
	for _, s := range subs {
		d.TopCount += s.votes.Score(s.headed[winner])
		d.ByTie = d.ByTie || s.byTie
	}
	return d
}

func (m *mapTable) decideShard(v ShardView) mapDecision {
	d := mapDecision{headed: make(map[agent.ID][]runtime.NodeID), votes: v.Votes}
	var unknown []runtime.NodeID
	for _, server := range v.Group {
		head, ok := m.headAt(v.Shard, server)
		if !ok {
			unknown = append(unknown, server)
			continue
		}
		d.headed[head] = append(d.headed[head], server)
	}
	for id, nodes := range d.headed {
		if v.Votes.HasWrite(nodes) {
			d.found, d.winner = true, id
			return d
		}
	}
	if len(d.headed) == 0 {
		return d
	}
	for _, nodes := range d.headed {
		if v.Votes.HasWrite(append(append([]runtime.NodeID(nil), nodes...), unknown...)) {
			return d
		}
	}
	best := -1
	for id, nodes := range d.headed {
		if score := v.Votes.Score(nodes); score > best || (score == best && id.Less(d.winner)) {
			d.winner, best = id, score
		}
	}
	d.found, d.byTie = true, true
	return d
}

// sorted returns a model map's values in (shard, server) order.
func sorted[V any](m map[snapKey]V) []V {
	keys := make([]snapKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, snapKey.compare)
	out := make([]V, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// modelViews returns the shard views a model run decides over: one shard
// over five replicas, or two shards over overlapping groups of four, under
// the named geometry ("weighted" is majority with unequal votes).
func modelViews(t *testing.T, geom string, shards int) []ShardView {
	groups := [][]runtime.NodeID{{1, 2, 3, 4, 5}}
	if shards == 2 {
		groups = [][]runtime.NodeID{{1, 2, 3, 4}, {2, 3, 4, 5}}
	}
	views := make([]ShardView, len(groups))
	for i, g := range groups {
		var votes map[runtime.NodeID]int
		g2 := quorum.Geometry(geom)
		if geom == "weighted" {
			g2, votes = quorum.GeomMajority, map[runtime.NodeID]int{}
			for j, n := range g {
				votes[n] = 1 + j%3
			}
		}
		a, err := quorum.Build(g2, g, votes)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = ShardView{Shard: i, Group: g, Votes: a}
	}
	return views
}

// modelWorld drives a LockTable and its map model through the same random
// steps.
type modelWorld struct {
	t      *testing.T
	rng    *rand.Rand
	views  []ShardView
	lt     *LockTable
	ref    *mapTable
	agents []agent.ID
	// held are lists the table handed out, with what they held then: the
	// table must never write them (DESIGN.md §6, invariant 18).
	held []heldList
}

type heldList struct {
	what      string
	list, was any
}

func (w *modelWorld) snapshot() replica.QueueSnapshot {
	shrd := w.rng.Intn(len(w.views) + 1) // one past the views: a shard the table does not decide on
	q := make([]agent.ID, 0, 4)
	for _, i := range w.rng.Perm(len(w.agents))[:w.rng.Intn(5)] {
		q = append(q, w.agents[i])
	}
	return replica.QueueSnapshot{
		Server:      runtime.NodeID(1 + w.rng.Intn(6)),
		Shard:       shrd,
		Epoch:       uint64(w.rng.Intn(3)),
		Version:     uint64(w.rng.Intn(8)),
		HeadVersion: uint64(w.rng.Intn(8)),
		Queue:       q,
	}
}

func (w *modelWorld) step() string {
	switch w.rng.Intn(9) {
	case 0, 1:
		s := w.snapshot()
		w.lt.MergeSnapshot(s)
		w.ref.MergeSnapshot(s)
		return fmt.Sprintf("MergeSnapshot(%+v)", s)
	case 2, 3:
		server := runtime.NodeID(1 + w.rng.Intn(6))
		var info replica.LockInfo
		for _, v := range w.views {
			if w.rng.Intn(3) > 0 {
				s := w.snapshot()
				s.Server, s.Shard = server, v.Shard
				info.Locals = append(info.Locals, s)
			}
		}
		for i := w.rng.Intn(4); i > 0; i-- {
			info.Remote = append(info.Remote, w.snapshot())
		}
		if w.rng.Intn(4) == 0 {
			info.Gone = []agent.ID{w.agents[w.rng.Intn(len(w.agents))]}
		}
		visited := w.rng.Intn(2) == 0
		w.lt.MergeInfo(info, visited)
		w.ref.MergeInfo(info, visited)
		return fmt.Sprintf("MergeInfo(%+v, %v)", info, visited)
	case 4:
		server := runtime.NodeID(1 + w.rng.Intn(6))
		w.lt.Forget(server)
		w.ref.Forget(server)
		return fmt.Sprintf("Forget(%d)", server)
	case 5:
		if w.rng.Intn(4) > 0 {
			return "nothing"
		}
		id := w.agents[w.rng.Intn(len(w.agents))]
		w.lt.MarkGone(id)
		w.ref.MergeGone(nil, []agent.ID{id})
		return fmt.Sprintf("MarkGone(%v)", id)
	case 6:
		exp := w.lt.Export()
		w.held = append(w.held, heldList{"Export", exp, slices.Clone(exp)})
		return "Export"
	case 7:
		snaps, visited, floors := w.lt.lists()
		w.held = append(w.held,
			heldList{"frozen snapshots", snaps, slices.Clone(snaps)},
			heldList{"frozen visit marks", visited, slices.Clone(visited)},
			heldList{"frozen floors", floors, slices.Clone(floors)})
		return "freeze"
	default:
		// A hop: freeze, encode, decode, and thaw by adoption.
		st := WireState{}
		st.Snapshots, st.Visited, st.Floors = w.lt.lists()
		st.Marks, st.Gone = w.lt.gone.Export()
		data, _ := st.Encode()
		dec, err := DecodeWireState(data)
		if err != nil {
			w.t.Fatalf("a frozen table does not decode: %v", err)
		}
		lt := NewShardedLockTable(w.lt.n, w.views)
		lt.adopt(dec.Snapshots, dec.Visited, dec.Floors)
		lt.MergeGone(dec.Marks, dec.Gone)
		w.lt = lt
		w.ref = w.ref.thaw(st)
		return "hop"
	}
}

// diff compares the table with the model, and the held lists with what
// they held when handed out.
func (w *modelWorld) diff() string {
	for _, self := range w.agents {
		if got, want := w.lt.Decide(self), w.ref.Decide(self); got != want {
			return fmt.Sprintf("Decide(%v) = %+v, model %+v", self, got, want)
		}
		if got, want := w.lt.NeedRevisit(self), w.ref.NeedRevisit(self); !slices.Equal(got, want) {
			return fmt.Sprintf("NeedRevisit(%v) = %v, model %v", self, got, want)
		}
	}
	for s := runtime.NodeID(1); s <= 6; s++ {
		if got, want := w.lt.Visited(s), w.ref.Visited(s); got != want {
			return fmt.Sprintf("Visited(%d) = %v, model %v", s, got, want)
		}
	}
	if got, want := w.lt.Evidence(), w.ref.Evidence(); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("Evidence = %v, model %v", got, want)
	}
	// Compared as printed: a decoded empty queue is nil, a generated one is
	// not. Reading the table's own lists marks nothing shared.
	if got, want := fmt.Sprintf("%+v", w.lt.lend()), fmt.Sprintf("%+v", w.ref.Export()); got != want {
		return fmt.Sprintf("Export = %s, model %s", got, want)
	}
	if got, want := fmt.Sprintf("%+v", w.lt.visited), fmt.Sprintf("%+v", sorted(w.ref.visitMark)); got != want {
		return fmt.Sprintf("visit marks = %s, model %s", got, want)
	}
	if got, want := fmt.Sprintf("%+v", w.lt.floors), fmt.Sprintf("%+v", sorted(w.ref.floor)); got != want {
		return fmt.Sprintf("floors = %s, model %s", got, want)
	}
	if got, want := w.lt.Rev(), w.ref.rev; got != want {
		return fmt.Sprintf("Rev = %d, model %d", got, want)
	}
	for _, h := range w.held {
		if !reflect.DeepEqual(h.list, h.was) {
			return fmt.Sprintf("%s changed: %+v, was %+v", h.what, h.list, h.was)
		}
	}
	return ""
}

// TestLockTableMatchesMapModel: under random merges of snapshots and of
// whole LockInfos (visits among them), forgets, gone marks, hand-outs and
// hops (freeze, encode, decode, thaw by adoption), the table of sorted
// slices answers Decide, Visited, NeedRevisit, Evidence, Export and Rev
// exactly as the map-backed model — under majority, grid, tree and
// weighted geometries, on one shard and on two — and never writes a list
// it handed out.
func TestLockTableMatchesMapModel(t *testing.T) {
	for _, geom := range []string{"majority", "grid", "tree", "weighted"} {
		for _, shards := range []int{1, 2} {
			views := modelViews(t, geom, shards)
			prop := func(seed int64) bool {
				w := &modelWorld{
					t:     t,
					rng:   rand.New(rand.NewSource(seed)),
					views: views,
					lt:    NewShardedLockTable(5, views),
					ref:   newMapTable(views),
				}
				for i := 1; i <= 5; i++ {
					w.agents = append(w.agents, agentID(i))
				}
				for i := 0; i < 150; i++ {
					what := w.step()
					if bad := w.diff(); bad != "" {
						t.Logf("%s, %d shard(s), seed %d, step %d (%s): %s", geom, shards, seed, i, what, bad)
						return false
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 12}); err != nil {
				t.Fatalf("%s, %d shard(s): %v", geom, shards, err)
			}
		}
	}
}
