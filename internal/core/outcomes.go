package core

import (
	"fmt"

	"repro/internal/agent"
	"repro/internal/runtime"
	"repro/internal/store"
)

// OutcomeCounts are the running totals of a cluster's outcome table: the
// agents its homes launched that finished, committed or failed, and the
// client requests they carried. A failed agent that is later heard to have
// committed moves from the failed totals to the committed ones.
type OutcomeCounts struct {
	Committed, Failed                 int // agents
	CommittedRequests, FailedRequests int // requests, batch members counted individually
}

// finished returns how many agents finished.
func (n OutcomeCounts) finished() int { return n.Committed + n.Failed }

// outcomeTable is what a cluster keeps of the agents its homes launched:
// one record per launch, the k-th launch's at position k-1. The platform
// mints an agent's Seq densely and only when the cluster launches it, so a
// report finds its record by Seq, and a report whose Seq and Born match no
// launch of this table is not one of its agents: an earlier incarnation of
// the home dispatched it, and it is refused. The records sit in shared
// fixed blocks (store.Blocks), so the table grows without ever copying
// itself, and a batch that spans several shards keeps them in one overflow
// list beside it.
type outcomeTable struct {
	recs     store.Blocks[outcomeRec]
	overflow []int32 // each multi-shard list: its length, then its shards
	counts   OutcomeCounts
}

// outcomeRec is one launch in 64 bytes: what Outcome says of the agent,
// less its Seq (the record's position), with the shards of a one-shard
// batch inline.
type outcomeRec struct {
	born, dispatched, lockAt, doneAt int64
	home, requests, visits, retries  int32
	shard                            int32 // the one shard, or where the list starts in overflow
	rank                             int32 // 1 + place in completion order; 0 while out
	flags                            uint8
}

const (
	recFailed uint8 = 1 << iota
	recByTie
	recOneShard
	recManyShards
)

// launch opens the record of the agent id, which must be the next launch.
func (t *outcomeTable) launch(id agent.ID) {
	if id.Seq != uint64(t.recs.Len()+1) {
		panic(fmt.Sprintf("core: launch %d of the table minted %v", t.recs.Len()+1, id))
	}
	t.recs.Add(&outcomeRec{born: id.Born, home: int32(id.Home)})
}

// record books o and reports whether it is its agent's first outcome. A
// repeat changes nothing, unless it is a commit and the record a failure:
// the commit replaces it in place. An outcome of no launch of this table
// is refused.
func (t *outcomeTable) record(o *Outcome) bool {
	seq := o.Agent.Seq
	if seq == 0 || seq > uint64(t.recs.Len()) {
		return false
	}
	r := t.recs.At(int(seq - 1))
	if r.born != o.Agent.Born || r.home != int32(o.Agent.Home) {
		return false
	}
	if r.rank != 0 {
		if r.flags&recFailed != 0 && !o.Failed {
			t.count(r, -1)
			t.fill(r, o)
			t.count(r, 1)
		}
		return false
	}
	t.fill(r, o)
	t.count(r, 1)
	r.rank = int32(t.counts.finished())
	return true
}

func (t *outcomeTable) fill(r *outcomeRec, o *Outcome) {
	r.dispatched, r.lockAt, r.doneAt = int64(o.Dispatched), int64(o.LockAt), int64(o.DoneAt)
	r.requests, r.visits, r.retries = int32(o.Requests), int32(o.Visits), int32(o.Retries)
	r.flags = 0
	if o.Failed {
		r.flags |= recFailed
	}
	if o.ByTie {
		r.flags |= recByTie
	}
	switch len(o.Shards) {
	case 0:
	case 1:
		r.flags |= recOneShard
		r.shard = int32(o.Shards[0])
	default:
		r.flags |= recManyShards
		r.shard = int32(len(t.overflow))
		t.overflow = append(t.overflow, int32(len(o.Shards)))
		for _, s := range o.Shards {
			t.overflow = append(t.overflow, int32(s))
		}
	}
}

func (t *outcomeTable) count(r *outcomeRec, d int) {
	if r.flags&recFailed != 0 {
		t.counts.Failed += d
		t.counts.FailedRequests += d * int(r.requests)
	} else {
		t.counts.Committed += d
		t.counts.CommittedRequests += d * int(r.requests)
	}
}

// nShards returns how many shards r's outcome names (a failure names none).
func (t *outcomeTable) nShards(r *outcomeRec) int {
	switch {
	case r.flags&recOneShard != 0:
		return 1
	case r.flags&recManyShards != 0:
		return int(t.overflow[r.shard])
	}
	return 0
}

// appendShards appends r's shards to dst.
func (t *outcomeTable) appendShards(dst []int, r *outcomeRec) []int {
	if r.flags&recOneShard != 0 {
		return append(dst, int(r.shard))
	}
	n := int32(t.nShards(r))
	for _, s := range t.overflow[r.shard+1 : r.shard+1+n] {
		dst = append(dst, int(s))
	}
	return dst
}

// outcomes returns every finished agent's outcome in completion order, their
// shard lists cut from one array.
func (t *outcomeTable) outcomes() []Outcome {
	total := 0
	for i := 0; i < t.recs.Len(); i++ {
		if r := t.recs.At(i); r.rank != 0 {
			total += t.nShards(r)
		}
	}
	out := make([]Outcome, t.counts.finished())
	all := make([]int, 0, total)
	for i := 0; i < t.recs.Len(); i++ {
		r := t.recs.At(i)
		if r.rank == 0 {
			continue
		}
		home := runtime.NodeID(r.home)
		o := &out[r.rank-1]
		*o = Outcome{
			Agent:      agent.ID{Home: home, Born: r.born, Seq: uint64(i + 1)},
			Home:       home,
			Requests:   int(r.requests),
			Dispatched: runtime.Time(r.dispatched),
			LockAt:     runtime.Time(r.lockAt),
			DoneAt:     runtime.Time(r.doneAt),
			Visits:     int(r.visits),
			ByTie:      r.flags&recByTie != 0,
			Retries:    int(r.retries),
			Failed:     r.flags&recFailed != 0,
		}
		if from := len(all); t.nShards(r) > 0 {
			all = t.appendShards(all, r)
			o.Shards = all[from:len(all):len(all)]
		}
	}
	return out
}
