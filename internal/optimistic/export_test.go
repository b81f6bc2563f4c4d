package optimistic

import "repro/internal/runtime"

// Delivered returns node id's delivery counters, [shard][origin-1], for the
// tests outside the package.
func (c *Cluster) Delivered(id runtime.NodeID) [][]uint64 {
	rep := c.reps[id]
	out := make([][]uint64, len(rep.hist))
	for s := range rep.hist {
		for o := range rep.hist[s] {
			out[s] = append(out[s], rep.hist[s][o].count())
		}
	}
	return out
}

// Clock returns node id's hybrid clock.
func (c *Cluster) Clock(id runtime.NodeID) int64 { return c.reps[id].clock }

// Promised returns, per (shard, origin), how many of the origin's actions
// node id may not lose in a crash: all of its own (an own tentative is a
// barrier), and of a peer's as many as lie at or below the stable frontier
// it has advertised — peers may keep nothing of those but a count.
func (c *Cluster) Promised(id runtime.NodeID) [][]uint64 {
	rep := c.reps[id]
	out := make([][]uint64, len(rep.hist))
	for s := range rep.hist {
		for o := range rep.hist[s] {
			h := &rep.hist[s][o]
			n := h.base
			for q := h.base + 1; q <= h.count(); q++ {
				if runtime.NodeID(o+1) == id || h.at(q).Stamp <= rep.front[s][id-1] {
					n++
				}
			}
			out[s] = append(out[s], n)
		}
	}
	return out
}
