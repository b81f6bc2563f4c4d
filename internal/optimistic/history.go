package optimistic

// history is what a replica keeps of one origin's actions on one shard: the
// contiguously delivered prefix, in OSeq order. Its first base actions are
// stable at every replica and have been dropped — nobody will ask for them,
// elect them or look up their constraints again, so a count is all that is
// left of them (agent.GoneSet's shape: a watermark's worth of count, plus the
// residue held one by one). acts are the rest, OSeq base+1 onwards.
type history struct {
	base uint64
	acts []Action
	// dead counts dropped actions the array under acts still begins with.
	dead int
}

// count is the delivery counter: how many of the origin's actions have been
// delivered here, dropped ones included.
func (h *history) count() uint64 { return h.base + uint64(len(h.acts)) }

// at returns the held action with this OSeq, nil if it was dropped or has
// not been delivered.
func (h *history) at(oseq uint64) *Action {
	if oseq <= h.base || oseq > h.count() {
		return nil
	}
	return &h.acts[oseq-h.base-1]
}

// after returns the held actions that follow the first n delivered ones, at
// most max of them: a segment of the history itself, its capacity cut to
// its length so that nobody can append into the history. n below base reads
// as base — whoever counts fewer is a replica, and every replica has the
// dropped ones.
func (h *history) after(n uint64, max int) []Action {
	if n >= h.count() {
		return nil
	}
	i := 0
	if n > h.base {
		i = int(n - h.base)
	}
	end := min(len(h.acts), i+max)
	return h.acts[i:end:end]
}

func (h *history) add(a *Action) { h.acts = append(h.acts, *a) }

// drop lets go of the first k held actions. Agents in flight may still be
// reading them, so they are never cleared. Re-slicing alone would keep them
// reachable for as long as the array lives: once what the array has lost
// outweighs what stays, what stays moves to a fresh array (an action moves
// this way at most once per action dropped, so the cost is amortised), and
// an emptied history keeps no array at all. At most as many dropped actions
// as held ones are pinned, and none at quiescence.
func (h *history) drop(k int) {
	if k == 0 {
		return
	}
	h.base += uint64(k)
	h.dead += k
	switch rest := h.acts[k:]; {
	case len(rest) == 0:
		h.acts, h.dead = nil, 0
	case h.dead >= len(rest):
		h.acts, h.dead = append(make([]Action, 0, 2*len(rest)), rest...), 0
	default:
		h.acts = rest
	}
}
