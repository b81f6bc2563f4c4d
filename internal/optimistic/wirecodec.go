package optimistic

import (
	"repro/internal/runtime"
	"repro/internal/wire"
)

// Wire-codec tag for the reconciliation agent (DESIGN.md §11). The
// pessimistic message set owns tags 1–41; the optimistic protocol starts
// at 50. Tags are part of the wire format: never renumber.
const tagRecon = 50

func init() {
	wire.Register(tagRecon, &Recon{}, encRecon, decRecon)
}

func appendAction(b []byte, a *Action) []byte {
	b = wire.AppendVarint(b, int64(a.Origin))
	b = wire.AppendUvarint(b, a.OSeq)
	b = wire.AppendVarint(b, int64(a.Shard))
	b = wire.AppendVarint(b, a.Stamp)
	b = wire.AppendString(b, a.Key)
	b = wire.AppendString(b, a.Data)
	b = wire.AppendString(b, a.Guard)
	b = wire.AppendUvarint(b, uint64(len(a.Deps)))
	for _, dep := range a.Deps {
		b = wire.AppendString(b, dep)
	}
	return b
}

func decodeAction(r *wire.Reader) Action {
	a := Action{
		Origin: runtime.NodeID(r.Varint()),
		OSeq:   r.Uvarint(),
		Shard:  int(r.Varint()),
		Stamp:  r.Varint(),
		Key:    r.String(),
		Data:   r.String(),
		Guard:  r.String(),
	}
	if n := r.Count(1); n > 0 {
		a.Deps = make([]string, 0, n)
		for i := 0; i < n; i++ {
			a.Deps = append(a.Deps, r.String())
		}
	}
	return a.identified()
}

func appendKnow(b []byte, e KnowEntry) []byte {
	b = wire.AppendVarint(b, int64(e.Node))
	b = wire.AppendVarint(b, e.Clock)
	b = wire.AppendUvarint(b, uint64(len(e.Counts)))
	for _, c := range e.Counts {
		b = wire.AppendUvarint(b, c)
	}
	b = wire.AppendUvarint(b, uint64(len(e.Have)))
	for _, row := range e.Have {
		b = wire.AppendUvarint(b, uint64(len(row)))
		for _, h := range row {
			b = wire.AppendUvarint(b, h)
		}
	}
	b = wire.AppendUvarint(b, uint64(len(e.Frontier)))
	for _, f := range e.Frontier {
		b = wire.AppendVarint(b, f)
	}
	return b
}

func decodeKnow(r *wire.Reader) KnowEntry {
	e := KnowEntry{Node: runtime.NodeID(r.Varint()), Clock: r.Varint()}
	if n := r.Count(1); n > 0 {
		e.Counts = make([]uint64, n)
		for i := range e.Counts {
			e.Counts[i] = r.Uvarint()
		}
	}
	if n := r.Count(1); n > 0 {
		e.Have = make([][]uint64, n)
		for i := range e.Have {
			if m := r.Count(1); m > 0 {
				e.Have[i] = make([]uint64, m)
				for j := range e.Have[i] {
					e.Have[i][j] = r.Uvarint()
				}
			}
		}
	}
	if n := r.Count(1); n > 0 {
		e.Frontier = make([]int64, n)
		for i := range e.Frontier {
			e.Frontier[i] = r.Varint()
		}
	}
	return e
}

func appendRecon(b []byte, m *Recon) []byte {
	b = wire.AppendVarint(b, int64(m.From))
	b = wire.AppendUvarint(b, m.Seq)
	b = wire.AppendUvarint(b, uint64(len(m.Hops)))
	for _, h := range m.Hops {
		b = wire.AppendVarint(b, int64(h))
	}
	b = wire.AppendVarint(b, int64(m.Hop))
	b = wire.AppendUvarint(b, uint64(len(m.Know)))
	for _, e := range m.Know {
		b = appendKnow(b, e)
	}
	n := 0
	for _, run := range m.Carry {
		n += len(run)
	}
	b = wire.AppendUvarint(b, uint64(n))
	for _, run := range m.Carry {
		for i := range run {
			b = appendAction(b, &run[i])
		}
	}
	return b
}

func encRecon(b []byte, v any) []byte { return appendRecon(b, v.(*Recon)) }

func decRecon(r *wire.Reader) any {
	m := &Recon{From: runtime.NodeID(r.Varint()), Seq: r.Uvarint()}
	if n := r.Count(1); n > 0 {
		m.Hops = make([]runtime.NodeID, n)
		for i := range m.Hops {
			m.Hops[i] = runtime.NodeID(r.Varint())
		}
	}
	m.Hop = int(r.Varint())
	if n := r.Count(1); n > 0 {
		m.Know = make([]KnowEntry, 0, n)
		for i := 0; i < n; i++ {
			m.Know = append(m.Know, decodeKnow(r))
		}
	}
	if n := r.Count(1); n > 0 {
		run := make([]Action, 0, n)
		for i := 0; i < n; i++ {
			run = append(run, decodeAction(r))
		}
		m.Carry = [][]Action{run}
	}
	return m
}
