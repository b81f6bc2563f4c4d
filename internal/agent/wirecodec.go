package agent

import (
	"repro/internal/runtime"
	"repro/internal/wire"
)

// Wire-codec tags for the agent platform's message set (DESIGN.md §11).
// Tags are part of the wire format: never renumber. Tag 4 is retired (old
// peers sent a batch of migration acks under it): never reuse it.
const (
	tagWireEnvelope = 1
	tagMigrateAck   = 2
	tagAgentMsg     = 3
)

func init() {
	wire.Register(tagWireEnvelope, &WireEnvelope{},
		func(b []byte, v any) []byte {
			m := v.(*WireEnvelope)
			b = AppendID(b, m.ID)
			b = wire.AppendUvarint(b, m.Hop)
			return wire.AppendBytes(b, m.State)
		},
		func(r *wire.Reader) any {
			m := &WireEnvelope{ID: DecodeID(r), Hop: r.Uvarint()}
			// The reader's buffer is reused per frame; the envelope may
			// outlive it (it crosses onto the actor loop), so copy.
			m.State = append([]byte(nil), r.Bytes()...)
			return m
		})
	wire.Register(tagMigrateAck, &MigrateAck{},
		func(b []byte, v any) []byte {
			m := v.(*MigrateAck)
			b = AppendID(b, m.ID)
			return wire.AppendUvarint(b, m.Hop)
		},
		func(r *wire.Reader) any {
			return &MigrateAck{ID: DecodeID(r), Hop: r.Uvarint()}
		})
	wire.Register(tagAgentMsg, &AgentMsg{},
		func(b []byte, v any) []byte {
			m := v.(*AgentMsg)
			b = AppendID(b, m.Target)
			out, err := wire.AppendMessage(b, m.Payload)
			if err != nil {
				// Same contract as migrationPayload: an unencodable nested
				// payload is a programming error, not a runtime condition.
				panic("agent: " + err.Error())
			}
			return out
		},
		func(r *wire.Reader) any {
			m := &AgentMsg{Target: DecodeID(r)}
			payload, err := wire.DecodeMessage(r)
			if err != nil {
				return nil // sticky error already armed on r
			}
			m.Payload = payload
			return m
		})
}

// AppendID appends an agent ID in wire-codec form. Exported because every
// protocol package that embeds agent IDs in its messages shares this
// encoding.
func AppendID(b []byte, id ID) []byte {
	b = wire.AppendVarint(b, int64(id.Home))
	b = wire.AppendVarint(b, id.Born)
	return wire.AppendUvarint(b, id.Seq)
}

// DecodeID reads an agent ID written by AppendID.
func DecodeID(r *wire.Reader) ID {
	return ID{
		Home: runtime.NodeID(r.Varint()),
		Born: r.Varint(),
		Seq:  r.Uvarint(),
	}
}
