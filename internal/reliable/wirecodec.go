package reliable

import "repro/internal/wire"

// Wire-codec tags for the ack/retransmit frames (DESIGN.md §11). Tags are
// part of the wire format: never renumber.
const (
	tagDataMsg = 40
	tagAckMsg  = 41
)

// Layout, all uvarints: a data frame is seq, floor, ack, then the nested
// payload message; a standalone ack is floor, ack. An ack is its
// watermark, a count, and that many sequence numbers above the watermark.
func init() {
	wire.Register(tagDataMsg, dataMsg{},
		func(b []byte, v any) []byte {
			m := v.(dataMsg)
			b = wire.AppendUvarint(b, m.Seq)
			b = wire.AppendUvarint(b, m.Floor)
			b = appendAck(b, m.Ack)
			out, err := wire.AppendMessage(b, m.Payload)
			if err != nil {
				// Unencodable nested payloads are programming errors: the
				// live fabric checks Registered before queueing a frame.
				panic("reliable: " + err.Error())
			}
			return out
		},
		func(r *wire.Reader) any {
			m := dataMsg{Seq: r.Uvarint(), Floor: r.Uvarint(), Ack: readAck(r)}
			payload, err := wire.DecodeMessage(r)
			if err != nil {
				return nil // sticky error already armed on r
			}
			m.Payload = payload
			return m
		})
	wire.Register(tagAckMsg, ackMsg{},
		func(b []byte, v any) []byte {
			m := v.(ackMsg)
			return appendAck(wire.AppendUvarint(b, m.Floor), m.Ack)
		},
		func(r *wire.Reader) any {
			return ackMsg{Floor: r.Uvarint(), Ack: readAck(r)}
		})
}

func appendAck(b []byte, a ackState) []byte {
	b = wire.AppendUvarint(b, a.Mark)
	b = wire.AppendUvarint(b, uint64(len(a.Above)))
	for _, seq := range a.Above {
		b = wire.AppendUvarint(b, seq)
	}
	return b
}

func readAck(r *wire.Reader) ackState {
	a := ackState{Mark: r.Uvarint()}
	if n := r.Count(1); n > 0 {
		a.Above = make([]uint64, n)
		for i := range a.Above {
			a.Above[i] = r.Uvarint()
		}
	}
	return a
}
