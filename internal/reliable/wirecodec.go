package reliable

import (
	"time"

	"repro/internal/wire"
)

// Wire-codec tags for the ack/retransmit frames (DESIGN.md §11). Tags are
// part of the wire format: never renumber.
const (
	tagDataMsg = 40
	tagAckMsg  = 41
)

// maxDelayMicros bounds a decoded ack delay (about 71 minutes), so no
// frame off the wire overflows a time.Duration.
const maxDelayMicros = 1 << 32

// Layout, all uvarints: a data frame is seq, transmission number, floor,
// ack, then the nested payload message; a standalone ack is floor, ack. An
// ack is its watermark, a count, that many sequence numbers above the
// watermark, then the echoed number, which transmission of it arrived, and
// its delay in microseconds.
func init() {
	wire.Register(tagDataMsg, dataMsg{},
		func(b []byte, v any) []byte {
			m := v.(dataMsg)
			return wire.AppendNested(appendDataHeader(b, m), m.Payload)
		},
		func(r *wire.Reader) any {
			m := dataMsg{Seq: r.Uvarint(), Tx: readTx(r), Floor: r.Uvarint(), Ack: readAck(r)}
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

// appendDataHeader appends everything of a data frame but its tag and its
// payload.
func appendDataHeader(b []byte, m dataMsg) []byte {
	b = wire.AppendUvarint(b, m.Seq)
	b = wire.AppendUvarint(b, uint64(m.Tx))
	b = wire.AppendUvarint(b, m.Floor)
	return appendAck(b, m.Ack)
}

func appendAck(b []byte, a ackState) []byte {
	b = wire.AppendUvarint(b, a.Mark)
	b = wire.AppendUvarint(b, uint64(len(a.Above)))
	for _, seq := range a.Above {
		b = wire.AppendUvarint(b, seq)
	}
	b = wire.AppendUvarint(b, a.Echo)
	b = wire.AppendUvarint(b, uint64(a.Tx))
	return wire.AppendUvarint(b, uint64(a.Delay/time.Microsecond))
}

// maxTx bounds a decoded transmission number; no retry cap comes near it.
const maxTx = 1 << 16

func readTx(r *wire.Reader) int { return int(min(r.Uvarint(), maxTx)) }

func readAck(r *wire.Reader) ackState {
	a := ackState{Mark: r.Uvarint()}
	if n := r.Count(1); n > 0 {
		a.Above = make([]uint64, n)
		for i := range a.Above {
			a.Above[i] = r.Uvarint()
		}
	}
	a.Echo = r.Uvarint()
	a.Tx = readTx(r)
	a.Delay = time.Duration(min(r.Uvarint(), maxDelayMicros)) * time.Microsecond
	return a
}
