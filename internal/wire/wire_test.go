package wire_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/replica"
	"repro/internal/runtime"
	"repro/internal/store"
	"repro/internal/wire"
)

// corpusMessages is a representative instance of every externally
// constructible registered message — the fuzz seed corpus and the
// round-trip test both walk it. (The reliable layer's dataMsg/ackMsg are
// package-private; the fuzzer reaches their tags by mutation.)
func corpusMessages() []any {
	id := agent.ID{Home: 3, Born: 123456789, Seq: 42}
	id2 := agent.ID{Home: 1, Born: 99, Seq: 7}
	snap := replica.QueueSnapshot{
		Server: 2, Shard: 5, Epoch: 1, Version: 17, HeadVersion: 12,
		Queue: []agent.ID{id, id2},
	}
	info := &replica.LockInfo{
		Locals:  []replica.QueueSnapshot{snap},
		Gone:    []agent.ID{id2},
		Marks:   []agent.Watermark{{Home: 1, Upto: agent.Mark{Born: 99, Seq: 7}, Count: 6}, {Home: 3, Since: 1000, Upto: agent.Mark{Born: 123456789, Seq: 41}, Count: 40}},
		Remote:  []replica.QueueSnapshot{{Server: 4, Shard: 5, Epoch: 2, Version: 3, Queue: []agent.ID{id}}},
		Costs:   map[runtime.NodeID]float64{1: 1.5, 2: 0, 4: math.Inf(1)},
		LastSeq: 88,
	}
	return []any{
		&agent.WireEnvelope{ID: id, Hop: 9, State: []byte{0xA7, 1, 2, 3}},
		&agent.MigrateAck{ID: id, Hop: 9},
		&agent.AgentMsg{Target: id, Payload: &core.OutcomeMsg{Outcome: core.Outcome{
			Agent: id, Home: 3, Requests: 2, Dispatched: 10, LockAt: 20, DoneAt: 30,
			Visits: 4, ByTie: true, Retries: 1, Shards: []int{0, 5},
		}}},
		&replica.UpdateMsg{
			Txn: id, Attempt: 2, Origin: 3, Keys: []string{"alpha", "beta"},
			Shards: []int{0, 5}, ByTie: true,
			Evidence: map[runtime.NodeID]uint64{1: 4, 2: 9},
		},
		&replica.AckMsg{
			Txn: id, Attempt: 2, From: 1, OK: true, ShardSeqs: []uint64{3, 0},
			Values: []replica.KeyValue{{Key: "alpha", Value: store.Value{Data: "v", Version: store.Version{Seq: 3, Stamp: 7, Writer: "t1"}}}},
		},
		&replica.AckMsg{Txn: id, Attempt: 2, From: 1, Reason: "busy", Info: info},
		&replica.CommitMsg{Txn: id, Origin: 3, Updates: []store.Update{
			{TxnID: "t1", Key: "alpha", Data: "v", Seq: 4, Stamp: 11},
		}},
		&replica.AbortMsg{Txn: id, Attempt: 2},
		&replica.ReadReq{ReqID: 77, From: 2, Key: "alpha"},
		&replica.ReadRep{ReqID: 77, From: 2, Found: true, Value: store.Value{Data: "v", Version: store.Version{Seq: 1}}},
		&replica.SyncRequest{From: 2, Shards: []replica.SyncSince{{Shard: 0, Since: 9}, {Shard: 5, Since: 3}}},
		&replica.SyncReply{From: 2, Sections: []replica.SyncSection{{Shard: 5, Updates: []store.Update{{TxnID: "t2", Key: "k", Data: "w", Seq: 5, Stamp: 13}}}}, Gone: []agent.ID{id2}},
		&core.OutcomeMsg{Outcome: core.Outcome{Agent: id, Home: 3}},
		&replica.SyncReply{From: 2, Marks: []agent.Watermark{{Home: 2, Since: -5, Upto: agent.Mark{Born: math.MaxInt64, Seq: math.MaxUint64}, Count: math.MaxUint64}}},
		&replica.SyncReply{From: 4, Sections: []replica.SyncSection{
			{Shard: 1, Updates: []store.Update{{TxnID: "t3", Key: "a", Data: "x", Seq: 2, Stamp: 21}, {TxnID: "t4", Key: "b", Data: "y", Seq: 3, Stamp: 22}}},
			{Shard: 15, Updates: []store.Update{{TxnID: "t5", Key: "c", Data: "z", Seq: 1, Stamp: 23}}},
		}, Gone: []agent.ID{id, id2}, Marks: []agent.Watermark{{Home: 1, Upto: agent.Mark{Born: 99, Seq: 7}, Count: 6}}},
		&core.OutcomeMsg{
			Outcome: core.Outcome{Agent: id, Home: 3, Requests: 2, Dispatched: 10, LockAt: 20, DoneAt: 30, Visits: 2, Shards: []int{0, 5}},
			Commit: &replica.CommitMsg{Txn: id, Origin: 1, Updates: []store.Update{
				{TxnID: "t1", Key: "alpha", Data: "v", Seq: 4, Stamp: 30},
				{TxnID: "t1", Key: "k", Data: "w", Seq: 6, Stamp: 30},
			}},
		},
	}
}

// TestMessagesRoundTrip encodes every corpus message and decodes it back to
// a deeply equal value.
func TestMessagesRoundTrip(t *testing.T) {
	for _, msg := range corpusMessages() {
		buf, err := wire.AppendMessage(nil, msg)
		if err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		r := wire.NewReader(buf)
		back, err := wire.DecodeMessage(r)
		if err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		if err := r.Finish(); err != nil {
			t.Fatalf("%T: %v", msg, err)
		}
		if !reflect.DeepEqual(normalize(msg), normalize(back)) {
			t.Fatalf("%T round trip changed value:\nsent %+v\ngot  %+v", msg, msg, back)
		}
	}
}

// normalize collapses nil-vs-empty differences that the codec is allowed to
// introduce (an absent collection decodes as nil).
func normalize(v any) any {
	data, err := wire.AppendMessage(nil, v)
	if err != nil {
		return v
	}
	return fmt.Sprintf("%x", data)
}

// TestPrimitivesRoundTrip drives every primitive through an append/read
// cycle.
func TestPrimitivesRoundTrip(t *testing.T) {
	var b []byte
	b = wire.AppendUvarint(b, 0)
	b = wire.AppendUvarint(b, math.MaxUint64)
	b = wire.AppendVarint(b, -1)
	b = wire.AppendVarint(b, math.MinInt64)
	b = wire.AppendString(b, "hello")
	b = wire.AppendString(b, "")
	b = wire.AppendBytes(b, []byte{1, 2, 3})
	b = wire.AppendBool(b, true)
	b = wire.AppendBool(b, false)
	b = wire.AppendFloat(b, 3.25)
	b = wire.AppendFloat(b, math.Inf(-1))

	r := wire.NewReader(b)
	if v := r.Uvarint(); v != 0 {
		t.Fatalf("uvarint: %d", v)
	}
	if v := r.Uvarint(); v != math.MaxUint64 {
		t.Fatalf("uvarint max: %d", v)
	}
	if v := r.Varint(); v != -1 {
		t.Fatalf("varint: %d", v)
	}
	if v := r.Varint(); v != math.MinInt64 {
		t.Fatalf("varint min: %d", v)
	}
	if s := r.String(); s != "hello" {
		t.Fatalf("string: %q", s)
	}
	if s := r.String(); s != "" {
		t.Fatalf("empty string: %q", s)
	}
	if p := r.Bytes(); !bytes.Equal(p, []byte{1, 2, 3}) {
		t.Fatalf("bytes: %v", p)
	}
	if v := r.Bool(); !v {
		t.Fatal("bool true")
	}
	if v := r.Bool(); v {
		t.Fatal("bool false")
	}
	if v := r.Float(); v != 3.25 {
		t.Fatalf("float: %v", v)
	}
	if v := r.Float(); !math.IsInf(v, -1) {
		t.Fatalf("float -inf: %v", v)
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptInputSafety feeds malformed encodings to the reader: every
// case must surface a sticky error, never panic, and never allocate
// proportionally to a hostile length prefix.
func TestCorruptInputSafety(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		read func(r *wire.Reader)
	}{
		{"empty uvarint", nil, func(r *wire.Reader) { r.Uvarint() }},
		{"truncated uvarint", []byte{0x80}, func(r *wire.Reader) { r.Uvarint() }},
		{"truncated varint", []byte{0xFF}, func(r *wire.Reader) { r.Varint() }},
		{"bytes length past end", []byte{10, 1, 2}, func(r *wire.Reader) { r.Bytes() }},
		{"missing bool", nil, func(r *wire.Reader) { r.Bool() }},
		{"bad bool", []byte{7}, func(r *wire.Reader) { r.Bool() }},
		{"short float", []byte{1, 2, 3}, func(r *wire.Reader) { r.Float() }},
		// A count of 2^60 with 3 bytes of input must be rejected before
		// any allocation happens.
		{"hostile count", append(wire.AppendUvarint(nil, 1<<60), 1, 2, 3), func(r *wire.Reader) { r.Count(1) }},
		// The same for the gone-set watermark list every LockInfo, SyncReply
		// and agent state now carries, and for one cut off mid-entry.
		{"hostile watermark count", append(wire.AppendUvarint(nil, 1<<60), 1, 2, 3), func(r *wire.Reader) { agent.DecodeWatermarksInto(nil, r) }},
		{"truncated watermark", []byte{1, 2, 0, 0x80}, func(r *wire.Reader) { agent.DecodeWatermarksInto(nil, r) }},
		// A sync request's shard list and a sync reply's section list, each
		// announcing 2^60 entries over three bytes.
		{"hostile sync shard count", hostileSync(16), func(r *wire.Reader) { wire.DecodeMessage(r) }},
		{"hostile sync section count", hostileSync(17), func(r *wire.Reader) { wire.DecodeMessage(r) }},
		// An ACK's values travel ascending by key, one per key: a repeated
		// key could hide the newer version behind the older.
		{"ack values out of order", ackWithKeys("b", "a"), func(r *wire.Reader) { wire.DecodeMessage(r) }},
		{"ack value key twice", ackWithKeys("a", "a"), func(r *wire.Reader) { wire.DecodeMessage(r) }},
	}
	for _, tc := range cases {
		r := wire.NewReader(tc.data)
		tc.read(r)
		if r.Err() == nil {
			t.Fatalf("%s: no error", tc.name)
		}
		// The sticky error zeroes all subsequent reads.
		if v := r.Uvarint(); v != 0 {
			t.Fatalf("%s: read after error returned %d", tc.name, v)
		}
		if s := r.String(); s != "" {
			t.Fatalf("%s: read after error returned %q", tc.name, s)
		}
	}
	// Trailing garbage after a well-formed read fails Finish.
	r := wire.NewReader([]byte{1, 99})
	r.Uvarint()
	if err := r.Finish(); err == nil {
		t.Fatal("trailing bytes not rejected")
	}
}

// ackWithKeys is an AckMsg frame carrying one value per key, in the order
// given.
func ackWithKeys(keys ...string) []byte {
	m := &replica.AckMsg{OK: true}
	for i, k := range keys {
		m.Values = append(m.Values, replica.KeyValue{Key: k, Value: store.Value{Data: k, Version: store.Version{Seq: uint64(i + 1)}}})
	}
	return wire.AppendNested(nil, m)
}

// hostileSync is a tag-16 or tag-17 frame from node 2 whose first count —
// the request's shard list, the reply's section list — is 2^60.
func hostileSync(tag byte) []byte {
	return append(wire.AppendUvarint([]byte{tag, 4}, 1<<60), 1, 2, 3)
}

// TestHostileSyncCountIsNeverAllocated: the shard and section counts are
// checked against the bytes that remain before anything is allocated for
// them, so decoding a hostile frame costs the same few allocations however
// large the count it announces.
func TestHostileSyncCountIsNeverAllocated(t *testing.T) {
	for _, tag := range []byte{16, 17} {
		frame := hostileSync(tag)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := wire.DecodeMessage(wire.NewReader(frame)); err == nil {
				t.Fatalf("tag %d: hostile count accepted", tag)
			}
		})
		// The reader, the message shell and the formatted error: a
		// constant, where a trusted count would have asked for 2^60 entries.
		if allocs > 8 {
			t.Fatalf("tag %d: refusing a hostile count allocated %.0f times", tag, allocs)
		}
	}
}

// TestSyncLayoutsRoundTrip decodes the per-peer anti-entropy messages field
// by field: a request over several shards, a reply with several sections,
// and a reply that carries no updates at all, only the gone set.
func TestSyncLayoutsRoundTrip(t *testing.T) {
	id := agent.ID{Home: 3, Born: 123456789, Seq: 42}
	marks := []agent.Watermark{{Home: 1, Upto: agent.Mark{Born: 99, Seq: 7}, Count: 6}}
	for _, msg := range []any{
		&replica.SyncRequest{From: 5, Shards: []replica.SyncSince{{Shard: 0, Since: 0}, {Shard: 3, Since: 17}, {Shard: 15, Since: 1 << 40}}},
		&replica.SyncReply{From: 1, Sections: []replica.SyncSection{
			{Shard: 2, Updates: []store.Update{{TxnID: "t1", Key: "a", Data: "x", Seq: 8, Stamp: 3}}},
			{Shard: 9, Updates: []store.Update{{TxnID: "t2", Key: "b", Data: "y", Seq: 1, Stamp: 4}, {TxnID: "t3", Key: "c", Data: "z", Seq: 2, Stamp: 5}}},
		}, Gone: []agent.ID{id}, Marks: marks},
		&replica.SyncReply{From: 1, Gone: []agent.ID{id}, Marks: marks},
	} {
		buf, err := wire.AppendMessage(nil, msg)
		if err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(buf)
		back, err := wire.DecodeMessage(r)
		if err != nil || r.Finish() != nil {
			t.Fatalf("%T: decode: %v %v", msg, err, r.Finish())
		}
		if !reflect.DeepEqual(back, msg) {
			t.Fatalf("%T round trip changed value:\nsent %+v\ngot  %+v", msg, msg, back)
		}
		for cut := 1; cut < len(buf); cut++ {
			r := wire.NewReader(buf[:cut])
			if _, err := wire.DecodeMessage(r); err == nil && r.Finish() == nil {
				t.Fatalf("%T cut to %d of %d bytes accepted", msg, cut, len(buf))
			}
		}
	}
}

// unknownTagFrames open with a tag no message has: one never assigned, the
// retired tag 4 in a frame exactly as an old peer's ack batch carried it
// (the bytes of the deleted seed msg-02.bin), and the retired tag 18 as it
// encoded an LLChanged (the bytes of the deleted seed msg-13.bin).
var unknownTagFrames = [][]byte{
	{0xFE, 1, 2, 3},
	{0x04, 0x02, 0x06, 0xaa, 0xb4, 0xde, 0x75, 0x2a, 0x09, 0x02, 0xc6, 0x01, 0x07, 0x01},
	{0x12, 0x04, 0x00},
}

// TestUnknownTagRejected: an unregistered tag is an explicit error, not a
// misparse.
func TestUnknownTagRejected(t *testing.T) {
	for _, frame := range unknownTagFrames {
		if _, err := wire.DecodeMessage(wire.NewReader(frame)); !errors.Is(err, wire.ErrUnknownTag) {
			t.Fatalf("tag %#x: err = %v, want ErrUnknownTag", frame[0], err)
		}
	}
}

// corpusDir is the checked-in fuzz seed corpus: one encoded frame per
// registered message shape.
const corpusDir = "testdata"

// TestSeedCorpusDecodes guards the checked-in corpus against wire-format
// drift: every seed must still decode cleanly. Regenerate with
// UPDATE_WIRE_CORPUS=1 go test ./internal/wire/ -run TestSeedCorpus
func TestSeedCorpusDecodes(t *testing.T) {
	if os.Getenv("UPDATE_WIRE_CORPUS") == "1" {
		if err := os.MkdirAll(corpusDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, msg := range corpusMessages() {
			// File numbers are never reused: msg-02.bin held the retired tag
			// 4's message, msg-13.bin and msg-14.bin the retired tag 18's.
			if i >= 2 {
				i++
			}
			if i >= 13 {
				i += 2
			}
			buf, err := wire.AppendMessage(nil, msg)
			if err != nil {
				t.Fatal(err)
			}
			name := filepath.Join(corpusDir, fmt.Sprintf("msg-%02d.bin", i))
			if err := os.WriteFile(name, buf, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	ents, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	seeds := 0
	for _, ent := range ents {
		if filepath.Ext(ent.Name()) != ".bin" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(corpusDir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		r := wire.NewReader(data)
		if _, err := wire.DecodeMessage(r); err != nil {
			t.Fatalf("%s: %v", ent.Name(), err)
		}
		if err := r.Finish(); err != nil {
			t.Fatalf("%s: %v", ent.Name(), err)
		}
		seeds++
	}
	if want := len(corpusMessages()); seeds != want {
		t.Fatalf("corpus has %d seeds, want %d (regenerate with UPDATE_WIRE_CORPUS=1)", seeds, want)
	}
}

// FuzzDecodeMessage hammers the full tagged-message decoder with mutated
// frames. Properties: never panic, never over-allocate on hostile counts,
// and any accepted input re-encodes to something that decodes to the same
// bytes (encode∘decode is a projection).
func FuzzDecodeMessage(f *testing.F) {
	for _, msg := range corpusMessages() {
		buf, err := wire.AppendMessage(nil, msg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	if ents, err := os.ReadDir(corpusDir); err == nil {
		for _, ent := range ents {
			if data, err := os.ReadFile(filepath.Join(corpusDir, ent.Name())); err == nil {
				f.Add(data)
			}
		}
	}
	for _, frame := range unknownTagFrames {
		f.Add(frame)
	}
	var intern wire.Interner
	f.Fuzz(func(t *testing.T, data []byte) {
		r := wire.NewReader(data)
		r.SetInterner(&intern)
		v, err := wire.DecodeMessage(r)
		if err != nil || r.Finish() != nil {
			return // malformed input rejected: fine
		}
		buf, err := wire.AppendMessage(nil, v)
		if err != nil {
			t.Fatalf("decoded %T but cannot re-encode: %v", v, err)
		}
		r2 := wire.NewReader(buf)
		v2, err := wire.DecodeMessage(r2)
		if err != nil || r2.Finish() != nil {
			t.Fatalf("re-encoding of %T does not decode: %v", v, err)
		}
		buf2, err := wire.AppendMessage(nil, v2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("%T not stable under encode/decode:\n% x\n% x", v, buf, buf2)
		}
	})
}

// FuzzReaderPrimitives drives the primitive readers over arbitrary input:
// no panic, and once the sticky error arms every read returns zero values.
func FuzzReaderPrimitives(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x80, 0xFF, 3, 1, 2, 3, 1, 0})
	f.Add(wire.AppendString(wire.AppendUvarint(nil, 7), "seed"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := wire.NewReader(data)
		for r.Err() == nil && r.Len() > 0 {
			n := r.Count(1)
			for i := 0; i < n && r.Err() == nil; i++ {
				switch i % 5 {
				case 0:
					r.Uvarint()
				case 1:
					r.Varint()
				case 2:
					_ = r.String()
				case 3:
					r.Bool()
				case 4:
					r.Float()
				}
			}
			if n == 0 && r.Err() == nil {
				r.Uvarint()
			}
		}
		if r.Err() != nil {
			if v := r.Uvarint(); v != 0 {
				t.Fatalf("read after sticky error: %d", v)
			}
			if b := r.Bytes(); b != nil {
				t.Fatalf("bytes after sticky error: %v", b)
			}
		}
	})
}

// TestWireStateCarriesWatermarks: the agent's frozen state round-trips its
// Updated Agents List in both parts — the residue and the watermarks — and
// a state cut anywhere inside them is rejected, never half-accepted.
func TestWireStateCarriesWatermarks(t *testing.T) {
	st := core.WireState{
		Requests: []core.Request{{Key: "k", Op: core.OpSet, Arg: "v"}},
		Gone:     []agent.ID{{Home: 2, Born: 50, Seq: 9}},
		Marks: []agent.Watermark{
			{Home: 1, Upto: agent.Mark{Born: 40, Seq: 3}, Count: 3},
			{Home: 1, Since: 1000, Upto: agent.Mark{Born: 1000, Seq: 2}},
			{Home: 3, Since: math.MinInt64, Upto: agent.Mark{Born: math.MaxInt64, Seq: math.MaxUint64}, Count: math.MaxUint64},
		},
	}
	data, err := st.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.DecodeWireState(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Marks, st.Marks) || !reflect.DeepEqual(back.Gone, st.Gone) {
		t.Fatalf("round trip changed the gone set:\nsent %+v %+v\ngot  %+v %+v", st.Marks, st.Gone, back.Marks, back.Gone)
	}
	for cut := 1; cut < len(data); cut++ {
		if _, err := core.DecodeWireState(data[:cut]); err == nil {
			t.Fatalf("state truncated to %d of %d bytes accepted", cut, len(data))
		}
	}
}

// FuzzDecodeWireState exercises the agent-state decoder with corrupt input:
// it must reject or accept, never panic.
func FuzzDecodeWireState(f *testing.F) {
	st := core.WireState{
		Requests:   []core.Request{{Key: "k", Op: core.OpSet, Arg: "v"}},
		USL:        []runtime.NodeID{2, 3},
		Visits:     3,
		Dispatched: 12345,
		Gone:       []agent.ID{{Home: 1, Born: 9, Seq: 2}},
		Marks:      []agent.Watermark{{Home: 2, Since: 4, Upto: agent.Mark{Born: 8, Seq: 1}, Count: 1}},
	}
	if data, err := st.Encode(); err == nil {
		f.Add(data)
		f.Add(data[:len(data)/2]) // magic byte, then a state cut short
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		back, err := core.DecodeWireState(data)
		if err != nil {
			return
		}
		if _, err := back.Encode(); err != nil {
			t.Fatalf("accepted state cannot re-encode: %v", err)
		}
	})
}
