// Package wire is the hand-rolled binary codec for the live fabric's
// closed set of protocol messages (DESIGN.md §11), the only encoding the
// live path speaks: encoding appends into a caller-reused buffer (zero
// allocations in steady state, following the PR 1 free-list discipline),
// decoding walks a bounds-checked Reader with a sticky error, and every
// concrete message type is registered under a one-byte tag by the package
// that owns it, so no import cycles form. The durability journal
// (internal/durable) writes its records and snapshots in the same encoding.
// The codec also prices messages: on the simulated network as on the live
// one, a message costs the length of its tagged encoding (Size).
//
// Encoding rules:
//
//   - unsigned integers are LEB128 uvarints, signed are zig-zag varints
//     (encoding/binary's AppendUvarint/AppendVarint);
//   - strings and byte slices are uvarint-length-prefixed;
//   - float64 is 8 fixed little-endian bytes of its IEEE-754 bits;
//   - bools are one byte, 0 or 1;
//   - slices are uvarint-count-prefixed; maps are sorted by key before
//     writing so the encoding is deterministic;
//   - a tagged message is one tag byte followed by its body; nested
//     payloads (AgentMsg, the reliable layer's frames) recurse through the
//     registry.
//
// The decoder never trusts a length or count prefix further than the bytes
// actually remaining in its input: adversarial prefixes produce an error,
// never a panic or an over-sized allocation.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
)

// Version is the wire-format version byte carried in the live fabric's
// connection preamble. Nodes refuse peers speaking any other version (or
// anything else) loudly instead of mis-decoding them. Version 2 added the
// gone-set watermarks to LockInfo, SyncReply and the agent's WireState;
// version 3 gave the reliable layer's frames (tags 40-41) a floor and a
// cumulative acknowledgement; version 4 made anti-entropy one exchange per
// peer, a SyncRequest (tag 16) naming every shard and a SyncReply (tag 17)
// carrying a section per shard; version 5 gave the standalone
// acknowledgement (tag 41) its sender's floor; version 6 made every
// acknowledgement (tags 40 and 41) name the newest frame it answers and how
// long that frame waited for it, the round-trip sample's correction;
// version 7 dropped the modelled size from the live fabric's frame header;
// version 8 made the outcome report (tag 30) carry its home's COMMIT and
// dropped the report's home and failure flag.
const Version = 8

// Preamble is what a wire-codec connection starts with: a magic, then the
// format version.
var Preamble = [5]byte{'M', 'A', 'R', 'P', Version}

// ErrUnknownTag reports a tag byte with no registered message type.
var ErrUnknownTag = errors.New("wire: unknown message tag")

// MaxFrame bounds a length-prefixed fabric frame. A peer announcing more
// is corrupt (or hostile) and the connection is dropped before any
// allocation happens.
const MaxFrame = 64 << 20

// --- append primitives --------------------------------------------------

// AppendUvarint appends v as a LEB128 uvarint.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v as a zig-zag varint.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendString appends s with a uvarint length prefix.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends p with a uvarint length prefix.
func AppendBytes(b []byte, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat appends f as its 8 IEEE-754 bits, little-endian.
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// --- Reader -------------------------------------------------------------

// Reader decodes one encoded message with a sticky error: after the first
// malformed field every subsequent read returns a zero value, and Err
// reports what went wrong. All length and count prefixes are validated
// against the bytes remaining, so corrupt input cannot drive allocation.
type Reader struct {
	b      []byte
	err    error
	intern *Interner
}

// NewReader returns a Reader over b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Reset rearms the reader over b, keeping its interner.
func (r *Reader) Reset(b []byte) { r.b, r.err = b, nil }

// SetInterner attaches a string interner: String() returns canonical
// strings from it instead of allocating. Decode paths that run per-frame
// keep one interner per connection for zero-alloc steady state.
func (r *Reader) SetInterner(t *Interner) { r.intern = t }

// Err returns the sticky error, if any.
func (r *Reader) Err() error { return r.err }

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.b) }

// Fail arms the sticky error with msg, unless an earlier error armed it: a
// decoder refuses a value that parses but breaks its type's rules with it.
func (r *Reader) Fail(msg string) {
	if r.err == nil {
		r.err = fmt.Errorf("wire: %s", msg)
	}
}

// Uvarint reads a LEB128 uvarint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.Fail("short uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Varint reads a zig-zag varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.Fail("short varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Count reads a slice/map count and validates it against the remaining
// input assuming each element occupies at least minElemBytes (>= 1), so a
// hostile prefix can never force an over-sized allocation.
func (r *Reader) Count(minElemBytes int) int {
	if minElemBytes < 1 {
		minElemBytes = 1
	}
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(len(r.b)/minElemBytes) {
		r.Fail("count exceeds input")
		return 0
	}
	return int(n)
}

// Bytes reads a length-prefixed byte slice as a view into the input (no
// copy; the view is invalidated by Reset). Callers that keep the bytes
// must copy them.
func (r *Reader) Bytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.Fail("short bytes")
		return nil
	}
	p := r.b[:n:n]
	r.b = r.b[n:]
	return p
}

// String reads a length-prefixed string, interned when an Interner is
// attached.
func (r *Reader) String() string {
	p := r.Bytes()
	if r.err != nil || len(p) == 0 {
		return ""
	}
	if r.intern != nil {
		return r.intern.Intern(p)
	}
	return string(p)
}

// Bool reads one byte as a bool (only 0 and 1 are well-formed).
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if len(r.b) < 1 {
		r.Fail("short bool")
		return false
	}
	v := r.b[0]
	r.b = r.b[1:]
	if v > 1 {
		r.Fail("bad bool")
		return false
	}
	return v == 1
}

// Float reads 8 little-endian bytes as a float64.
func (r *Reader) Float() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.Fail("short float")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

// Finish reports the sticky error, or an error if input remains unread —
// a whole-message decode must consume its input exactly.
func (r *Reader) Finish() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(r.b))
	}
	return nil
}

// Grow returns s resized to n elements, reusing its capacity when it
// suffices. Growing through append keeps whatever spare capacity the
// runtime hands back, and — unlike a fresh make — re-extends over elements
// that were previously shrunk away, so nested slices they hold keep their
// own capacity too. Decode-into paths use it for zero-alloc steady state.
func Grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// --- Interner -----------------------------------------------------------

// internCap bounds the interner; past it the table is cleared rather than
// grown, so an adversarial key stream cannot pin unbounded memory.
const internCap = 4096

// Interner canonicalizes decoded strings. The map lookup with a string
// conversion of a byte slice does not allocate (the compiler recognizes
// the idiom), so a hit is allocation-free — the decode benchmarks' 0
// allocs/op rests on this.
type Interner struct {
	m map[string]string
}

// Intern returns the canonical string equal to b.
func (t *Interner) Intern(b []byte) string {
	if t.m == nil {
		t.m = make(map[string]string, 64)
	}
	if s, ok := t.m[string(b)]; ok {
		return s
	}
	if len(t.m) >= internCap {
		clear(t.m)
	}
	s := string(b)
	t.m[s] = s
	return s
}

// --- message registry ---------------------------------------------------

// EncodeFunc appends v's body (no tag) to buf. Encoders cannot fail: the
// message set is closed and every field is encodable by construction.
type EncodeFunc func(buf []byte, v any) []byte

// DecodeFunc decodes one message body from r, reporting malformed input
// through r's sticky error (and returning nil).
type DecodeFunc func(r *Reader) any

type entry struct {
	tag  byte
	name string
	enc  EncodeFunc
	dec  DecodeFunc
}

var (
	byType = map[reflect.Type]*entry{}
	byTag  [256]*entry
)

// Register binds tag to prototype's concrete type. Packages call it from
// init for every payload type they put on the fabric. Tags are part of
// the wire format: never renumber.
func Register(tag byte, prototype any, enc EncodeFunc, dec DecodeFunc) {
	t := reflect.TypeOf(prototype)
	if byTag[tag] != nil {
		panic(fmt.Sprintf("wire: tag %d registered twice (%s and %s)", tag, byTag[tag].name, t))
	}
	if _, dup := byType[t]; dup {
		panic(fmt.Sprintf("wire: type %s registered twice", t))
	}
	e := &entry{tag: tag, name: t.String(), enc: enc, dec: dec}
	byType[t] = e
	byTag[tag] = e
}

// AppendMessage appends v as one tagged message. An unregistered payload
// type is an error — the live fabric counts and drops it loudly rather
// than guessing.
func AppendMessage(buf []byte, v any) ([]byte, error) {
	e, ok := byType[reflect.TypeOf(v)]
	if !ok {
		return buf, fmt.Errorf("wire: unregistered payload type %T", v)
	}
	buf = append(buf, e.tag)
	return e.enc(buf, v), nil
}

// unregistered is what AppendNested panics with; Size recovers it.
type unregistered struct{ error }

// AppendNested appends v as a tagged message inside another message's body
// (an agent message's payload, a reliable frame's). Encoders cannot fail,
// so an unregistered nested payload panics: the live fabric never queues
// one, and Size prices its carrier at 0 like any unregistered payload.
func AppendNested(buf []byte, v any) []byte {
	out, err := AppendMessage(buf, v)
	if err != nil {
		panic(unregistered{err})
	}
	return out
}

// sizeBufs holds the scratch buffers Size encodes into, one per concurrent
// caller, so simulations running side by side never share one.
var sizeBufs = sync.Pool{New: func() any { return new([]byte) }}

// Size returns the length of v's tagged encoding: what the message costs on
// the wire. Both fabrics charge every message this (runtime.Message.Bytes),
// so the codec that carries a message is also what prices it. A payload
// that is not registered, or nests one that is not, costs 0. Size encodes
// into a pooled buffer and allocates nothing once the pool is warm.
func Size(v any) (n int) {
	e, ok := byType[reflect.TypeOf(v)]
	if !ok {
		return 0
	}
	bp := sizeBufs.Get().(*[]byte)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(unregistered); !ok {
				panic(r)
			}
			n = 0
		}
		sizeBufs.Put(bp)
	}()
	b := e.enc(append((*bp)[:0], e.tag), v)
	*bp = b[:0]
	return len(b)
}

// DecodeMessage decodes one tagged message from r. The concrete type
// returned is exactly what the sender passed to AppendMessage.
func DecodeMessage(r *Reader) (any, error) {
	if r.err != nil {
		return nil, r.err
	}
	if len(r.b) < 1 {
		r.Fail("missing message tag")
		return nil, r.err
	}
	tag := r.b[0]
	r.b = r.b[1:]
	e := byTag[tag]
	if e == nil {
		r.err = fmt.Errorf("%w %d", ErrUnknownTag, tag)
		return nil, r.err
	}
	v := e.dec(r)
	if r.err != nil {
		return nil, r.err
	}
	return v, nil
}

// Registered reports whether v's concrete type has a codec — the fabric's
// fail-loudly check happens before a frame is queued.
func Registered(v any) bool {
	_, ok := byType[reflect.TypeOf(v)]
	return ok
}
