package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/replica"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
)

// All tracing is done from here, around the calls into each layer: the
// program under test is not changed by this benchmark.

// span is one timed interval. Start and End are nanoseconds on the clock
// named by Clock: "wall" is the benchmark's own monotonic clock (every
// in-process replica shares it), "virtual" is simulated time. Spans of one
// request share Req, the request's agent ID; Parent is the ID of the span
// that caused this one (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Node   int    `json:"node,omitempty"`
	Peer   int    `json:"peer,omitempty"`
	Kind   string `json:"kind,omitempty"`
	Clock  string `json:"clock"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// writeSpans writes spans as JSONL, creating the directory if needed.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchEpoch anchors the benchmark clock; now() is nanoseconds since it.
var benchEpoch = time.Now()

func now() time.Duration { return time.Since(benchEpoch) }

// tracer is shared by the fabric and disk decorators of one traced cluster.
// Recording alternates on and off in slices so the traced pass measures its
// own overhead against the same cluster in the same run.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex // guards links
	links map[[2]runtime.NodeID]*link
}

func newTracer() *tracer {
	return &tracer{links: make(map[[2]runtime.NodeID]*link)}
}

// link carries send stamps from a sender's decorator to the receiver's. The
// live fabric serializes payloads, so a message cannot carry its own stamp;
// but one TCP connection per directed pair and one FIFO inbox per loop keep
// each pair's messages in order, so the n-th delivery is the n-th send.
// A drop would shift the pairing: transit spans are discarded when the
// fabric reports any (see liveRun.collect), and a kind mismatch is counted.
type link struct {
	mu      sync.Mutex
	pending []sendStamp
}

type sendStamp struct {
	at   time.Duration // zero when recording was off at send
	kind string
}

func (t *tracer) link(from, to runtime.NodeID) *link {
	k := [2]runtime.NodeID{from, to}
	t.mu.Lock()
	l := t.links[k]
	if l == nil {
		l = &link{}
		t.links[k] = l
	}
	t.mu.Unlock()
	return l
}

// tracedFabric decorates one node's live fabric. Besides runtime.Fabric it
// forwards the two capabilities the cluster needs from it here: wire delivery
// (agents must migrate serialized) and the traffic counters behind the
// marp.fabric.* families.
type tracedFabric struct {
	inner *live.Fabric
	tr    *tracer
	// spans and mismatches are owned by this node's actor loop (Deliver
	// runs there); read only after the loop has been drained.
	spans      []span
	mismatches int
}

func (f *tracedFabric) Cost(from, to runtime.NodeID) float64 { return f.inner.Cost(from, to) }
func (f *tracedFabric) Down(id runtime.NodeID) bool          { return f.inner.Down(id) }
func (f *tracedFabric) WireDelivery() bool                   { return f.inner.WireDelivery() }
func (f *tracedFabric) NetStats() runtime.NetStats           { return f.inner.NetStats() }
func (f *tracedFabric) Attach(id runtime.NodeID, h runtime.Handler) {
	f.inner.Attach(id, runtime.HandlerFunc(func(msg runtime.Message) {
		f.delivered(msg)
		h.Deliver(msg)
	}))
}

func (f *tracedFabric) Send(msg runtime.Message) {
	st := sendStamp{kind: kindOf(msg.Payload)}
	if f.tr.on.Load() {
		st.at = now()
	}
	l := f.tr.link(msg.From, msg.To)
	l.mu.Lock()
	l.pending = append(l.pending, st)
	l.mu.Unlock()
	f.inner.Send(msg)
}

func (f *tracedFabric) delivered(msg runtime.Message) {
	l := f.tr.link(msg.From, msg.To)
	l.mu.Lock()
	if len(l.pending) == 0 {
		l.mu.Unlock()
		f.mismatches++
		return
	}
	st := l.pending[0]
	l.pending = l.pending[1:]
	l.mu.Unlock()
	kind := kindOf(msg.Payload)
	if st.kind != kind {
		f.mismatches++
		return
	}
	if st.at == 0 {
		return
	}
	f.spans = append(f.spans, span{
		Name: "live.transit", Kind: kind, Req: reqOf(msg.Payload),
		Node: int(msg.To), Peer: int(msg.From), Clock: "wall",
		Start: int64(st.at), End: int64(now()),
	})
}

func kindOf(p any) string {
	if k, ok := p.(runtime.Kinder); ok {
		return k.Kind()
	}
	return "other"
}

// reqOf names the request a protocol message belongs to: its agent's ID.
func reqOf(p any) string {
	switch m := p.(type) {
	case *agent.WireEnvelope:
		return m.ID.String()
	case *agent.MigrateAck:
		return m.ID.String()
	case *agent.AgentMsg:
		return m.Target.String()
	case *replica.UpdateMsg:
		return m.Txn.String()
	case *replica.CommitMsg:
		return m.Txn.String()
	case *replica.AbortMsg:
		return m.Txn.String()
	case *core.OutcomeMsg:
		return m.Outcome.Agent.String()
	}
	return ""
}

// tracedDisk decorates a disk backend with write and sync spans. It sits
// outside the modelled-latency wrapper, so a sync span includes the fsync
// the model sleeps for.
type tracedDisk struct {
	disk.Backend
	tr   *tracer
	node int
	mu   sync.Mutex // the journal runs on one loop, but keep appends safe
	sp   []span
}

func (d *tracedDisk) Create(name string) (disk.File, error) {
	f, err := d.Backend.Create(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, d: d}, nil
}

func (d *tracedDisk) Append(name string) (disk.File, error) {
	f, err := d.Backend.Append(name)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: f, d: d}, nil
}

// Stats and Crash forward the capabilities of the wrapped backend.
func (d *tracedDisk) Stats() disk.Stats {
	if src, ok := d.Backend.(disk.StatsSource); ok {
		return src.Stats()
	}
	return disk.Stats{}
}

func (d *tracedDisk) Crash() {
	if cr, ok := d.Backend.(disk.Crasher); ok {
		cr.Crash()
	}
}

func (d *tracedDisk) record(name string, start time.Duration) {
	d.mu.Lock()
	d.sp = append(d.sp, span{Name: name, Node: d.node, Clock: "wall", Start: int64(start), End: int64(now())})
	d.mu.Unlock()
}

type tracedFile struct {
	disk.File
	d *tracedDisk
}

func (f *tracedFile) Write(p []byte) (int, error) {
	if !f.d.tr.on.Load() {
		return f.File.Write(p)
	}
	start := now()
	n, err := f.File.Write(p)
	f.d.record("disk.write", start)
	return n, err
}

func (f *tracedFile) Sync() error {
	if !f.d.tr.on.Load() {
		return f.File.Sync()
	}
	start := now()
	err := f.File.Sync()
	f.d.record("disk.sync", start)
	return err
}
