package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/replica"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Probes time one public function of one layer on fixed inputs, alone. They
// run in the traced pass only, after the workload, and are the same on every
// workload and seed: a probe that moves says which layer changed before any
// end-to-end number does. A probe that cannot run reports 0.

// probes runs every probe and returns its metrics by name.
func probes() map[string]float64 {
	v := make(map[string]float64)
	probeWire(v)
	probeAgentState(v)
	probeLockTable(v)
	probeStore(v)
	probeWAL(v)
	probeDES(v)
	probePingPong(v)
	probeTransport(v)
	return v
}

// perOp times n calls of fn and returns nanoseconds per call, best of three
// rounds (the minimum is what the code costs; the rest is the machine).
func perOp(n int, fn func()) float64 {
	best := 0.0
	for round := 0; round < 3; round++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if d := float64(time.Since(start).Nanoseconds()) / float64(n); best == 0 || d < best {
			best = d
		}
	}
	return best
}

func sampleAgent(i int) agent.ID {
	return agent.ID{Home: runtime.NodeID(i%5 + 1), Born: int64(1000 + i), Seq: uint64(i + 1)}
}

// probeWire encodes and decodes an UPDATE claim, the message every commit
// sends N-1 of.
func probeWire(v map[string]float64) {
	msg := &replica.UpdateMsg{Txn: sampleAgent(7), Attempt: 1, Origin: 2, Keys: []string{"k17"}, Shards: []int{5}}
	var buf []byte
	var err error
	encode := func() {
		if buf, err = wire.AppendMessage(buf[:0], msg); err != nil {
			panic(err) // the protocol message set is closed: a bug, not an input
		}
	}
	encode()
	r := wire.NewReader(nil)
	r.SetInterner(&wire.Interner{})
	decode := func() {
		r.Reset(buf)
		if _, err := wire.DecodeMessage(r); err != nil {
			panic(err)
		}
	}
	const n = 20000
	v["wire.msg_encode_ns"] = perOp(n, encode)
	v["wire.msg_decode_ns"] = perOp(n, decode)
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		encode()
		decode()
	}
	goruntime.ReadMemStats(&m1)
	v["wire.allocs_per_msg"] = float64(m1.Mallocs-m0.Mallocs) / n
}

// probeAgentState encodes the state of an agent that has learned of 4096
// finished agents: the gone list rides every migration, so this is what a
// long history costs per hop.
func probeAgentState(v map[string]float64) {
	st := core.WireState{Requests: []core.Request{core.Set("k17", "v")}, USL: []runtime.NodeID{2, 3}}
	for i := 0; i < 4096; i++ {
		st.Gone = append(st.Gone, sampleAgent(i))
	}
	var buf []byte
	v["wire.agentstate_encode_ns_g4096"] = perOp(200, func() { buf = core.AppendWireState(buf[:0], &st) })
	v["wire.agentstate_bytes_g4096"] = float64(len(buf))
}

// probeLockTable merges five servers' Locking Lists, 32 deep, and decides.
func probeLockTable(v map[string]float64) {
	snaps := make([]replica.QueueSnapshot, 5)
	for s := range snaps {
		q := make([]agent.ID, 32)
		for i := range q {
			q[i] = sampleAgent((i + s) % 32)
		}
		snaps[s] = replica.QueueSnapshot{Server: runtime.NodeID(s + 1), Epoch: 1, Queue: q}
	}
	lt := core.NewLockTable(5)
	self := sampleAgent(3)
	version := uint64(0)
	v["core.locktable_decide_ns"] = perOp(2000, func() {
		version++
		for s := range snaps {
			snaps[s].Version = version
			lt.MergeSnapshot(snaps[s])
		}
		lt.Decide(self)
	})
}

func probeStore(v map[string]float64) {
	st := store.New()
	seq := uint64(0)
	v["store.commit_ns"] = perOp(20000, func() {
		seq++
		txn := fmt.Sprint("t", seq)
		if err := st.Prepare(store.Update{TxnID: txn, Key: "k17", Data: "v", Seq: seq}); err != nil {
			panic(err)
		}
		if err := st.Commit(txn); err != nil {
			panic(err)
		}
	})
}

// probeWAL appends one commit-barrier record and fsyncs it on a Mem disk
// (no modelled latency: the WAL's own cost).
func probeWAL(v map[string]float64) {
	log, _, _, err := wal.Open(disk.NewMem(), wal.Options{Policy: wal.PolicyCommit})
	if err != nil {
		return
	}
	defer log.Close()
	rec := wal.Record{Type: 3, Data: make([]byte, 48)}
	ok := true
	perCall := perOp(5000, func() { ok = ok && log.Append(rec, true) == nil })
	if ok {
		v["wal.append_sync_p50_us"] = perCall / 1000
	}
}

// probeDES schedules and fires events with a thousand pending: the
// simulator's steady state.
func probeDES(v map[string]float64) {
	sim := des.New(1)
	nop := func() {}
	for i := 0; i < 1000; i++ {
		sim.After(time.Duration(i)*time.Microsecond, nop)
	}
	v["des.schedule_ns"] = perOp(100000, func() {
		sim.After(time.Millisecond, nop)
		sim.Step()
	})
}

// probePingPong bounces a small protocol message between two bare fabrics:
// two transits with nothing else on the loops.
func probePingPong(v map[string]float64) {
	addrs, err := freeAddrs(2)
	if err != nil {
		return
	}
	var engs [2]*live.Engine
	var fabs [2]*live.Fabric
	for i := range engs {
		engs[i] = live.NewEngine(int64(i))
		defer engs[i].Close()
		if fabs[i], err = live.NewFabric(engs[i], runtime.NodeID(i+1), addrs); err != nil {
			return
		}
		defer fabs[i].Close()
	}
	ball := &agent.MigrateAck{ID: sampleAgent(1), Hop: 1}
	back := make(chan struct{}, 1)
	fabs[1].Attach(2, runtime.HandlerFunc(func(runtime.Message) {
		fabs[1].Send(runtime.Message{From: 2, To: 1, Payload: ball, Size: 24})
	}))
	fabs[0].Attach(1, runtime.HandlerFunc(func(runtime.Message) { back <- struct{}{} }))
	var samples []float64
	for i := 0; i < 600; i++ {
		start := time.Now()
		fabs[0].Send(runtime.Message{From: 1, To: 2, Payload: ball, Size: 24})
		select {
		case <-back:
		case <-time.After(2 * time.Second):
			return
		}
		if i >= 100 { // the first round trips dial
			samples = append(samples, us(time.Since(start)))
		}
	}
	v["live.pingpong_rtt_p50_us"] = median(samples)
}

// probeTransport times the client plane the workloads bypass: three
// transport.ServeLive replicas, one transport.Dial client, sequential ops.
func probeTransport(v map[string]float64) {
	addrs, err := freeAddrs(3)
	if err != nil {
		return
	}
	var servers []*transport.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	for i := 1; i <= 3; i++ {
		s, err := transport.ServeLive("127.0.0.1:0", live.NodeConfig{Self: runtime.NodeID(i), Addrs: addrs, Seed: int64(i)})
		if err != nil {
			return
		}
		servers = append(servers, s)
	}
	c, err := transport.Dial(servers[0].Addr())
	if err != nil {
		return
	}
	defer c.Close()
	c.SetRequestTimeout(5 * time.Second)
	var submits, reads []float64
	for i := 0; i < 150; i++ {
		start := time.Now()
		if err := c.Submit(1, fmt.Sprint("k", i%8), fmt.Sprint("probe-", i), false); err != nil {
			return
		}
		submits = append(submits, us(time.Since(start)))
	}
	for i := 0; i < 600; i++ {
		start := time.Now()
		if _, _, _, err := c.Read(1, fmt.Sprint("k", i%8)); err != nil {
			return
		}
		reads = append(reads, us(time.Since(start)))
	}
	v["transport.submit_rtt_p50_us"] = median(submits)
	v["transport.read_rtt_p50_us"] = median(reads)
	// Let the submitted agents finish before the deferred Close: closing a
	// live fabric under a loop that is still sending panics (README.md,
	// findings).
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if st, err := c.Stats(); err != nil || st.Outstanding == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
}
