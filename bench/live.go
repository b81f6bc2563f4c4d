package main

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/durable"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
	"repro/internal/store"
	"repro/internal/wal"
	"repro/internal/workload"
)

const (
	liveN      = 3
	liveShards = 16
	liveKeys   = 64
	// warmCommits is how many requests every home commits, one at a time,
	// before the window opens: lazy dials, first allocations, first commits.
	warmCommits = 30
	pollEvery   = time.Millisecond
	// traceSlice is how long recording stays on, then off, in a traced pass.
	traceSlice = 500 * time.Millisecond
	// syncLatency is the modelled NVMe fsync of live-durable (as in A9).
	syncLatency = 100 * time.Microsecond
	drainLimit  = 15 * time.Second
	// notYet is a window start that never comes: the warm-up's observer
	// uses it, so recording stays off.
	notYet = time.Duration(1 << 62)
)

// liveSpec describes a live workload. Protocol timers, codec, ack and
// group-commit settings stay at their zero-value defaults — what
// `marpd -mode live` runs — so a change of a default is measured.
type liveSpec struct {
	writeRate, readRate float64 // open loop, per second over all homes; 0 = closed
	outstanding         int     // closed loop: requests kept outstanding per home
	durable             bool
}

func liveWorkload(name string) liveSpec {
	switch name {
	case "live-open":
		// A third of what the cluster sustains at the end of the window,
		// when 1000 commits of history have made each commit cost 3 ms of
		// CPU. At 150/s the late seconds run at 45% utilisation and queueing
		// turned an 18% slower machine into a 31% higher p90.
		return liveSpec{writeRate: 100, readRate: 400}
	case "live-durable":
		return liveSpec{outstanding: 2, durable: true}
	default:
		return liveSpec{outstanding: 2}
	}
}

// request is one client operation and everything observed about it.
type request struct {
	home       int // node index, 0-based
	key, value string
	read       bool
	due        time.Duration // when it was due (open) or submitted (closed)
	sent       time.Duration // when the generator handed it to the home loop
	accept     time.Duration // when Submit/Read returned on the home loop
	commit     time.Duration // when the commit was observed; 0 = never
	agentID    string
	refused    bool
	traced     bool // recording was on when it was due
	visits     int
	retries    int
	byTie      bool
}

// liveNode is one in-process replica: what live.StartNode assembles, with
// the fabric (and disk) optionally decorated for the traced pass.
type liveNode struct {
	id  runtime.NodeID
	eng *live.Engine
	fab *live.Fabric
	tf  *tracedFabric
	cl  *core.Cluster
	mem *disk.Mem
	td  *tracedDisk

	// Owned by the actor loop; the driver reads them after a Do barrier.
	accepted int
	order    []int           // order[j] = index of the j-th accepted write
	stamps   []time.Duration // stamps[i] = when the i-th completion was seen
	lastPoll time.Duration
	pollGaps []float64 // us
	llDepth  []float64

	pollBusy atomic.Bool
	seen     atomic.Int64 // len(stamps), readable off the loop
	pollFn   func()
	finished chan<- int // closed loop: one send of the node index per completion
}

type liveCluster struct {
	spec  liveSpec
	nodes []*liveNode
	tr    *tracer
	reqs  []request
	// marks[k] is (modelled bytes sent, commits seen) at k quarters of the
	// window, written by the observer: history growth is the last quarter's
	// bytes per commit over the first's.
	marks [5]struct{ bytes, commits float64 }
}

func (lc *liveCluster) mark(k int) {
	for _, n := range lc.nodes {
		lc.marks[k].bytes += float64(n.fab.NetStats().BytesSent)
		lc.marks[k].commits += float64(n.seen.Load())
	}
}

// startLive brings up N replicas over loopback TCP: live.NewEngine +
// live.NewFabricOptions + core.NewCluster per node, exactly what
// live.StartNode does, so the fabric can be decorated in between.
func startLive(spec liveSpec, seed int64, tr *tracer) (*liveCluster, error) {
	addrs, err := freeAddrs(liveN)
	if err != nil {
		return nil, err
	}
	lc := &liveCluster{spec: spec, tr: tr}
	for i := 1; i <= liveN; i++ {
		n := &liveNode{id: runtime.NodeID(i)}
		n.eng = live.NewEngine(seed + int64(i))
		fab, err := live.NewFabricOptions(n.eng, n.id, addrs, live.FabricOptions{})
		if err != nil {
			n.eng.Close()
			lc.close()
			return nil, err
		}
		n.fab = fab
		var fabric runtime.Fabric = fab
		if tr != nil {
			n.tf = &tracedFabric{inner: fab, tr: tr}
			fabric = n.tf
		}
		cfg := core.Config{N: liveN, Local: []runtime.NodeID{n.id}, Shards: liveShards}
		if spec.durable {
			n.mem = disk.NewMem()
			backend := disk.WithSyncLatency(n.mem, syncLatency)
			if tr != nil {
				n.td = &tracedDisk{Backend: backend, tr: tr, node: i}
				backend = n.td
			}
			cfg.Durability = &core.DurabilityConfig{
				Policy:  wal.PolicyCommit,
				Backend: func(runtime.NodeID) disk.Backend { return backend },
			}
		}
		cl, err := core.NewCluster(n.eng, fabric, cfg)
		if err != nil {
			fab.Close()
			n.eng.Close()
			lc.close()
			return nil, err
		}
		n.cl = cl
		n.pollFn = n.poll
		lc.nodes = append(lc.nodes, n)
	}
	return lc, nil
}

// close is the graceful teardown live.Node.Close performs.
func (lc *liveCluster) close() {
	for _, n := range lc.nodes {
		n.fab.Close()
		n.eng.Do(func() {
			if err := n.cl.CloseJournals(); err != nil {
				fmt.Printf("bench: closing journal: %v\n", err)
			}
		})
		n.eng.Close()
	}
}

// poll runs on the node's actor loop: it stamps every completion since the
// last poll with the benchmark clock. The client plane acks a submit on
// accept and Outcome.DoneAt is on another node's private clock, so this
// count is the only client-side view of a commit. Outstanding() is O(1);
// Outcomes() and Gather() are O(history) and are read once, after the drain.
func (n *liveNode) poll() {
	t := now()
	done := n.accepted - n.cl.Outstanding()
	for len(n.stamps) < done {
		n.stamps = append(n.stamps, t)
		n.seen.Add(1)
		if n.finished != nil {
			n.finished <- int(n.id) - 1
		}
	}
	if n.lastPoll != 0 {
		n.pollGaps = append(n.pollGaps, us(t-n.lastPoll))
	}
	n.lastPoll = t
	n.pollBusy.Store(false)
}

// observe is the observer goroutine: every millisecond it asks each home
// loop to poll (skipping a loop whose previous poll has not run yet), ten
// times a second it samples Locking List depth, at each quarter of the
// window it marks bytes and commits, and in a traced pass it flips recording
// every traceSlice.
func (lc *liveCluster) observe(stop <-chan struct{}, t0, window time.Duration) {
	quarter := 0
	next := now()
	clock := newAlarm()
	defer clock.close()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		if next += pollEvery; next < now() {
			next = now() // fell behind: do not burst to catch up
		}
		clock.until(next)
		if lc.tr != nil {
			lc.tr.on.Store(recordingAt(now() - t0))
		}
		for quarter <= 4 && now()-t0 >= window*time.Duration(quarter)/4 {
			lc.mark(quarter)
			quarter++
		}
		for _, n := range lc.nodes {
			if n.pollBusy.CompareAndSwap(false, true) {
				n.eng.Inject(n.pollFn)
			}
		}
		if i%100 == 0 {
			for _, n := range lc.nodes {
				n := n
				n.eng.Inject(func() {
					depth := 0
					for sh := 0; sh < liveShards; sh++ {
						depth += n.cl.Server(n.id).QueueLen(sh)
					}
					n.llDepth = append(n.llDepth, float64(depth))
				})
			}
		}
	}
}

// recordingAt reports whether the traced pass records at offset d into the
// window: on in even slices, off in odd ones and before the window.
func recordingAt(d time.Duration) bool {
	return d >= 0 && (d/traceSlice)%2 == 0
}

// submit hands request i to its home loop without waiting for it.
func (lc *liveCluster) submit(i int) {
	r := &lc.reqs[i]
	n := lc.nodes[r.home]
	r.sent = now()
	if r.read {
		n.eng.Inject(func() {
			n.cl.Read(n.id, r.key)
			r.accept = now()
		})
		return
	}
	n.eng.Inject(func() {
		err := n.cl.Submit(n.id, core.Set(r.key, r.value))
		r.accept = now()
		if err != nil {
			r.refused = true
			return
		}
		n.accepted++
		n.order = append(n.order, i)
	})
}

// closedLoop keeps perHome requests outstanding at every home, taking them
// from lc.reqs[from:] in order, until more() reports false or the list runs
// out; it returns the index after the last request used, once everything
// submitted has finished.
func (lc *liveCluster) closedLoop(from, perHome int, more func() bool) (int, error) {
	finished := make(chan int, liveN*perHome) // one slot per outstanding request: polls never block
	for _, n := range lc.nodes {
		n := n
		n.eng.Do(func() { n.finished = finished })
	}
	defer func() {
		for _, n := range lc.nodes {
			n := n
			n.eng.Do(func() { n.finished = nil })
		}
	}()
	next, inFlight := from, 0
	send := func(home int) {
		if next >= len(lc.reqs) {
			return
		}
		r := &lc.reqs[next]
		r.home, r.due = home, now()
		if lc.tr != nil {
			r.traced = lc.tr.on.Load()
		}
		lc.submit(next)
		next++
		inFlight++
	}
	for k := 0; k < perHome; k++ {
		for home := range lc.nodes {
			send(home)
		}
	}
	stall := time.NewTimer(drainLimit)
	defer stall.Stop()
	for inFlight > 0 {
		select {
		case home := <-finished:
			inFlight--
			if more() {
				send(home)
			}
			if !stall.Stop() {
				<-stall.C
			}
			stall.Reset(drainLimit)
		case <-stall.C:
			return next, fmt.Errorf("closed loop: no commit for %v with %d outstanding", drainLimit, inFlight)
		}
	}
	return next, nil
}

// openLoop submits lc.reqs[from:] at their due offsets from t0 and returns
// how late the generator ran, per request, in ms.
func (lc *liveCluster) openLoop(from int, t0 time.Duration) []float64 {
	late := make([]float64, 0, len(lc.reqs)-from)
	clock := newAlarm()
	defer clock.close()
	for i := from; i < len(lc.reqs); i++ {
		r := &lc.reqs[i]
		r.due += t0
		clock.until(r.due)
		r.traced = lc.tr != nil && recordingAt(r.due-t0)
		lc.submit(i)
		late = append(late, ms(r.sent-r.due))
	}
	return late
}

// drain waits until no home has an agent outstanding.
func (lc *liveCluster) drain() error {
	deadline := time.Now().Add(drainLimit)
	for {
		left := 0
		for _, n := range lc.nodes {
			n := n
			n.eng.Do(func() { left += n.cl.Outstanding() })
		}
		if left == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d agents still outstanding %v after the window", left, drainLimit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// counters sums the registry families the per-layer ratios are built from
// over every node. Gather is O(history), so it runs at window edges only.
func (lc *liveCluster) counters() map[string]float64 {
	sum := make(map[string]float64)
	for _, n := range lc.nodes {
		n := n
		var snap metrics.Snapshot
		n.eng.Do(func() { snap = n.cl.Metrics().Gather() })
		for _, p := range snap {
			if p.LabelKey == "" && p.Kind == metrics.KindCounter {
				sum[p.Name] += p.Value
			}
		}
	}
	return sum
}

// openSchedule generates the open-loop requests of a window of length T:
// Poisson writes and reads, each conditioned on its count so that every
// seed offers exactly rate x T operations (a Poisson process conditioned on
// its count is its arrival times rescaled to the window), merged by time.
func openSchedule(spec liveSpec, seed int64, T time.Duration) ([]request, error) {
	gen := func(rate float64, sd int64, read bool) ([]request, error) {
		per := int(rate*T.Seconds()/liveN + 0.5)
		evs, err := workload.Generate(workload.Spec{
			Servers: liveN, RequestsPerServer: per, Keys: liveKeys, Seed: sd,
			MeanInterarrival: time.Duration(float64(time.Second) * liveN / rate),
		})
		if err != nil {
			return nil, err
		}
		last := make(map[int]time.Duration)
		for _, ev := range evs {
			if ev.At > last[int(ev.Home)] {
				last[int(ev.Home)] = ev.At
			}
		}
		out := make([]request, 0, len(evs))
		for _, ev := range evs {
			// The last of per uniform arrivals in [0,T] is expected at T*per/(per+1).
			f := float64(T) * float64(per) / float64(per+1) / float64(last[int(ev.Home)])
			out = append(out, request{home: int(ev.Home) - 1, key: ev.Key, value: ev.Value, read: read,
				due: time.Duration(float64(ev.At) * f)})
		}
		return out, nil
	}
	writes, err := gen(spec.writeRate, seed+1000, false)
	if err != nil {
		return nil, err
	}
	reads, err := gen(spec.readRate, seed+2000, true)
	if err != nil {
		return nil, err
	}
	all := append(writes, reads...)
	sort.SliceStable(all, func(i, j int) bool { return all[i].due < all[j].due })
	return all, nil
}

// closedSchedule generates keys and unique values for a closed loop; homes
// and times are decided by the loop itself.
func closedSchedule(seed int64, count int) ([]request, error) {
	evs, err := workload.Generate(workload.Spec{
		Servers: 1, RequestsPerServer: count, Keys: liveKeys, Seed: seed + 1000,
		MeanInterarrival: time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	out := make([]request, len(evs))
	for i, ev := range evs {
		out[i] = request{key: ev.Key, value: ev.Value}
	}
	return out, nil
}

// liveSchedule generates the window's requests from the seed.
func liveSchedule(spec liveSpec, seed int64, window time.Duration) ([]request, error) {
	if spec.outstanding > 0 {
		// Sized for twice the rate of a cluster with no history yet; a full
		// window runs at a third of that once history has grown.
		return closedSchedule(seed, int(4000*window.Seconds())+500)
	}
	return openSchedule(spec, seed, window)
}

// warmRequests are the excluded warm-up writes: keys drawn from the seed,
// values that cannot collide with a schedule's.
func warmRequests(seed int64) []request {
	rng := rand.New(rand.NewSource(seed + 3000))
	out := make([]request, liveN*warmCommits)
	for i := range out {
		out[i] = request{key: fmt.Sprintf("k%d", rng.Intn(liveKeys)), value: fmt.Sprintf("warm-%d", i)}
	}
	return out
}

// setUp builds a cluster and warms it: everything before the window. A
// traced cluster gets a tracer of its own: send stamps a closed cluster left
// undelivered must not pair with the next cluster's deliveries.
func setUp(spec liveSpec, seed int64, traced bool) (*liveCluster, time.Duration, error) {
	start := time.Now()
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	lc, err := startLive(spec, seed, tr)
	for tries := 0; errors.Is(err, syscall.EADDRINUSE) && tries < 3; tries++ {
		lc, err = startLive(spec, seed, tr) // another process took a port between the probe and the bind
	}
	if err != nil {
		return nil, 0, err
	}
	lc.reqs = warmRequests(seed)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); lc.observe(stop, notYet, 0) }()
	_, err = lc.closedLoop(0, 1, func() bool { return true })
	close(stop)
	wg.Wait()
	if err != nil {
		lc.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return lc, time.Since(start), nil
}

// liveRun is everything one live window yields.
type liveRun struct {
	lc         *liveCluster
	t0         time.Duration
	first      int // index of the first window request
	setups     []float64
	late       []float64
	before     map[string]float64
	after      map[string]float64
	cpu        time.Duration
	gcCycles   uint32
	gcPause    time.Duration
	allocBytes uint64
	heapLive   uint64
	replayMs   float64
	spans      []span // traced pass: what the decorators recorded, then every span
	misaligned int    // deliveries whose send stamp was missing or of another kind
}

// runLive runs one live workload: set-up (several times, the last one
// kept), the measured window, the drain, and the correctness gate.
func runLive(spec liveSpec, seed int64, window time.Duration, traced bool, setups int) (*liveRun, error) {
	run := &liveRun{}
	var lc *liveCluster
	for i := 0; i < setups; i++ {
		if lc != nil {
			lc.close()
		}
		var took time.Duration
		var err error
		if lc, took, err = setUp(spec, seed, traced); err != nil {
			return nil, err
		}
		run.setups = append(run.setups, took.Seconds())
	}
	run.lc = lc
	defer lc.close()

	genStart := time.Now()
	sched, err := liveSchedule(spec, seed, window)
	if err != nil {
		return nil, err
	}
	for i := range run.setups {
		run.setups[i] += time.Since(genStart).Seconds()
	}
	run.first = len(lc.reqs)
	lc.reqs = append(lc.reqs, sched...)

	run.before = lc.counters()
	for _, n := range lc.nodes {
		n := n
		n.eng.Do(func() { n.pollGaps, n.llDepth, n.lastPoll = nil, nil, 0 })
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var ru0, ru1 rusage
	var m0, m1 memStats
	m0.read()
	ru0.read()
	run.t0 = now()
	wg.Add(1)
	go func() { defer wg.Done(); lc.observe(stop, run.t0, window) }()
	end := run.t0 + window
	var loopErr error
	if spec.outstanding > 0 {
		var used int
		used, loopErr = lc.closedLoop(run.first, spec.outstanding, func() bool { return now() < end })
		if loopErr == nil && used == len(lc.reqs) {
			loopErr = errors.New("closed loop: schedule exhausted before the window ended")
		}
		lc.reqs = lc.reqs[:used]
	} else {
		run.late = lc.openLoop(run.first, run.t0)
		time.Sleep(end - now())
	}
	ru1.read()
	m1.read()
	backlog := 0
	for _, n := range lc.nodes {
		n := n
		n.eng.Do(func() { backlog += n.cl.Outstanding() })
	}
	if loopErr == nil {
		loopErr = lc.drain()
	}
	close(stop)
	wg.Wait()
	if lc.tr != nil {
		lc.tr.on.Store(false)
	}
	if loopErr != nil {
		return nil, loopErr
	}
	run.cpu = ru1.cpu - ru0.cpu
	run.gcCycles = m1.numGC - m0.numGC
	run.gcPause = m1.pause - m0.pause
	run.allocBytes = m1.totalAlloc - m0.totalAlloc
	run.heapLive = liveHeap()
	run.after = lc.counters()
	if spec.writeRate > 0 && float64(backlog) > spec.writeRate {
		return nil, fmt.Errorf("invalid run: backlog of %d at window end exceeds one second of arrivals", backlog)
	}
	if err := run.collect(); err != nil {
		return nil, err
	}
	if err := run.gate(); err != nil {
		return nil, err
	}
	return run, nil
}

// collect matches completions to requests. Outcomes() at a home is in
// completion order, which is the order poll stamped them in; agents are
// numbered at a home in dispatch order, which is the order submits were
// accepted in.
func (run *liveRun) collect() error {
	lc := run.lc
	for _, n := range lc.nodes {
		n := n
		var outs []core.Outcome
		n.eng.Do(func() {
			n.poll()
			outs = n.cl.Outcomes()
			if n.tf != nil {
				// Copied on the loop: deliveries keep appending after the drain.
				run.spans = append(run.spans, n.tf.spans...)
				run.misaligned += n.tf.mismatches
			}
		})
		if n.td != nil {
			n.td.mu.Lock()
			run.spans = append(run.spans, n.td.sp...)
			n.td.mu.Unlock()
		}
		if len(outs) != len(n.stamps) || len(outs) != len(n.order) {
			return fmt.Errorf("node %d: %d outcomes, %d stamped, %d accepted", n.id, len(outs), len(n.stamps), len(n.order))
		}
		byDispatch := make([]int, len(outs))
		for i := range byDispatch {
			byDispatch[i] = i
		}
		sort.Slice(byDispatch, func(a, b int) bool { return outs[byDispatch[a]].Agent.Seq < outs[byDispatch[b]].Agent.Seq })
		for j, i := range byDispatch {
			r := &lc.reqs[n.order[j]]
			o := outs[i]
			r.agentID = o.Agent.String()
			if o.Failed {
				continue
			}
			r.commit = n.stamps[i]
			r.visits, r.retries, r.byTie = o.Visits, o.Retries, o.ByTie
		}
	}
	return nil
}

// logsOf folds every shard's committed log at node n.
func logsOf(n *liveNode) [][]store.Update {
	var logs [][]store.Update
	n.eng.Do(func() {
		for sh := 0; sh < liveShards; sh++ {
			logs = append(logs, n.cl.Server(n.id).StoreOf(sh).Log())
		}
	})
	return logs
}

func sameLogs(a, b [][]store.Update) bool {
	for sh := range a {
		if len(a[sh]) != len(b[sh]) {
			return false
		}
		for i := range a[sh] {
			if a[sh][i] != b[sh][i] {
				return false
			}
		}
	}
	return true
}

// gate is the correctness check of a live run: referees clean, per-shard
// commit logs identical on all replicas, every value whose commit was
// observed in the logs exactly once and nothing else there, and on a durable run every observed commit recovered from
// the disks after a power cut.
func (run *liveRun) gate() error {
	lc := run.lc
	for _, n := range lc.nodes {
		n := n
		var err error
		n.eng.Do(func() { err = n.cl.Referee().Err() })
		if err != nil {
			return fmt.Errorf("node %d referee: %w", n.id, err)
		}
	}
	// A commit is observed at its home as soon as the outcome lands there;
	// the COMMIT broadcast may still be on its way to the third replica.
	var ref [][]store.Update
	deadline := time.Now().Add(5 * time.Second)
	for {
		ref = logsOf(lc.nodes[0])
		same := true
		for _, n := range lc.nodes[1:] {
			same = same && sameLogs(ref, logsOf(n))
		}
		if same {
			break
		}
		if time.Now().After(deadline) {
			return errors.New("replicas hold different commit logs 5s after the drain")
		}
		time.Sleep(20 * time.Millisecond)
	}
	committed := make(map[string]bool)
	for i := range lc.reqs {
		if r := &lc.reqs[i]; !r.read && r.commit != 0 {
			committed[r.value] = true
		}
	}
	vals := make([][]string, len(ref))
	for sh, log := range ref {
		for _, u := range log {
			vals[sh] = append(vals[sh], u.Data)
		}
	}
	if err := exactlyOnce(committed, vals); err != nil {
		return err
	}
	if lc.spec.durable {
		return run.powerCut(committed)
	}
	return nil
}

// powerCut stops every replica without closing its journal, discards what
// its disk had not synced, and replays the disk: every commit observed
// before the stop must come back. The live fabric is not a runtime.Crasher,
// so Cluster.Crash would be a no-op; the stop is done by hand.
func (run *liveRun) powerCut(committed map[string]bool) error {
	var replays []float64
	for _, n := range run.lc.nodes {
		n := n
		n.fab.Close()
		// The cut runs on the loop, after whatever the fabric had queued:
		// nothing else touches the Mem, which is not safe for concurrent use.
		n.eng.Do(func() { n.mem.Crash() })
		n.eng.Close()
		start := time.Now()
		j, st, err := durable.Open(n.mem, durable.Options{Policy: wal.PolicyCommit, Shards: liveShards})
		if err != nil {
			return fmt.Errorf("node %d replay: %w", n.id, err)
		}
		replays = append(replays, ms(time.Since(start)))
		j.Kill()
		if st == nil {
			return fmt.Errorf("node %d: disk holds no history after the power cut", n.id)
		}
		got := make(map[string]bool)
		for _, ss := range append([]store.State{st.Store}, st.ExtraStores...) {
			for _, u := range ss.Log {
				got[u.Data] = true
			}
		}
		for v := range committed {
			if !got[v] {
				return fmt.Errorf("node %d lost committed value %q in the power cut", n.id, v)
			}
		}
	}
	run.replayMs = median(replays)
	return nil
}
