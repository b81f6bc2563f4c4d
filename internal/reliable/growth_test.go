package reliable_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/durable"
	"repro/internal/reliable"
	"repro/internal/runtime"
	"repro/internal/simnet"
)

// TestDedupStateStaysBoundedOverALongRun sends k and 4k frames over a lossy
// link to a journaled receiver and weighs what the receiver keeps for
// duplicate suppression afterwards: entries in memory, journal records per
// frame, bytes in a compaction snapshot. Kept as a watermark plus what is
// out of order, none of them knows how long the run was; the set of every
// number ever seen grew all three by one entry per frame.
func TestDedupStateStaysBoundedOverALongRun(t *testing.T) {
	run := func(frames int) (retained int, recordsPerFrame float64, snapBytes int) {
		sim := des.New(5)
		net := simnet.New(sim, simnet.FullMesh(2), simnet.LAN())
		net.SetFaults(simnet.NewFaultModel(6, 0.05, 0.02))
		l := reliable.NewLayer(sim, net, reliable.Config{Attempts: 12})
		delivered := 0
		l.Attach(1, runtime.HandlerFunc(func(runtime.Message) {}))
		l.Attach(2, runtime.HandlerFunc(func(runtime.Message) { delivered++ }))
		mem := disk.NewMem()
		j, _, err := durable.Open(mem, durable.Options{CompactEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		l.SetJournal(2, j)
		j.AddSource(func(st *durable.State) { st.RelNextSeq, st.RelSeen = l.PortState(2) })
		for i := 0; i < frames; i++ {
			sim.After(time.Duration(i)*time.Millisecond, func() {
				l.Send(runtime.Message{From: 1, To: 2, Payload: "p", Size: 1})
			})
		}
		for sim.Step() {
		}
		if delivered != frames || l.Stats().GaveUp != 0 {
			t.Fatalf("%d frames: delivered %d, stats %+v", frames, delivered, l.Stats())
		}
		if l.Stats().DuplicatesSuppressed == 0 {
			t.Fatalf("%d frames: nothing was ever out of order or duplicated", frames)
		}
		_, held := l.PortState(2)
		for _, w := range held {
			retained += 1 + len(w.Above)
		}
		recordsPerFrame = float64(j.Stats().Appends) / float64(frames)
		if err := j.Compact(); err != nil {
			t.Fatal(err)
		}
		names, _ := mem.List()
		for _, name := range names {
			if strings.HasPrefix(name, "snap-") {
				snapBytes += mem.Size(name)
			}
		}
		// What was journaled is what a restart gets back.
		j.Kill()
		if _, st, err := durable.Open(mem, durable.Options{}); err != nil || st.RelSeen[1].Mark != uint64(frames) || st.RelSeen[1].Above != nil {
			t.Fatalf("%d frames: reopened window %+v, %v", frames, st.RelSeen[1], err)
		}
		return retained, recordsPerFrame, snapBytes
	}
	const k = 500 // k and 4k encode to varints of the same width
	ret1, rec1, snap1 := run(k)
	ret4, rec4, snap4 := run(4 * k)
	t.Logf("%d frames: %d entries, %.3f records/frame, %d snapshot bytes; %d frames: %d, %.3f, %d",
		k, ret1, rec1, snap1, 4*k, ret4, rec4, snap4)
	if ret1 != 1 || ret4 != 1 {
		t.Errorf("retained dedup entries: %d after %d frames, %d after %d; want the one watermark", ret1, k, ret4, 4*k)
	}
	if snap4 != snap1 {
		t.Errorf("snapshot bytes: %d after %d frames, %d after %d", snap1, k, snap4, 4*k)
	}
	if rec1 >= 1 || rec4 > rec1*1.1 || rec4 < rec1*0.9 {
		t.Errorf("journal records per frame: %.3f after %d frames, %.3f after %d; want equal and below one", rec1, k, rec4, 4*k)
	}
}
