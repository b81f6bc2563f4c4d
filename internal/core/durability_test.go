package core

import (
	"crypto/sha256"
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/disk"
	"repro/internal/reliable"
	"repro/internal/runtime"
	"repro/internal/simnet"
	"repro/internal/wal"
)

// memDurability builds a DurabilityConfig over per-node Mem disks and
// returns the disks so tests can inspect them.
func memDurability(policy wal.Policy) (*DurabilityConfig, map[runtime.NodeID]*disk.Mem) {
	disks := make(map[runtime.NodeID]*disk.Mem)
	return &DurabilityConfig{
		Policy: policy,
		Backend: func(id runtime.NodeID) disk.Backend {
			if disks[id] == nil {
				disks[id] = disk.NewMem()
			}
			return disks[id]
		},
	}, disks
}

func TestDurableRecoverRestoresCommitsFromDisk(t *testing.T) {
	dur, _ := memDurability(wal.PolicyCommit)
	c := newTestCluster(t, Config{N: 3, Durability: dur})
	for i := 0; i < 3; i++ {
		if err := c.Submit(1, Set(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatal(err)
		}
		if err := c.RunUntilDone(time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	c.Settle(time.Second)
	if got := c.Server(3).Store().LastSeq(); got != 3 {
		t.Fatalf("pre-crash LastSeq = %d", got)
	}
	c.Crash(3)
	// Two more commits happen while 3 is down.
	for i := 3; i < 5; i++ {
		if err := c.Submit(1, Set(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatal(err)
		}
		if err := c.RunUntilDone(time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	c.Recover(3)
	// Replay is synchronous: before a single network event runs, the
	// node's own commits are back. Anti-entropy has not delivered yet.
	if got := c.Server(3).Store().LastSeq(); got != 3 {
		t.Fatalf("right after Recover LastSeq = %d, want 3 (from WAL)", got)
	}
	// The anti-entropy round supplies the two it missed.
	c.Settle(2 * time.Second)
	if got := c.Server(3).Store().LastSeq(); got != 5 {
		t.Fatalf("after catch-up LastSeq = %d, want 5", got)
	}
	if err := c.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	if err := c.Referee().Err(); err != nil {
		t.Fatal(err)
	}
	if st := c.JournalStats(); st.Appends == 0 || st.Syncs == 0 {
		t.Fatalf("journal stats = %+v", st)
	}
	if st := c.DiskStats(); st.BytesWritten == 0 {
		t.Fatalf("disk stats = %+v", st)
	}
}

func TestDurablePolicyNoneStillConvergesViaPeers(t *testing.T) {
	// PolicyNone journals to the page cache only: a power cut loses the
	// tail, and recovery leans on anti-entropy — convergence must hold
	// anyway, just with more missed updates to pull.
	dur, disks := memDurability(wal.PolicyNone)
	c := newTestCluster(t, Config{N: 3, Durability: dur})
	for i := 0; i < 4; i++ {
		if err := c.Submit(1, Set(fmt.Sprintf("k%d", i), "v")); err != nil {
			t.Fatal(err)
		}
		if err := c.RunUntilDone(time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	c.Settle(time.Second)
	c.Crash(3)
	if got := disks[3].Stats().Syncs; got != 0 {
		t.Fatalf("PolicyNone performed %d fsyncs", got)
	}
	c.Recover(3)
	c.Settle(2 * time.Second)
	if err := c.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	if got := c.Server(3).Store().LastSeq(); got != 4 {
		t.Fatalf("LastSeq = %d, want 4", got)
	}
}

func TestDurableRestartChurnUnderLossyNetwork(t *testing.T) {
	// Crash/restart churn with a lossy fabric and the reliable layer: the
	// persisted receive windows mean retransmits straddling a restart are
	// suppressed, and the persisted store means restarts never lose acked
	// commits. The standing oracles must stay green throughout.
	dur, _ := memDurability(wal.PolicyCommit)
	c := newTestCluster(t,
		Config{N: 5, Durability: dur, Reliable: true, RegenerateAgents: true},
		simEnv{seed: 11, faults: simnet.NewFaultModel(11, 0.03, 0.01)},
	)
	seq := 0
	// Agents are born at live homes only: one homed on a down node could
	// not start until its recovery.
	submit := func(n int, homes ...runtime.NodeID) {
		for i := 0; i < n; i++ {
			seq++
			home := homes[seq%len(homes)]
			if err := c.Submit(home, Set(fmt.Sprintf("k%d", seq%4), fmt.Sprintf("v%d", seq))); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.RunUntilDone(5 * time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	submit(4, 1, 2, 3, 4, 5)
	c.Crash(2)
	submit(4, 1, 3, 4, 5)
	c.Recover(2)
	submit(4, 1, 2, 3, 4, 5)
	c.Crash(4)
	c.Crash(5) // two down: still a majority of 5
	submit(3, 1, 2, 3)
	c.Recover(4)
	c.Recover(5)
	submit(3, 1, 2, 3, 4, 5)
	c.Settle(3 * time.Second)
	if err := c.Referee().Err(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
	// What the restarts left of the reliable layer: acknowledgements mostly
	// rode the protocol's own replies, and with the links quiet again no
	// receive window holds anything above its watermark — the frames that
	// died with a crashed sender left no hole behind.
	snap := c.Metrics().Gather()
	if alone, rode := snap.Value("marp.reliable.acks_sent"), snap.Value("marp.reliable.acks_piggybacked"); rode <= alone {
		t.Fatalf("%v acks piggybacked, %v sent alone", rode, alone)
	}
	if got := snap.Value("marp.reliable.dedup_residue"); got != 0 {
		t.Fatalf("marp.reliable.dedup_residue = %v at quiescence", got)
	}
	// Every link timed its round trips, restarts included, and none of them
	// waits as long as the 20 ms a link starts with.
	if n, rto := snap.Value("marp.reliable.rtt_samples"), snap.Value("marp.reliable.rto_max_seconds"); n == 0 || rto <= 0 || rto >= reliable.DefaultConfig.Base.Seconds() {
		t.Fatalf("%v round trips measured, longest timeout %vs", n, rto)
	}
}

// TestDurableJournalGoldenBytes: what a MARP replica journals is part of
// the on-disk format (DESIGN.md §9), and the codec that writes it is not. A
// fixed run — five nodes, three shards, the reliable layer over a 3 % lossy
// fabric, one crash and its recovery — once as bare records and once with a
// snapshot every 7 records, must leave every node's journal files
// byte-identical to a recorded run. The optimistic tier's counterpart is
// TestJournalGoldenBytes in internal/optimistic.
func TestDurableJournalGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		name         string
		compactEvery int
		want         [5]string
	}{
		{"records", -1, [5]string{"5ce7b311ac22e5af5142370d", "fa5da53ad9ab158e80e3a13e", "38ffcbf462edfaa1f66c22a2", "84a0328bc9103fb7c6e3a19f", "8f03ce785bd0783ac7d24346"}},
		{"snapshots", 7, [5]string{"b90007f7e5007d29d451470c", "1315a457ac95a37d4553279c", "56d024ba8fbb306b16ab8025", "76f7c1e8bea3bbe09e5afadd", "44f895e7d8c1517e1677b2c1"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dur, disks := memDurability(wal.PolicyCommit)
			dur.CompactEvery = tc.compactEvery
			c := newTestCluster(t,
				Config{N: 5, Shards: 3, Durability: dur, Reliable: true, RegenerateAgents: true},
				simEnv{seed: 7, faults: simnet.NewFaultModel(7, 0.03, 0)},
			)
			seq := 0
			submit := func(n int, homes ...runtime.NodeID) {
				for i := 0; i < n; i++ {
					seq++
					home := homes[seq%len(homes)]
					if err := c.Submit(home, Set(fmt.Sprintf("k%d", seq%5), fmt.Sprintf("v%d", seq))); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.RunUntilDone(5 * time.Minute); err != nil {
					t.Fatal(err)
				}
			}
			submit(5, 1, 2, 3, 4, 5)
			c.Crash(3)
			submit(5, 1, 2, 4, 5)
			c.Recover(3)
			submit(5, 1, 2, 3, 4, 5)
			c.Settle(2 * time.Second)
			if err := c.Referee().Err(); err != nil {
				t.Fatal(err)
			}
			if err := c.CheckConvergence(); err != nil {
				t.Fatal(err)
			}
			if err := c.CloseJournals(); err != nil {
				t.Fatal(err)
			}
			for id := runtime.NodeID(1); id <= 5; id++ {
				names, err := disks[id].List()
				if err != nil {
					t.Fatal(err)
				}
				sort.Strings(names)
				h := sha256.New()
				for _, name := range names {
					data, err := disks[id].ReadFile(name)
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(h, "%s %d\n", name, len(data))
					h.Write(data)
				}
				if got := fmt.Sprintf("%x", h.Sum(nil)[:12]); got != tc.want[id-1] {
					t.Errorf("node %d: journal files %v hash to %s, want %s", id, names, got, tc.want[id-1])
				}
			}
		})
	}
}

func TestDurabilityOffRunsIdentical(t *testing.T) {
	// Durability must be invisible when enabled: it draws no randomness and
	// schedules no events, so the same seed produces the identical commit
	// history with and without it. (The byte-identical marpbench check in
	// CI is the end-to-end version of this.)
	run := func(dur *DurabilityConfig) ([]string, int) {
		c := newTestCluster(t, Config{N: 5, Durability: dur}, simEnv{seed: 23})
		for i := 0; i < 6; i++ {
			if err := c.Submit(runtime.NodeID(i%5+1), Set(fmt.Sprintf("k%d", i%3), fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
			if err := c.RunUntilDone(time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		c.Settle(time.Second)
		var log []string
		for _, u := range c.Server(1).Store().Log() {
			log = append(log, fmt.Sprintf("%s=%s@%d by %s", u.Key, u.Data, u.Seq, u.TxnID))
		}
		return log, c.NetStats().MessagesSent
	}
	dur, _ := memDurability(wal.PolicyAlways)
	logOff, msgsOff := run(nil)
	logOn, msgsOn := run(dur)
	if len(logOff) != len(logOn) {
		t.Fatalf("log lengths differ: %d vs %d", len(logOff), len(logOn))
	}
	for i := range logOff {
		if logOff[i] != logOn[i] {
			t.Fatalf("log[%d]: %q vs %q", i, logOff[i], logOn[i])
		}
	}
	if msgsOff != msgsOn {
		t.Fatalf("message counts differ: %d vs %d", msgsOff, msgsOn)
	}
}

func TestCloseJournalsDetachesEveryAttachmentPoint(t *testing.T) {
	// A message handled after CloseJournals (in live mode the fabric drains
	// its last callbacks around shutdown) must fall back to volatile
	// behaviour, not append to a closed WAL and panic. The reliable layer is
	// on so its Acked/NextSeq journal hooks — attachment points beyond the
	// store's — are exercised too, as are the server's lock-state hooks.
	dur, _ := memDurability(wal.PolicyCommit)
	c := newTestCluster(t, Config{N: 3, Durability: dur, Reliable: true})
	if err := c.Submit(1, Set("x", "v")); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Settle(time.Second)
	if err := c.CloseJournals(); err != nil {
		t.Fatal(err)
	}
	// The cluster keeps working with the journals gone: commits, reliable
	// frames, and locking traffic all still flow.
	if err := c.Submit(2, Set("y", "w")); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Settle(time.Second)
	if err := c.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
}

func TestDurableGracefulCloseReopensClean(t *testing.T) {
	dur, disks := memDurability(wal.PolicyCommit)
	c := newTestCluster(t, Config{N: 3, Durability: dur})
	if err := c.Submit(1, Set("x", "v")); err != nil {
		t.Fatal(err)
	}
	if err := c.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	c.Settle(time.Second)
	if err := c.CloseJournals(); err != nil {
		t.Fatal(err)
	}
	// A second cluster generation over the same disks (a full fleet
	// restart) starts from the committed state.
	c2 := newTestCluster(t, Config{N: 3, Durability: &DurabilityConfig{
		Policy:  wal.PolicyCommit,
		Backend: func(id runtime.NodeID) disk.Backend { return disks[id] },
	}})
	for _, id := range c2.Nodes() {
		if got := c2.Server(id).Store().LastSeq(); got != 1 {
			t.Fatalf("server %d restarted with LastSeq %d, want 1", id, got)
		}
	}
	if v, ok := c2.Read(2, "x"); !ok || v.Data != "v" {
		t.Fatalf("read after fleet restart: %+v %v", v, ok)
	}
	// And it keeps working.
	if err := c2.Submit(1, Set("y", "w")); err != nil {
		t.Fatal(err)
	}
	if err := c2.RunUntilDone(time.Minute); err != nil {
		t.Fatal(err)
	}
	c2.Settle(time.Second)
	if err := c2.CheckConvergence(); err != nil {
		t.Fatal(err)
	}
}
