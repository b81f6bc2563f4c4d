package desengine

// NewProcesses: the deployed shape in virtual time (see the package
// comment).

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/agent"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/disk"
	"repro/internal/quorum"
	"repro/internal/runtime"
	"repro/internal/simnet"
)

// wireNet is the simulated network claiming wire delivery, as the live
// fabric does: a cluster on it migrates agents as encoded state and runs
// the reliable window under reliable.WireConfig.
type wireNet struct{ *simnet.Network }

func (wireNet) WireDelivery() bool { return true }

// view is one process's engine on the shared simulator and random source,
// as a live process's actor loop is its own: its clock reads zero when the
// process starts, and once the process is killed none of the callbacks it
// scheduled runs.
type view struct {
	sim    *des.Simulator
	start  runtime.Time
	killed bool
}

func (v *view) Now() runtime.Time                            { return v.sim.Now() - v.start }
func (v *view) Rand() *rand.Rand                             { return v.sim.Rand() }
func (v *view) Inject(fn func())                             { v.AfterFunc(0, fn) }
func (v *view) Sleep(d time.Duration)                        { v.sim.RunFor(d) }
func (v *view) Wait(d time.Duration, done func() bool) error { return v.sim.Wait(d, done) }

func (v *view) AfterFunc(d time.Duration, fn func()) runtime.Timer {
	return v.sim.After(d, func() {
		if !v.killed {
			fn()
		}
	})
}

// Processes is one single-node core.Cluster (Config.Local = {id}) per
// replica on one simulator (des.New, unpaced) and one wire network.
type Processes struct {
	simulation
	cfgs    []core.Config // node id's at index id-1, its backend fixed
	procs   []*core.Cluster
	views   []*view
	quorums []quorum.Assignment
	ref     *core.Referee
}

// NewProcesses starts one process per replica of cfg.Cluster.N, each on
// cfg.Cluster with Local its own ID. A durable process keeps the backend
// Durability.Backend gave its ID at construction across every restart.
// cfg.Cluster.OnGrant, if set, sees every grant beside the referee that
// spans the processes.
func NewProcesses(cfg Config) (*Processes, error) {
	n := cfg.Cluster.N
	s, err := simulate("core", n, cfg.Seed, des.New, cfg.Topology, cfg.Latency, cfg.Faults)
	if err != nil {
		return nil, err
	}
	p := &Processes{simulation: s, procs: make([]*core.Cluster, n), views: make([]*view, n)}
	extra := cfg.Cluster.OnGrant
	for id := runtime.NodeID(1); int(id) <= n; id++ {
		pc := cfg.Cluster
		pc.Local = []runtime.NodeID{id}
		pc.OnGrant = func(server runtime.NodeID, shrd int, txn agent.ID) {
			if p.ref != nil { // nil while the first processes are built
				p.ref.OnGrant(server, shrd, txn)
			}
			if extra != nil {
				extra(server, shrd, txn)
			}
		}
		if d := pc.Durability; d != nil {
			dc, b := *d, d.Backend(id)
			dc.Backend = func(runtime.NodeID) disk.Backend { return b }
			pc.Durability = &dc
		}
		p.cfgs = append(p.cfgs, pc)
		if err := p.start(id); err != nil {
			return nil, err
		}
	}
	p.quorums = p.procs[0].Quorums()
	p.ref = core.NewShardedReferee(p.quorums, s.sim.Now)
	return p, nil
}

// start runs node id's process on a fresh view, as live.StartNode does on
// a fresh actor loop: the cluster attaches to the network, then StartAbove
// lifts its agents' births and link numbers over the simulator's clock
// (the wall clock, live), which a restart does not rewind.
func (p *Processes) start(id runtime.NodeID) error {
	v := &view{sim: p.sim, start: p.sim.Now()}
	c, err := core.NewCluster(v, wireNet{p.net}, p.cfgs[id-1])
	if err != nil {
		return err
	}
	c.StartAbove(int64(p.sim.Now()))
	p.procs[id-1], p.views[id-1] = c, v
	return nil
}

// Cluster returns node id's process: the running one, or the last.
func (p *Processes) Cluster(id runtime.NodeID) *core.Cluster { return p.procs[id-1] }

// Referee returns the Theorem 2 oracle over every process's grants.
func (p *Processes) Referee() *core.Referee { return p.ref }

// Kill ends node id's process as kill -9 does: none of its timers or
// callbacks runs again, and Cluster.Crash takes the node off the network
// and power-cuts its disk (a disk.Mem loses what it had not synced). The
// node being down is not what keeps it dead: a restart brings it up.
func (p *Processes) Kill(id runtime.NodeID) {
	if v := p.views[id-1]; !v.killed {
		v.killed = true
		p.procs[id-1].Crash(id)
	}
}

// Restart starts a new process for the killed node id over its backend (a
// volatile one comes back empty) and then brings the node up.
func (p *Processes) Restart(id runtime.NodeID) error {
	if !p.views[id-1].killed {
		return fmt.Errorf("desengine: process %d is running", id)
	}
	if err := p.start(id); err != nil {
		return err
	}
	p.net.SetDown(id, false)
	return nil
}

// Heal runs core.Cluster.HealNet at every running process, as the
// operator's fan-out does on live ones: the network joins (Network().Heal,
// the undoing of Network().Partition), and each replica starts an
// anti-entropy round.
func (p *Processes) Heal() {
	for i, c := range p.procs {
		if !p.views[i].killed {
			c.HealNet()
		}
	}
}

// CheckConvergence verifies that, shard by shard, every running member of
// the replica group holds the same committed log, and that the referee
// saw no two transactions hold a quorum at once.
func (p *Processes) CheckConvergence() error {
	for sh, q := range p.quorums {
		ref := runtime.None
		for _, id := range q.Nodes() {
			if p.views[id-1].killed {
				continue
			}
			if ref == runtime.None {
				ref = id
			} else if a, b := p.procs[ref-1].Server(ref).StoreOf(sh).Log(), p.procs[id-1].Server(id).StoreOf(sh).Log(); !slices.Equal(a, b) {
				return fmt.Errorf("desengine: shard %d: server %d's log %v differs from server %d's %v", sh, id, b, ref, a)
			}
		}
	}
	return p.ref.Err()
}
