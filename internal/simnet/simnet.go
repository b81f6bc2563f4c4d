// Package simnet provides a simulated wide-area network on top of the
// discrete-event simulator in internal/des.
//
// The network model follows the paper's assumptions (§2): logical channels
// are asynchronous and reliable with unpredictable but finite delays; nodes
// fail according to the fail-stop model. A message sent to a node that is
// down (or unreachable due to a partition) is silently dropped — exactly the
// behaviour a fail-stop process presents to its peers — and senders detect
// such failures by timeout, as the protocol layer prescribes.
//
// The reliable-channel assumption can be weakened per run by attaching a
// FaultModel (SetFaults): messages between live, connected nodes may then be
// lost or duplicated with configured probabilities, including time-windowed
// loss bursts. Protocol layers that must survive such links run over the
// ack/retransmit shim in internal/reliable rather than the raw Network; the
// Fabric interface abstracts over the two.
//
// Every delivery is scheduled on the shared des.Simulator, so an entire
// multi-node execution remains deterministic.
package simnet

import (
	"fmt"
	"time"

	"repro/internal/des"
	"repro/internal/runtime"
)

// The vocabulary types of the fabric — node identity, messages, handlers,
// traffic counters — are the engine-neutral definitions in internal/runtime.
// The aliases keep simulation-side call sites (tests, harness, topology
// code) reading in this package's terms while protocol code sees only the
// runtime names.
type (
	// NodeID identifies a simulated host (1..N; zero = "no node").
	NodeID = runtime.NodeID
	// Message is a single datagram on the simulated network.
	Message = runtime.Message
	// Kinder is implemented by payloads wanting per-kind accounting.
	Kinder = runtime.Kinder
	// Handler receives messages delivered to a node.
	Handler = runtime.Handler
	// HandlerFunc adapts a function to the Handler interface.
	HandlerFunc = runtime.HandlerFunc
	// Stats aggregates network traffic counters.
	Stats = runtime.NetStats
	// Fabric is the message-passing surface protocol layers run on:
	// either a *Network directly (the paper's reliable channels) or a
	// reliability shim wrapping one (internal/reliable).
	Fabric = runtime.Fabric
)

// None is the zero NodeID, meaning "no node".
const None = runtime.None

// Network is a simulated message-passing network.
type Network struct {
	sim     *des.Simulator
	topo    *Topology
	latency LatencyModel
	nodes   map[NodeID]Handler
	down    map[NodeID]bool
	group   map[NodeID]int // partition group; all zero = fully connected
	faults  *FaultModel
	stats   Stats
}

// New creates a network over topo using the given latency model. All
// deliveries are scheduled on sim.
func New(sim *des.Simulator, topo *Topology, latency LatencyModel) *Network {
	if topo == nil {
		panic("simnet: nil topology")
	}
	if latency == nil {
		latency = Constant(1 * time.Millisecond)
	}
	return &Network{
		sim:     sim,
		topo:    topo,
		latency: latency,
		nodes:   make(map[NodeID]Handler),
		down:    make(map[NodeID]bool),
		group:   make(map[NodeID]int),
	}
}

// Sim returns the underlying simulator.
func (n *Network) Sim() *des.Simulator { return n.sim }

// Topology returns the network's topology (cost matrix).
func (n *Network) Topology() *Topology { return n.topo }

// Attach registers h as the handler for node id. Attaching twice replaces
// the handler (used by recovery: a restarted server re-attaches itself).
func (n *Network) Attach(id NodeID, h Handler) {
	if id == None {
		panic("simnet: cannot attach node 0")
	}
	n.nodes[id] = h
}

// Nodes returns the attached node IDs in ascending order.
func (n *Network) Nodes() []NodeID {
	ids := make([]NodeID, 0, len(n.nodes))
	for id := range n.nodes {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// SetDown marks a node as crashed (fail-stop) or recovered. Messages to and
// from a down node are dropped. In-flight messages already scheduled for
// delivery are dropped at delivery time if the destination is still down.
func (n *Network) SetDown(id NodeID, down bool) {
	if down {
		n.down[id] = true
	} else {
		delete(n.down, id)
	}
}

// Down reports whether a node is currently crashed.
func (n *Network) Down(id NodeID) bool { return n.down[id] }

// Partition splits the network into groups; nodes in different groups cannot
// exchange messages. Nodes not mentioned stay in group 0.
func (n *Network) Partition(groups ...[]NodeID) {
	n.group = make(map[NodeID]int)
	for gi, g := range groups {
		for _, id := range g {
			n.group[id] = gi + 1
		}
	}
}

// Heal removes all partitions.
func (n *Network) Heal() { n.group = make(map[NodeID]int) }

// SetFaults attaches (or, with nil, detaches) a fault model. With no model
// attached the network is the paper's reliable channel: a message between
// two live, connected nodes is never lost.
func (n *Network) SetFaults(f *FaultModel) { n.faults = f }

// Faults returns the attached fault model, if any.
func (n *Network) Faults() *FaultModel { return n.faults }

// Reachable reports whether a message from one node can currently reach the
// other (both up, same partition group).
func (n *Network) Reachable(from, to NodeID) bool {
	if n.down[from] || n.down[to] {
		return false
	}
	return n.group[from] == n.group[to]
}

// Cost returns the travel cost between two nodes per the topology. The cost
// drives the agents' Un-visited Servers List ordering (paper §3.2: each
// server maintains a routing table with the cost of transferring an agent to
// every other server).
func (n *Network) Cost(from, to NodeID) float64 { return n.topo.Cost(from, to) }

// Send transmits msg. Delivery is scheduled after a latency drawn from the
// network's latency model. If the destination is unreachable now, or is down
// when the message would arrive, the message is dropped.
func (n *Network) Send(msg Message) {
	if msg.From == None || msg.To == None {
		panic(fmt.Sprintf("simnet: message with unset endpoints %+v", msg))
	}
	n.stats.CountSent(msg)
	if !n.Reachable(msg.From, msg.To) {
		n.stats.MessagesDropped++
		return
	}
	if n.faults != nil {
		if n.faults.drop(time.Duration(n.sim.Now()), msg.From, msg.To) {
			n.stats.MessagesLost++
			return
		}
		if n.faults.duplicate() {
			n.stats.MessagesDuplicated++
			n.schedule(msg)
		}
	}
	n.schedule(msg)
}

// schedule queues one delivery of msg after a freshly drawn latency.
func (n *Network) schedule(msg Message) {
	d := n.latency.Sample(n, msg)
	if d < 0 {
		d = 0
	}
	n.sim.After(d, func() { n.deliver(msg) })
}

func (n *Network) deliver(msg Message) {
	// The message was in flight; re-check the destination at arrival time.
	if n.down[msg.To] || n.group[msg.From] != n.group[msg.To] {
		n.stats.MessagesDropped++
		return
	}
	h, ok := n.nodes[msg.To]
	if !ok {
		n.stats.MessagesDropped++
		return
	}
	n.stats.MessagesDelivered++
	h.Deliver(msg)
}

// NetStats implements the runtime.StatsSource capability.
func (n *Network) NetStats() runtime.NetStats { return n.Stats() }

// SetExtraLoss implements the runtime.LossController capability by routing
// to the attached fault model; without one the call is a no-op (the paper's
// reliable channels stay reliable).
func (n *Network) SetExtraLoss(p float64) {
	if n.faults != nil {
		n.faults.SetExtraLoss(p)
	}
}

// Stats returns a copy of the traffic counters.
func (n *Network) Stats() Stats { return n.stats.Clone() }

// ResetStats zeroes the traffic counters (used between benchmark phases).
func (n *Network) ResetStats() { n.stats = Stats{} }
