// Package transport exposes a live replica as a network service: a TCP
// server speaking a line-delimited JSON protocol (one request object per
// line, one response object per line), plus the matching client. A request
// line longer than 1 MiB is refused and its connection closed.
//
// The replication protocol runs on the live engine (internal/runtime/live):
// one process hosts one replica, and the transport layer carries client
// traffic only — replica-to-replica traffic, mobile agents included, rides
// the live fabric.
//
// Wire protocol (JSON per line):
//
//	-> {"op":"submit","home":1,"key":"k","value":"v","append":false}
//	<- {"ok":true}
//	-> {"op":"read","node":2,"key":"k"}
//	<- {"ok":true,"value":"v","seq":3,"found":true}
//	-> {"op":"stats"}
//	<- {"ok":true,"stats":{...}}
//	-> {"op":"partition","groups":[[1,2],[3]]} / {"op":"heal"}
//	<- {"ok":true}
//	-> {"op":"scenario"}
//	<- {"ok":true,"scenario":{...}}
//
// partition/heal drive the process's own fabric only — a cluster is split
// by sending the same partition to every process (marpctl fans out). There
// is no crash op: a process cannot fail-stop itself on request and come
// back, so a crash is a kill -9 and a recovery is a restart (an unknown op
// is an error).
// scenario reports the cluster shape plus the per-key commit digests that
// seed an incident bundle's footer (marpctl snapshot-scenario).
package transport

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/optimistic"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
	"repro/internal/scenario"
	"repro/internal/store"
)

// maxRequestLine bounds one client request line, newline included. A longer
// line is refused with an error response and the connection is closed, so a
// client can never make a node buffer, or hand the fabric, an arbitrarily
// large request.
const maxRequestLine = 1 << 20

// ErrStopped is returned by a request that reaches the server after its
// engine has shut down.
var ErrStopped = errors.New("transport: engine stopped")

// GatherMetrics samples the cluster's metric registry on the engine's
// execution context — the scrape path behind the ops listener's /metrics.
// The registry's read-through collectors touch engine-owned state, so the
// marshalling here is what makes concurrent scrapes race-free.
func (s *Server) GatherMetrics() (metrics.Snapshot, *metrics.Registry, error) {
	var snap metrics.Snapshot
	reg := s.registry()
	err := s.exec(func() { snap = reg.Gather() })
	if err != nil {
		return nil, nil, err
	}
	return snap, reg, nil
}

func (s *Server) registry() *metrics.Registry {
	if s.opt != nil {
		return s.opt.Metrics()
	}
	return s.cluster.Metrics()
}

// Health computes the cluster's quorum-reachability summary on the
// engine's execution context — the /healthz body. An optimistic cluster
// has no quorums to lose: it is healthy exactly when a locally hosted
// replica is up (tentative commits need only the local node).
func (s *Server) Health() (core.Health, error) {
	var h core.Health
	err := s.exec(func() {
		if s.opt != nil {
			h = s.optHealth()
			return
		}
		h = s.cluster.Health()
	})
	return h, err
}

// Request is one client command.
type Request struct {
	Op     string `json:"op"`
	Home   int    `json:"home,omitempty"`
	Node   int    `json:"node,omitempty"`
	Key    string `json:"key,omitempty"`
	Value  string `json:"value,omitempty"`
	Append bool   `json:"append,omitempty"`
	// Groups carries a partition op's node groups (unlisted nodes form
	// group 0).
	Groups [][]int `json:"groups,omitempty"`
	// Tentative asks an optimistic read for the overlay's last writer
	// instead of the stable value.
	Tentative bool `json:"tentative,omitempty"`
	// Guard attaches a CAS guard to an optimistic submit (see
	// optimistic.SubmitCAS).
	Guard string `json:"guard,omitempty"`
}

// StatsBody is the payload of a stats response.
type StatsBody struct {
	Servers     int   `json:"servers"`
	Outstanding int   `json:"outstanding"`
	Committed   int   `json:"committed"`
	Failed      int   `json:"failed"`
	Messages    int   `json:"messages"`
	Bytes       int   `json:"bytes"`
	Migrations  int   `json:"migrations"`
	VirtualMs   int64 `json:"virtual_ms"`
}

// ShardDigest is one shard's slice of a digest response: the shard's own
// commit-set digest plus the per-shard ALT/ATT/PRK aggregation of the
// outcomes recorded at the addressed process (internal/metrics.ShardSummary,
// flattened for the wire).
type ShardDigest struct {
	Shard      int     `json:"shard"`
	Digest     string  `json:"digest"`
	Commits    int     `json:"commits"`
	Requests   int     `json:"requests"`
	MeanALTMs  float64 `json:"mean_alt_ms"`
	MeanATTMs  float64 `json:"mean_att_ms"`
	MeanVisits float64 `json:"mean_visits"`
}

// ScenarioBody is the payload of a scenario response: the cluster shape a
// bundle header records, plus the snapshot state a bundle footer records —
// per-key commit digests (scenario.KeyDigests) and request counts. Commits
// and Failed count client requests (not agents), summed over the outcomes
// the addressed process recorded, so the numbers add across processes and
// are batching-independent.
type ScenarioBody struct {
	Servers       int    `json:"servers"`
	Shards        int    `json:"shards"`
	Geometry      string `json:"geometry"`
	Fsync         string `json:"fsync,omitempty"`
	CommitDelayUS int64  `json:"commit_delay_us,omitempty"`
	Outstanding   int    `json:"outstanding"`
	Commits       int    `json:"commits"`
	Failed        int    `json:"failed"`
	// DigestKind names what Keys digests: DigestKindCommitSet (MARP; also
	// every body that omits the field, from before the optimistic protocol
	// existed) or DigestKindStablePrefix (optimistic; tentative state is
	// deliberately excluded — it legitimately diverges). Consumers that
	// compare Keys across processes must compare kinds first.
	DigestKind string            `json:"digest_kind,omitempty"`
	Keys       map[string]string `json:"keys"`
}

// Digest kinds. A digest is only comparable to another of the same kind:
// a MARP commit-set digest and an optimistic stable-prefix digest of the
// same workload differ by construction.
const (
	DigestKindCommitSet    = "commit-set"
	DigestKindStablePrefix = "stable-prefix"
)

// TierDigest is one tier of an optimistic replica's state in a digest
// response: the tier's whole digest, its entry count, and the per-key
// digests (scenario.KeyDigests).
type TierDigest struct {
	Digest  string            `json:"digest"`
	Entries int               `json:"entries"`
	Keys    map[string]string `json:"keys,omitempty"`
}

// Response is one server reply.
type Response struct {
	OK         bool          `json:"ok"`
	Error      string        `json:"error,omitempty"`
	Found      bool          `json:"found,omitempty"`
	Value      string        `json:"value,omitempty"`
	Seq        uint64        `json:"seq,omitempty"`
	Stats      *StatsBody    `json:"stats,omitempty"`
	Wins       int           `json:"wins,omitempty"`
	Violations int           `json:"violations,omitempty"`
	Shards     []ShardDigest `json:"shards,omitempty"`
	// QueueDrops counts messages the live fabric dropped because a
	// per-peer writer queue was full (digest responses; health signal for
	// a digest mismatch investigation).
	QueueDrops int           `json:"queue_drops,omitempty"`
	Scenario   *ScenarioBody `json:"scenario,omitempty"`
	// Txn is an optimistic submit's assigned transaction ID.
	Txn string `json:"txn,omitempty"`
	// Kind labels what a digest or referee response reports — see the
	// DigestKind constants. Empty means DigestKindCommitSet (pre-optimistic
	// servers never set it).
	Kind string `json:"kind,omitempty"`
	// Stable and Tentative are an optimistic digest response's two tiers.
	// Value and Seq repeat the stable tier's digest and entry count: the
	// whole-replica fields always carry the tier that converges.
	Stable    *TierDigest `json:"stable,omitempty"`
	Tentative *TierDigest `json:"tentative,omitempty"`
}

// Server serves this process's single replica over TCP; the rest of the
// cluster lives in sibling processes.
type Server struct {
	cluster  *core.Cluster       // MARP deployments; nil when opt is set
	opt      *optimistic.Cluster // optimistic deployments; nil when cluster is set
	eng      *live.Engine
	teardown func()
	listener net.Listener

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	rec   *scenario.Recorder
	done  chan struct{}
}

// SetRecorder attaches an incident recorder: every accepted submit is
// appended to it as a scenario event (`marpd -record`). Faults are NOT
// recorded here — the injector records them (marpctl -record), exactly
// once for the whole cluster, which also covers faults no process could
// log for itself (kill -9).
func (s *Server) SetRecorder(rec *scenario.Recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rec = rec
}

func (s *Server) recorder() *scenario.Recorder {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec
}

// ServeLive starts one live replica process on addr (e.g. "127.0.0.1:7707";
// use port 0 for an ephemeral port): the protocol runs on the wall clock and
// exchanges replica-to-replica traffic — mobile agents included — with its
// peers over TCP (cfg.Addrs).
func ServeLive(addr string, cfg live.NodeConfig) (*Server, error) {
	node, err := live.StartNode(cfg)
	if err != nil {
		return nil, err
	}
	return serve(addr, node.Cluster, nil, node.Eng, node.Close)
}

// serve wires the listener over an already running node, and tears the node
// down if the listener cannot be had.
func serve(addr string, cluster *core.Cluster, opt *optimistic.Cluster, eng *live.Engine, teardown func()) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		teardown()
		return nil, err
	}
	s := &Server{
		cluster:  cluster,
		opt:      opt,
		eng:      eng,
		teardown: teardown,
		listener: ln,
		conns:    make(map[net.Conn]struct{}),
		done:     make(chan struct{}),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.listener.Addr().String() }

// Close stops accepting, closes live connections, and stops the driver.
func (s *Server) Close() {
	select {
	case <-s.done:
		return
	default:
		close(s.done)
	}
	s.listener.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.teardown()
}

func (s *Server) acceptLoop() {
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	lines := bufio.NewScanner(conn)
	lines.Buffer(nil, maxRequestLine)
	enc := json.NewEncoder(conn)
	for lines.Scan() {
		if len(bytes.TrimSpace(lines.Bytes())) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(lines.Bytes(), &req); err != nil {
			return
		}
		if err := enc.Encode(s.handle(req)); err != nil {
			return
		}
	}
	if errors.Is(lines.Err(), bufio.ErrTooLong) {
		// The rest of the line is never read, so the stream cannot resume:
		// answer once, then close (a failed answer changes nothing).
		_ = enc.Encode(Response{Error: fmt.Sprintf("request line exceeds %d bytes", maxRequestLine)})
	}
}

// exec runs fn on the engine's execution context.
func (s *Server) exec(fn func()) error {
	if !s.eng.Do(fn) {
		return ErrStopped
	}
	return nil
}

// handle executes one request on the engine's execution context.
func (s *Server) handle(req Request) Response {
	var resp Response
	err := s.exec(func() {
		resp = s.apply(req)
	})
	if err != nil {
		return Response{Error: err.Error()}
	}
	return resp
}

// partitionGroups converts a partition op's groups for a cluster of n
// replicas. It refuses a node outside 1..n or one named twice — the rule a
// recorded partition event must also pass — rather than let the fabric
// split the cluster some way the operator never stated.
func partitionGroups(in [][]int, n int) ([][]runtime.NodeID, error) {
	seen := make(map[int]bool)
	groups := make([][]runtime.NodeID, len(in))
	for i, g := range in {
		groups[i] = make([]runtime.NodeID, len(g))
		for j, id := range g {
			if id < 1 || id > n {
				return nil, fmt.Errorf("partition names unknown node %d (want 1..%d)", id, n)
			}
			if seen[id] {
				return nil, fmt.Errorf("partition names node %d twice", id)
			}
			seen[id] = true
			groups[i][j] = runtime.NodeID(id)
		}
	}
	return groups, nil
}

func (s *Server) apply(req Request) Response {
	if s.opt != nil {
		return s.applyOpt(req)
	}
	switch req.Op {
	case "submit":
		if req.Guard != "" {
			// Refused rather than ignored: a silently dropped guard would
			// turn an intended CAS into an unconditional overwrite.
			return Response{Error: "guard requires an optimistic service (protocol = \"optimistic\" in the cluster spec); MARP has no CAS submit"}
		}
		r := core.Set(req.Key, req.Value)
		if req.Append {
			r = core.Append(req.Key, req.Value)
		}
		if err := s.cluster.Submit(runtime.NodeID(req.Home), r); err != nil {
			return Response{Error: err.Error()}
		}
		if rec := s.recorder(); rec != nil {
			_ = rec.Record(scenario.Event{
				Kind: scenario.KindSubmit, Home: req.Home,
				Key: req.Key, Value: req.Value, Append: req.Append,
			})
		}
		return Response{OK: true}
	case "read":
		v, ok := s.cluster.Read(runtime.NodeID(req.Node), req.Key)
		return Response{OK: true, Found: ok, Value: v.Data, Seq: v.Version.Seq}
	case "partition":
		groups, err := partitionGroups(req.Groups, len(s.cluster.Nodes()))
		if err != nil {
			return Response{Error: err.Error()}
		}
		s.cluster.PartitionNet(groups...)
		return Response{OK: true}
	case "heal":
		s.cluster.HealNet()
		return Response{OK: true}
	case "scenario":
		return s.scenarioBody()
	case "digest":
		srv := s.cluster.Server(runtime.NodeID(req.Node))
		if srv == nil {
			return Response{Error: fmt.Sprintf("node %d is not hosted here", req.Node)}
		}
		// Whole-replica digest spans every shard the node serves; digestLog
		// is order-independent, so shard concatenation order cannot matter.
		var all []store.Update
		for sh := 0; sh < srv.Shards(); sh++ {
			all = append(all, srv.StoreOf(sh).Log()...)
		}
		d, n := digestLog(all)
		// The queue-drop count reads through the registry's stable name —
		// the same number a /metrics scrape exports.
		drops := int(s.cluster.Metrics().Value("marp.fabric.queue_drops"))
		resp := Response{OK: true, Kind: DigestKindCommitSet, Value: d, Seq: uint64(n), QueueDrops: drops}
		if srv.Shards() > 1 {
			resp.Shards = s.shardDigests(srv)
		}
		return resp
	case "referee":
		ref := s.cluster.Referee()
		return Response{OK: true, Kind: RefereeKindGrants, Wins: ref.Wins(), Violations: len(ref.Violations())}
	case "stats":
		// Counters read through the metric registry's stable names (the
		// same values /metrics exports); committed/failed keep their
		// historical per-agent granularity rather than the registry's
		// per-request one.
		snap := s.cluster.Metrics().Gather()
		counts := s.cluster.OutcomeCounts()
		return Response{OK: true, Stats: &StatsBody{
			Servers:     len(s.cluster.Nodes()),
			Outstanding: int(snap.Value("marp.replica.outstanding")),
			Committed:   counts.Committed,
			Failed:      counts.Failed,
			Messages:    int(snap.Value("marp.fabric.messages_sent")),
			Bytes:       int(snap.Value("marp.fabric.bytes_sent")),
			Migrations:  int(snap.Value("marp.agent.migrations_completed")),
			VirtualMs:   s.cluster.Now().Duration().Milliseconds(),
		}}
	default:
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// scenarioBody snapshots what an incident bundle needs from this process:
// the cluster shape for the header, and the per-key commit digests plus
// request counts for the footer. Every up replica this process hosts must
// already agree on the digests — disagreement means the cluster has not
// converged and the snapshot is refused.
func (s *Server) scenarioBody() Response {
	shape, counts := s.cluster.Describe(), s.cluster.OutcomeCounts()
	body := &ScenarioBody{
		Servers:       shape.N,
		Shards:        shape.Shards,
		Geometry:      string(shape.Geometry),
		Fsync:         shape.Fsync,
		CommitDelayUS: shape.GroupCommitDelay.Microseconds(),
		Outstanding:   s.cluster.Outstanding(),
		Commits:       counts.CommittedRequests,
		Failed:        counts.FailedRequests,
		DigestKind:    DigestKindCommitSet,
	}
	var refNode runtime.NodeID
	for _, id := range s.cluster.Nodes() {
		srv := s.cluster.Server(id)
		if srv == nil || srv.Down() {
			continue
		}
		var all []store.Update
		for sh := 0; sh < srv.Shards(); sh++ {
			all = append(all, srv.StoreOf(sh).Log()...)
		}
		keys := scenario.KeyDigests(all)
		if body.Keys == nil {
			body.Keys, refNode = keys, id
			continue
		}
		if diffs := scenario.DiffDigests(body.Keys, keys); len(diffs) > 0 {
			return Response{Error: fmt.Sprintf(
				"replicas %d and %d disagree (%s); not converged, snapshot refused",
				refNode, id, diffs[0])}
		}
	}
	if body.Keys == nil {
		return Response{Error: "no live replica hosted here"}
	}
	return Response{OK: true, Scenario: body}
}

// shardDigests builds the per-shard digest rows: each shard's commit-set
// digest plus the shard-labelled latency aggregation of the outcomes this
// process recorded.
func (s *Server) shardDigests(srv interface {
	Shards() int
	StoreOf(int) *store.Store
}) []ShardDigest {
	var samples []metrics.Sample
	for _, o := range s.cluster.Outcomes() {
		samples = append(samples, metrics.Sample{
			ALT:    o.LockLatency().Duration(),
			ATT:    o.TotalLatency().Duration(),
			Visits: o.Visits,
			Failed: o.Failed,
			Shards: o.Shards,
		})
	}
	sum := metrics.Summarize(samples)
	out := make([]ShardDigest, srv.Shards())
	for sh := range out {
		d, n := digestLog(srv.StoreOf(sh).Log())
		row := ShardDigest{Shard: sh, Digest: d, Commits: n}
		if ss, ok := sum.ByShard[sh]; ok {
			row.Requests = ss.Count
			row.MeanALTMs = float64(ss.MeanALT) / float64(time.Millisecond)
			row.MeanATTMs = float64(ss.MeanATT) / float64(time.Millisecond)
			visits, cnt := 0, 0
			for k, c := range ss.VisitDist {
				visits += k * c
				cnt += c
			}
			if cnt > 0 {
				row.MeanVisits = float64(visits) / float64(cnt)
			}
		}
		out[sh] = row
	}
	return out
}

// Client is a TCP client for a transport.Server.
type Client struct {
	conn    net.Conn
	dec     *json.Decoder
	enc     *json.Encoder
	mu      sync.Mutex
	timeout time.Duration
}

// Dial connects to a MARP service.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Client{
		conn: conn,
		dec:  json.NewDecoder(bufio.NewReader(conn)),
		enc:  json.NewEncoder(conn),
	}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// SetRequestTimeout bounds every subsequent request/response exchange with a
// connection deadline; zero (the default) leaves requests unbounded. A
// request that misses the deadline fails with a net timeout error and leaves
// the stream in an undefined position, so callers should redial after one.
func (c *Client) SetRequestTimeout(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timeout = d
}

// roundTrip sends one request and reads one response. Clients may be used
// from multiple goroutines.
func (c *Client) roundTrip(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.timeout)); err != nil {
			return Response{}, err
		}
		defer c.conn.SetDeadline(time.Time{})
	}
	if err := c.enc.Encode(req); err != nil {
		return Response{}, err
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return Response{}, err
	}
	if resp.Error != "" {
		return resp, fmt.Errorf("transport: %s", resp.Error)
	}
	return resp, nil
}

// Submit sends an update request to the given home server.
func (c *Client) Submit(home int, key, value string, appendOp bool) error {
	_, err := c.roundTrip(Request{Op: "submit", Home: home, Key: key, Value: value, Append: appendOp})
	return err
}

// Read reads a key from a replica's local copy.
func (c *Client) Read(node int, key string) (value string, seq uint64, found bool, err error) {
	resp, err := c.roundTrip(Request{Op: "read", Node: node, Key: key})
	if err != nil {
		return "", 0, false, err
	}
	return resp.Value, resp.Seq, resp.Found, nil
}

// Partition splits the addressed process's fabric into the given node
// groups; a cluster needs the same call at every process.
func (c *Client) Partition(groups [][]int) error {
	_, err := c.roundTrip(Request{Op: "partition", Groups: groups})
	return err
}

// Heal removes all partitions at the addressed process and triggers an
// anti-entropy round on its local replicas.
func (c *Client) Heal() error {
	_, err := c.roundTrip(Request{Op: "heal"})
	return err
}

// Scenario fetches the process's incident-bundle snapshot: cluster shape,
// per-key commit digests, and request counts.
func (c *Client) Scenario() (*ScenarioBody, error) {
	resp, err := c.roundTrip(Request{Op: "scenario"})
	if err != nil {
		return nil, err
	}
	if resp.Scenario == nil {
		return nil, fmt.Errorf("transport: empty scenario body")
	}
	return resp.Scenario, nil
}

// Stats fetches service counters.
func (c *Client) Stats() (StatsBody, error) {
	resp, err := c.roundTrip(Request{Op: "stats"})
	if err != nil {
		return StatsBody{}, err
	}
	if resp.Stats == nil {
		return StatsBody{}, fmt.Errorf("transport: empty stats")
	}
	return *resp.Stats, nil
}

// digestLog folds a replica's committed-update log into an order-independent
// digest of the commit set: entries are sorted by (key, txn, data) and the
// engine-dependent fields (local commit sequence, wall stamp) are excluded.
// Two replicas — or the same workload on two engines — that committed the
// same writes produce the same digest even when commit order differed, which
// MARP permits for independent keys (agents for disjoint keys serialize per
// key, not globally).
func digestLog(log []store.Update) (string, int) {
	entries := make([]string, len(log))
	for i, u := range log {
		entries[i] = u.Key + "\x00" + u.TxnID + "\x00" + u.Data
	}
	sort.Strings(entries)
	h := fnv.New64a()
	for _, e := range entries {
		h.Write([]byte(e))
		h.Write([]byte{0xff})
	}
	return fmt.Sprintf("%016x", h.Sum64()), len(entries)
}
