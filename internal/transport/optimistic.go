package transport

// The optimistic protocol behind the same wire surface. One Server fronts
// either protocol — the op vocabulary is shared where the semantics match
// (submit, read, partition, heal, stats, scenario) and
// kind-tagged where they cannot (digest, referee): an optimistic digest has
// two tiers, a stable prefix that converges and a tentative overlay that
// legitimately diverges, so responses carry Kind and consumers must never
// compare digests of different kinds.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/runtime/live"
	"repro/internal/scenario"
	"repro/internal/store"
	"time"
)

// Referee kinds: what a referee response's wins/violations count. The
// pessimistic referee audits lock grants; the optimistic one audits
// stable-prefix agreement across the replicas the process hosts.
const (
	RefereeKindGrants = "grants"
)

// OptGeometry is the geometry string an optimistic deployment reports in
// scenario bodies: the protocol is quorum-less, so none of the quorum
// geometries apply.
const OptGeometry = "optimistic"

// ServeLiveOptimistic starts one live optimistic replica process on addr:
// tentative commits happen at local latency, and reconciliation agents
// migrate between the processes over TCP (cfg.Addrs).
func ServeLiveOptimistic(addr string, cfg live.OptNodeConfig) (*Server, error) {
	node, err := live.StartOptNode(cfg)
	if err != nil {
		return nil, err
	}
	return serve(addr, nil, node.Cluster, node.Eng, node.Close)
}

// applyOpt is apply for an optimistic deployment.
func (s *Server) applyOpt(req Request) Response {
	switch req.Op {
	case "submit":
		if req.Append {
			return Response{Error: "optimistic: append is not supported (reconciliation re-executes blind writes only; use a CAS guard for read-modify-write)"}
		}
		txn, err := s.opt.SubmitCAS(runtime.NodeID(req.Home), req.Key, req.Value, req.Guard)
		if err != nil {
			return Response{Error: err.Error()}
		}
		if rec := s.recorder(); rec != nil {
			_ = rec.Record(scenario.Event{
				Kind: scenario.KindSubmit, Home: req.Home,
				Key: req.Key, Value: req.Value,
			})
		}
		return Response{OK: true, Txn: txn}
	case "read":
		v, ok, err := s.opt.Read(runtime.NodeID(req.Node), req.Key, req.Tentative)
		if err != nil {
			return Response{Error: err.Error()}
		}
		return Response{OK: true, Found: ok, Value: v.Data, Seq: v.Version.Seq}
	case "partition":
		groups, err := partitionGroups(req.Groups, s.opt.N())
		if err != nil {
			return Response{Error: err.Error()}
		}
		s.opt.PartitionNet(groups...)
		return Response{OK: true}
	case "heal":
		s.opt.HealNet()
		return Response{OK: true}
	case "digest":
		return s.optDigest(runtime.NodeID(req.Node))
	case "referee":
		return s.optReferee()
	case "stats":
		return s.optStats()
	case "scenario":
		return s.optScenarioBody()
	default:
		return Response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// optDigest builds the two-tier digest response for one hosted replica.
// The stable tier's whole digest is ORDER-DEPENDENT (invariant 15 pins the
// prefix order, so two converged replicas agree on it exactly); the
// tentative tier's is order-independent, matching its weaker promise —
// overlays at two replicas agree on membership only after gossip quiesces,
// never on arrival order. Value/Seq repeat the stable tier, the one that
// converges.
func (s *Server) optDigest(node runtime.NodeID) Response {
	hosted := false
	for _, id := range s.opt.LocalNodes() {
		if id == node {
			hosted = true
		}
	}
	if !hosted {
		return Response{Error: fmt.Sprintf("node %d is not hosted here", node)}
	}
	if s.opt.Down(node) {
		return Response{Error: fmt.Sprintf("node %d is down", node)}
	}
	stableDigest, stableN, err := s.opt.StableDigest(node)
	if err != nil {
		return Response{Error: err.Error()}
	}
	var stableLog, overlay []store.Update
	shards := make([]ShardDigest, 0, s.opt.Shards())
	for sh := 0; sh < s.opt.Shards(); sh++ {
		slog, err := s.opt.StableLog(node, sh)
		if err != nil {
			return Response{Error: err.Error()}
		}
		ov, err := s.opt.Overlay(node, sh)
		if err != nil {
			return Response{Error: err.Error()}
		}
		stableLog = append(stableLog, slog...)
		overlay = append(overlay, ov...)
		d, n := digestLog(slog)
		shards = append(shards, ShardDigest{Shard: sh, Digest: d, Commits: n})
	}
	tentDigest, _ := digestLog(overlay)
	resp := Response{
		OK:   true,
		Kind: DigestKindStablePrefix,
		Stable: &TierDigest{
			Digest:  stableDigest,
			Entries: stableN,
			Keys:    scenario.KeyDigests(stableLog),
		},
		Tentative: &TierDigest{
			Digest:  tentDigest,
			Entries: len(overlay),
			Keys:    scenario.KeyDigests(overlay),
		},
		Value:      stableDigest,
		Seq:        uint64(stableN),
		QueueDrops: int(s.opt.Metrics().Value("marp.fabric.queue_drops")),
	}
	if s.opt.Shards() > 1 {
		resp.Shards = shards
	}
	return resp
}

// optReferee audits the optimistic protocol's analogue of the lock
// referee's single-claimant rule: every up replica this process hosts must
// hold the identical stable prefix. Wins counts the elections decided at
// the digest vantage (stable promotions plus aborts — both are verdicts);
// one violation is reported when hosted replicas diverge.
func (s *Server) optReferee() Response {
	resp := Response{OK: true, Kind: DigestKindStablePrefix}
	for _, id := range s.opt.LocalNodes() {
		if s.opt.Down(id) {
			continue
		}
		_, n, err := s.opt.StableDigest(id)
		if err != nil {
			return Response{Error: err.Error()}
		}
		resp.Wins = n
		break
	}
	if err := s.opt.CheckConvergence(); err != nil {
		resp.Violations = 1
	}
	return resp
}

func (s *Server) optStats() Response {
	snap := s.opt.Metrics().Gather()
	stable, aborted, pending := s.opt.OutcomeCounts()
	return Response{OK: true, Stats: &StatsBody{
		Servers:     s.opt.N(),
		Outstanding: pending,
		Committed:   stable,
		Failed:      aborted,
		Messages:    int(snap.Value("marp.fabric.messages_sent")),
		Bytes:       int(snap.Value("marp.fabric.bytes_sent")),
		Migrations:  int(snap.Value("marp.opt.gossip_hops")),
		VirtualMs:   time.Duration(s.opt.Now()).Milliseconds(),
	}}
}

// optScenarioBody is scenarioBody for an optimistic deployment: the
// per-key digests cover the STABLE tier only and the body says so
// (DigestKind), so a snapshot consumer can refuse to mix them with
// commit-set digests. Still-tentative submissions count as outstanding —
// like the pessimistic body, a clean capture is one where everything the
// clients were told about has reached its final state.
func (s *Server) optScenarioBody() Response {
	body := &ScenarioBody{
		Servers:    s.opt.N(),
		Shards:     s.opt.Shards(),
		Geometry:   OptGeometry,
		DigestKind: DigestKindStablePrefix,
	}
	body.Commits, body.Failed, body.Outstanding = s.opt.OutcomeCounts()
	var refNode runtime.NodeID
	for _, id := range s.opt.LocalNodes() {
		if s.opt.Down(id) {
			continue
		}
		var all []store.Update
		for sh := 0; sh < s.opt.Shards(); sh++ {
			slog, err := s.opt.StableLog(id, sh)
			if err != nil {
				return Response{Error: err.Error()}
			}
			all = append(all, slog...)
		}
		keys := scenario.KeyDigests(all)
		if body.Keys == nil {
			body.Keys, refNode = keys, id
			continue
		}
		if diffs := scenario.DiffDigests(body.Keys, keys); len(diffs) > 0 {
			return Response{Error: fmt.Sprintf(
				"replicas %d and %d disagree on the stable prefix (%s); not converged, snapshot refused",
				refNode, id, diffs[0])}
		}
	}
	if body.Keys == nil {
		return Response{Error: "no live replica hosted here"}
	}
	return Response{OK: true, Scenario: body}
}

// optHealth synthesizes the /healthz body for an optimistic deployment.
// There is no quorum to reach: a replica serves tentative commits alone,
// so the process is healthy exactly when it hosts an up replica.
func (s *Server) optHealth() core.Health {
	h := core.Health{Vantage: runtime.None}
	for _, id := range s.opt.LocalNodes() {
		if !s.opt.Down(id) {
			h.Vantage = id
			h.QuorumOK = true
			break
		}
	}
	return h
}

// --- client surface -------------------------------------------------------

// SubmitCAS submits an optimistic CAS write and returns the assigned
// transaction ID (guard semantics: optimistic.SubmitCAS). Plain optimistic
// submits go through Submit with an empty guard — the server routes by its
// protocol, not by the request shape.
func (c *Client) SubmitCAS(home int, key, value, guard string) (string, error) {
	resp, err := c.roundTrip(Request{Op: "submit", Home: home, Key: key, Value: value, Guard: guard})
	if err != nil {
		return "", err
	}
	return resp.Txn, nil
}

// ReadTentative reads a key's tentative (overlay last-writer) value at an
// optimistic replica.
func (c *Client) ReadTentative(node int, key string) (value string, found bool, err error) {
	resp, err := c.roundTrip(Request{Op: "read", Node: node, Key: key, Tentative: true})
	if err != nil {
		return "", false, err
	}
	return resp.Value, resp.Found, nil
}

// DigestReport fetches the full kind-tagged digest response: Kind plus, on
// an optimistic service, both tiers with their per-key digests. Callers
// comparing digests across processes must compare Kind first.
func (c *Client) DigestReport(node int) (Response, error) {
	return c.roundTrip(Request{Op: "digest", Node: node})
}

// RefereeReport fetches the kind-tagged referee verdict: on MARP the
// process-local count of update permissions granted (Wins) and of
// single-claimant violations observed.
func (c *Client) RefereeReport() (Response, error) {
	return c.roundTrip(Request{Op: "referee"})
}
