// Command marpctl is the client for a marpd service.
//
// Usage:
//
//	marpctl [-addr host:port] [-timeout 5s] [-guard expected] submit <home> <key> <value>
//	marpctl [-addr host:port] append <home> <key> <value>
//	marpctl [-addr host:port] read <node> <key>
//	marpctl [-addrs a,b,c] partition <groups>   (e.g. "1,2/3")
//	marpctl [-addrs a,b,c] heal
//	marpctl [-addr host:port] [-json] digest <node>
//	marpctl [-addr host:port] [-json] referee
//	marpctl [-addr host:port] stats
//
// Connecting retries up to three times with exponential backoff (covers the
// common race of starting marpd and marpctl together); -timeout bounds each
// request/response exchange once connected (0 disables the deadline).
// -json switches digest and referee output to one JSON object per line,
// for scripts (the CI restart-smoke gate parses it).
//
// partition and heal fan out to every address in -addrs (default: just
// -addr): a live cluster's fabric filters at the endpoints, so each process
// must be told about the split. The sweep visits every address even when
// one is down, then exits non-zero naming each process that missed the
// command. Incident recording rides along; a crash is a kill -9 of the
// replica's process (there is no crash command), recorded out of band:
//
//	marpctl -record <dir> -addrs a,b,c partition 1,2/3   # inject AND record the fault
//	marpctl -record <dir> record-fault crash 3           # record only (kill -9 etc.)
//	marpctl -record <dir> -addrs a,b,c snapshot-scenario -name my-incident -out my.jsonl
//
// snapshot-scenario queries every process, refuses unclean captures (failed
// or outstanding requests, diverged digests — exit 1), merges the spool
// files marpd -record and marpctl -record wrote, and writes one replayable
// bundle (replay it with `marpbench -exp replay -scenario <file>`).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/scenario"
	"repro/internal/transport"
)

// dialRetry connects to addr, retrying with exponential backoff (100ms,
// 200ms) between attempts so a service still binding its socket is not a
// fatal error.
func dialRetry(addr string, attempts int) (*transport.Client, error) {
	backoff := 100 * time.Millisecond
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		var cli *transport.Client
		if cli, err = transport.Dial(addr); err == nil {
			return cli, nil
		}
	}
	return nil, fmt.Errorf("%v (after %d attempts)", err, attempts)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: marpctl [-addr host:port] <command> [args]
commands:
  submit <home> <key> <value>   update key from server <home> (-guard <expected> for optimistic CAS)
  append <home> <key> <value>   read-modify-write append
  read <node> <key>             read the local copy at server <node>
  partition <groups>            split the network, e.g. "1,2/3" (all -addrs)
  heal                          remove all partitions, trigger anti-entropy (all -addrs)
  record-fault <kind> [args]    record a fault event without injecting it; to crash a
                                server, kill -9 its marpd and "record-fault crash <node>"
  snapshot-scenario             finalize a recorded incident into a bundle
  digest <node>                 kind-tagged digest of a replica's store (optimistic: stable + tentative tiers)
  referee                       kind-tagged verdict: lock grants/violations, or stable-prefix agreement
  stats                         service counters
flags: -addr host:port, -addrs a,b,c (partition/heal/snapshot-scenario),
       -timeout 5s, -json (digest/referee), -record <dir> (fault spooling),
       -name/-note/-seed/-out (snapshot-scenario)`)
	os.Exit(2)
}

// parseGroups turns "1,2/3" into partition groups [[1 2] [3]].
func parseGroups(spec string) ([][]int, error) {
	var groups [][]int
	for _, part := range strings.Split(spec, "/") {
		var g []int
		for _, s := range strings.Split(part, ",") {
			s = strings.TrimSpace(s)
			if s == "" {
				continue
			}
			n, err := strconv.Atoi(s)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("bad node id %q in groups %q", s, spec)
			}
			g = append(g, n)
		}
		if len(g) > 0 {
			groups = append(groups, g)
		}
	}
	if len(groups) == 0 {
		return nil, fmt.Errorf("empty partition groups %q", spec)
	}
	return groups, nil
}

// fanout applies fn to every address — the partition/heal injection path,
// where each live process must hear the same command. A failing address
// does not stop the sweep: the remaining processes are still told, and
// the returned error names every address that failed so the operator
// knows exactly which processes missed the command.
func fanout(addrs []string, timeout time.Duration, fn func(*transport.Client) error) error {
	var errs []error
	for _, a := range addrs {
		err := func() error {
			cli, err := dialRetry(a, 3)
			if err != nil {
				return err
			}
			defer cli.Close()
			cli.SetRequestTimeout(timeout)
			return fn(cli)
		}()
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", a, err))
		}
	}
	return errors.Join(errs...)
}

// record appends one fault event to the -record spool (no-op without it).
func record(dir string, e scenario.Event) {
	if dir == "" {
		return
	}
	rec, err := scenario.OpenRecorder(dir, "ctl")
	if err != nil {
		fatal(err)
	}
	if err := rec.Record(e); err != nil {
		fatal(err)
	}
	if err := rec.Close(); err != nil {
		fatal(err)
	}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7707", "marpd address")
	addrsFlag := flag.String("addrs", "", "comma-separated addresses of every cluster process (partition, heal, snapshot-scenario); default: -addr")
	timeout := flag.Duration("timeout", 5*time.Second, "per-request deadline (0 = none)")
	asJSON := flag.Bool("json", false, "machine-readable output (digest, referee)")
	guard := flag.String("guard", "", "CAS guard for submit against an optimistic service: the expected last stable value, or !unwritten (empty = unconditional; MARP services reject guards)")
	recordDir := flag.String("record", "", "incident spool directory: partition/heal/record-fault append scenario events here")
	name := flag.String("name", "incident", "scenario name (snapshot-scenario)")
	note := flag.String("note", "", "scenario note (snapshot-scenario)")
	seed := flag.Int64("seed", 1, "replay seed stamped into the bundle header (snapshot-scenario)")
	out := flag.String("out", "", "bundle output path (snapshot-scenario; default <name>.jsonl)")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	addrs := []string{*addr}
	if *addrsFlag != "" {
		addrs = addrs[:0]
		for _, a := range strings.Split(*addrsFlag, ",") {
			if a = strings.TrimSpace(a); a != "" {
				addrs = append(addrs, a)
			}
		}
		if len(addrs) == 0 {
			fatal(fmt.Errorf("empty -addrs"))
		}
	}

	node := func(s string) int {
		n, err := strconv.Atoi(s)
		if err != nil {
			fatal(fmt.Errorf("bad server id %q", s))
		}
		return n
	}

	// Multi-process and offline commands first — they manage their own
	// connections (or none at all).
	switch args[0] {
	case "partition":
		if len(args) != 2 {
			usage()
		}
		groups, err := parseGroups(args[1])
		if err != nil {
			fatal(err)
		}
		if err := fanout(addrs, *timeout, func(cli *transport.Client) error {
			return cli.Partition(groups)
		}); err != nil {
			fatal(err)
		}
		record(*recordDir, scenario.Event{Kind: scenario.KindPartition, Groups: groups})
		fmt.Printf("ok: partitioned %s at %d process(es)\n", args[1], len(addrs))
		return
	case "heal":
		if len(args) != 1 {
			usage()
		}
		if err := fanout(addrs, *timeout, func(cli *transport.Client) error {
			return cli.Heal()
		}); err != nil {
			fatal(err)
		}
		record(*recordDir, scenario.Event{Kind: scenario.KindHeal})
		fmt.Printf("ok: healed %d process(es)\n", len(addrs))
		return
	case "record-fault":
		if *recordDir == "" {
			fatal(fmt.Errorf("record-fault needs -record <dir>"))
		}
		record(*recordDir, parseFault(args[1:], node))
		fmt.Println("ok: fault recorded")
		return
	case "snapshot-scenario":
		if len(args) != 1 {
			usage()
		}
		snapshotScenario(addrs, *timeout, *recordDir, *name, *note, *seed, *out)
		return
	}

	cli, err := dialRetry(*addr, 3)
	if err != nil {
		fatal(err)
	}
	defer cli.Close()
	cli.SetRequestTimeout(*timeout)

	switch args[0] {
	case "submit", "append":
		if len(args) != 4 {
			usage()
		}
		if args[0] == "append" {
			if *guard != "" {
				fatal(fmt.Errorf("-guard applies to submit only (optimistic read-modify-write is submit -guard <expected>)"))
			}
			if err := cli.Submit(node(args[1]), args[2], args[3], true); err != nil {
				fatal(err)
			}
			fmt.Println("ok: agent dispatched")
			return
		}
		txn, err := cli.SubmitCAS(node(args[1]), args[2], args[3], *guard)
		if err != nil {
			fatal(err)
		}
		if txn != "" {
			// An optimistic service names the transaction it tentatively
			// committed; a MARP service dispatched an agent.
			fmt.Printf("ok: %s tentatively committed\n", txn)
		} else {
			fmt.Println("ok: agent dispatched")
		}
	case "read":
		if len(args) != 3 {
			usage()
		}
		value, seq, found, err := cli.Read(node(args[1]), args[2])
		if err != nil {
			fatal(err)
		}
		if !found {
			fmt.Println("(not found)")
			return
		}
		fmt.Printf("%s (update #%d)\n", value, seq)
	case "digest":
		if len(args) != 2 {
			usage()
		}
		resp, err := cli.DigestReport(node(args[1]))
		if err != nil {
			fatal(err)
		}
		kind := resp.Kind
		if kind == "" {
			kind = transport.DigestKindCommitSet // pre-kind server
		}
		if *asJSON {
			out := map[string]any{
				"node": node(args[1]), "kind": kind,
				"digest": resp.Value, "commits": int(resp.Seq),
				"queue_drops": resp.QueueDrops,
			}
			// Optimistic services report both tiers, per-key digests
			// included; "digest"/"commits" above alias the stable tier.
			if resp.Stable != nil {
				out["stable"] = resp.Stable
			}
			if resp.Tentative != nil {
				out["tentative"] = resp.Tentative
			}
			if len(resp.Shards) > 0 {
				out["shards"] = resp.Shards
			}
			printJSON(out)
			return
		}
		if kind == transport.DigestKindStablePrefix && resp.Stable != nil && resp.Tentative != nil {
			fmt.Printf("stable    %s (%d entries, %d keys)\n", resp.Stable.Digest, resp.Stable.Entries, len(resp.Stable.Keys))
			fmt.Printf("tentative %s (%d entries, %d keys)\n", resp.Tentative.Digest, resp.Tentative.Entries, len(resp.Tentative.Keys))
		} else {
			fmt.Printf("%s (%d commits)\n", resp.Value, resp.Seq)
		}
		if resp.QueueDrops > 0 {
			fmt.Printf("  warning: %d fabric queue drops at this process\n", resp.QueueDrops)
		}
		for _, sh := range resp.Shards {
			fmt.Printf("  shard %-3d %s (%d commits, %d requests, alt %.2fms, att %.2fms, %.1f visits)\n",
				sh.Shard, sh.Digest, sh.Commits, sh.Requests, sh.MeanALTMs, sh.MeanATTMs, sh.MeanVisits)
		}
	case "referee":
		resp, err := cli.RefereeReport()
		if err != nil {
			fatal(err)
		}
		kind := resp.Kind
		if kind == "" {
			kind = transport.RefereeKindGrants // pre-kind server
		}
		if *asJSON {
			printJSON(map[string]any{"kind": kind, "wins": resp.Wins, "violations": resp.Violations})
			return
		}
		if kind == transport.DigestKindStablePrefix {
			fmt.Printf("stable-prefix elections %d, divergences %d\n", resp.Wins, resp.Violations)
		} else {
			fmt.Printf("wins %d, violations %d\n", resp.Wins, resp.Violations)
		}
	case "stats":
		st, err := cli.Stats()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("servers      %d\n", st.Servers)
		fmt.Printf("committed    %d\n", st.Committed)
		fmt.Printf("failed       %d\n", st.Failed)
		fmt.Printf("outstanding  %d\n", st.Outstanding)
		fmt.Printf("messages     %d (%d bytes)\n", st.Messages, st.Bytes)
		fmt.Printf("migrations   %d\n", st.Migrations)
		fmt.Printf("virtual time %dms\n", st.VirtualMs)
	default:
		usage()
	}
}

// parseFault builds the scenario event for a record-fault command:
//
//	record-fault crash <node> | recover <node> | partition <groups> |
//	             heal | lossy <probability> | fsyncstall <duration>
//
// record-fault writes the spool without touching the cluster — for faults
// injected outside marpctl, like a kill -9 of a replica process or a real
// disk stall.
func parseFault(args []string, node func(string) int) scenario.Event {
	bad := func() scenario.Event {
		fatal(fmt.Errorf("bad record-fault %q (want crash/recover <node>, partition <groups>, heal, lossy <p>, fsyncstall <duration>)", strings.Join(args, " ")))
		panic("unreachable")
	}
	if len(args) == 0 {
		return bad()
	}
	switch args[0] {
	case "crash", "recover":
		if len(args) != 2 {
			return bad()
		}
		kind := scenario.KindCrash
		if args[0] == "recover" {
			kind = scenario.KindRecover
		}
		return scenario.Event{Kind: kind, Node: node(args[1])}
	case "partition":
		if len(args) != 2 {
			return bad()
		}
		groups, err := parseGroups(args[1])
		if err != nil {
			fatal(err)
		}
		return scenario.Event{Kind: scenario.KindPartition, Groups: groups}
	case "heal":
		if len(args) != 1 {
			return bad()
		}
		return scenario.Event{Kind: scenario.KindHeal}
	case "lossy":
		if len(args) != 2 {
			return bad()
		}
		p, err := strconv.ParseFloat(args[1], 64)
		if err != nil {
			fatal(fmt.Errorf("bad loss probability %q", args[1]))
		}
		return scenario.Event{Kind: scenario.KindLossy, Loss: p}
	case "fsyncstall":
		if len(args) != 2 {
			return bad()
		}
		d, err := time.ParseDuration(args[1])
		if err != nil {
			fatal(fmt.Errorf("bad fsync stall %q", args[1]))
		}
		return scenario.Event{Kind: scenario.KindFsyncStall, StallUS: d.Microseconds()}
	}
	return bad()
}

// snapshotScenario finalizes a recorded incident: it queries every process
// for its scenario snapshot, refuses unclean captures, merges the spool
// directory, and writes one bundle. The cleanliness rules exist because a
// replay arms agent regeneration under a validated fault plane, so every
// recorded submit WILL commit — a capture with failed or still-outstanding
// requests could never digest-match its own replay.
func snapshotScenario(addrs []string, timeout time.Duration, dir, name, note string, seed int64, out string) {
	if dir == "" {
		fatal(fmt.Errorf("snapshot-scenario needs -record <dir>"))
	}
	var ref *transport.ScenarioBody
	var refAddr string
	commits, failed, outstanding := 0, 0, 0
	// Digests of different kinds (a MARP commit-set vs an optimistic stable
	// prefix) are incomparable by construction: name the mismatch instead of
	// diffing the key maps as if they meant the same thing. Empty means a
	// pre-kind server — commit-set.
	kindOf := func(b *transport.ScenarioBody) string {
		if b.DigestKind == "" {
			return transport.DigestKindCommitSet
		}
		return b.DigestKind
	}
	for _, a := range addrs {
		cli, err := dialRetry(a, 3)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", a, err))
		}
		cli.SetRequestTimeout(timeout)
		body, err := cli.Scenario()
		cli.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", a, err))
		}
		commits += body.Commits
		failed += body.Failed
		outstanding += body.Outstanding
		if ref == nil {
			ref, refAddr = body, a
			continue
		}
		if body.Servers != ref.Servers || body.Shards != ref.Shards ||
			body.Geometry != ref.Geometry || body.Fsync != ref.Fsync {
			fatal(fmt.Errorf("%s and %s disagree on the cluster shape", refAddr, a))
		}
		if kindOf(body) != kindOf(ref) {
			fatal(fmt.Errorf("%s reports %s digests but %s reports %s; refusing to compare mixed digest kinds",
				refAddr, kindOf(ref), a, kindOf(body)))
		}
		if diffs := scenario.DiffDigests(ref.Keys, body.Keys); len(diffs) > 0 {
			fatal(fmt.Errorf("%s and %s have not converged (%s); heal/recover and retry", refAddr, a, diffs[0]))
		}
	}
	if kindOf(ref) != transport.DigestKindCommitSet {
		fatal(fmt.Errorf("capture digests are %q: replay bundles verify commit-set digests, and the replayer drives the MARP protocol only", kindOf(ref)))
	}
	if failed > 0 {
		fatal(fmt.Errorf("unclean capture: %d failed request(s); a replay cannot reproduce lost submissions", failed))
	}
	if outstanding > 0 {
		fatal(fmt.Errorf("capture still settling: %d outstanding request(s); retry when drained", outstanding))
	}
	hdr := scenario.Header{
		Name:          name,
		Servers:       ref.Servers,
		Seed:          seed,
		Shards:        ref.Shards,
		Geometry:      ref.Geometry,
		Fsync:         ref.Fsync,
		CommitDelayUS: ref.CommitDelayUS,
		Created:       time.Now().UTC().Format(time.RFC3339),
		Note:          note,
	}
	dig := scenario.Digest{Commits: commits, Keys: ref.Keys}
	b, err := scenario.Finalize(dir, hdr, dig)
	if err != nil {
		fatal(err)
	}
	if out == "" {
		out = name + ".jsonl"
	}
	if err := b.WriteFile(out); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d servers, %d events, %d commits, %d keys\n",
		out, hdr.Servers, len(b.Events), commits, len(b.Digest.Keys))
}

// printJSON writes one sorted-key JSON object per line to stdout.
func printJSON(v map[string]any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "marpctl: %v\n", err)
	os.Exit(1)
}
