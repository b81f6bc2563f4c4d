package harness

import (
	"fmt"
	"sort"

	"repro/internal/metrics"
	"repro/internal/simnet"
)

// The message census (DESIGN.md §7, "Every message has a reason"): a run's
// traffic by message kind, per committed update, set against the
// closed-form cost the paper's algorithm implies. What the model does not
// cover is the residual, and every residual kind is paid for by a fault or
// a fortification DESIGN.md names.

// CensusRow is one message kind's share of a run, per committed update.
type CensusRow struct {
	Kind  string
	Msgs  float64 // messages sent per commit
	Bytes float64 // modelled bytes sent per commit
	// Lo and Hi bound Msgs for an uncontended update under the paper's
	// cost model; both are zero for a residual kind.
	Lo, Hi float64
}

// Residual reports whether the kind lies outside the paper's cost model.
func (r CensusRow) Residual() bool { return r.Hi == 0 }

// modelKinds lists the kinds of the paper's algorithm in protocol order.
var modelKinds = []string{"agent-migrate", "update", "agent-msg", "commit"}

// costModel is the per-commit message count of one uncontended update on a
// replica group of n servers, kind by kind. The winning agent starts at its
// home and visits between a majority and all n servers before it knows it
// holds the lock (Theorem 3), so it migrates one time fewer than it visits.
// It then sends the UPDATE to the n−1 others, each answers with an ACK
// addressed to the agent (an agent-msg), and the COMMIT goes to the same
// n−1. The UPDATE round needs only a majority of grants, one of them given
// locally by the server the agent stands on, so as few as a majority less
// one ACKs may travel; uncontended runs on a reliable network see all n−1.
func costModel(n int) map[string][2]float64 {
	maj := float64(n/2 + 1)
	return map[string][2]float64{
		"agent-migrate": {maj - 1, float64(n - 1)},
		"update":        {float64(n - 1), float64(n - 1)},
		"agent-msg":     {maj - 1, float64(n - 1)},
		"commit":        {float64(n - 1), float64(n - 1)},
	}
}

// Census breaks net's traffic down by kind, per committed update, and
// attaches the cost model's bounds for a replica group of n to the kinds it
// covers. Model kinds come first, in protocol order (a model kind the run
// never sent still gets its row); residual kinds follow, heaviest first.
func Census(net simnet.Stats, commits, n int) []CensusRow {
	if commits <= 0 {
		return nil
	}
	per := func(v int) float64 { return float64(v) / float64(commits) }
	model := costModel(n)
	var rows, residual []CensusRow
	for _, k := range modelKinds {
		b := model[k]
		rows = append(rows, CensusRow{Kind: k, Msgs: per(net.ByKind[k]), Bytes: per(net.BytesByKind[k]), Lo: b[0], Hi: b[1]})
	}
	for k, v := range net.ByKind {
		if _, ok := model[k]; !ok {
			residual = append(residual, CensusRow{Kind: k, Msgs: per(v), Bytes: per(net.BytesByKind[k])})
		}
	}
	sort.Slice(residual, func(i, j int) bool {
		if residual[i].Msgs != residual[j].Msgs {
			return residual[i].Msgs > residual[j].Msgs
		}
		return residual[i].Kind < residual[j].Kind
	})
	return append(rows, residual...)
}

// CensusTable renders a census: one row per kind, the model's range beside
// the model kinds, "residual" beside the rest.
func CensusTable(title string, rows []CensusRow) *metrics.Table {
	tbl := &metrics.Table{
		Title:   title,
		Note:    "messages and modelled bytes per committed update, by message kind",
		Columns: []string{"kind", "msgs/commit", "bytes/commit", "model"},
	}
	var msgs, bytes float64
	for _, r := range rows {
		model := "residual"
		if !r.Residual() {
			model = fmt.Sprintf("%.0f..%.0f", r.Lo, r.Hi)
		}
		tbl.AddRow(r.Kind, fmt.Sprintf("%.2f", r.Msgs), fmt.Sprintf("%.0f", r.Bytes), model)
		msgs += r.Msgs
		bytes += r.Bytes
	}
	tbl.AddRow("total", fmt.Sprintf("%.2f", msgs), fmt.Sprintf("%.0f", bytes), "")
	return tbl
}
