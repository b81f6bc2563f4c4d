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
// Only a server that queued the agent can grant its claim, so the UPDATE
// goes to the servers it visited other than the one it stands on — as many
// as it migrated — and each answers with an ACK addressed to the agent (an
// agent-msg). The COMMIT goes to all n−1 others.
func costModel(n int) map[string][2]float64 {
	visits := [2]float64{float64(n / 2), float64(n - 1)}
	return map[string][2]float64{
		"agent-migrate": visits,
		"update":        visits,
		"agent-msg":     visits,
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
