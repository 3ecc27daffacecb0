package exp

import (
	"fmt"
	"math"

	"wlcrc/internal/stats"
	"wlcrc/internal/wear"
)

// WearRow is one scheme's wear digest over the whole benchmark matrix.
type WearRow struct {
	Scheme string
	// S is the wear summary merged across all benchmarks.
	S wear.Summary
	// LifetimeX is the projected first-cell-failure lifetime relative to
	// the Baseline scheme on the same workloads (>1 = outlasts it).
	LifetimeX float64
}

// WearReportFrom digests each scheme's wear distribution over an
// evaluation of the benchmark matrix run with Config.TrackWear enabled
// (cmd/experiments' shared fig 8/9/10 evaluation, for instance): the
// Figure 9 mean, the worst cell, distribution quantiles, the imbalance
// factor, and the first-cell-failure lifetime projection relative to
// Baseline — the endurance story the paper tells through average
// updated cells, extended to the distribution level. An evaluation run
// without wear tracking yields empty summaries.
func WearReportFrom(e *Evaluation) ([]WearRow, *stats.Table) {
	names := e.Schemes

	// Merge each scheme's wear digest across benchmarks. Distinct
	// benchmarks replay distinct engine instances, so the merged summary
	// treats their footprints as disjoint regions of one larger array.
	merged := make(map[string]wear.Summary, len(names))
	for _, r := range e.Results {
		s := merged[r.Scheme]
		s.Merge(r.M.Wear)
		merged[r.Scheme] = s
	}

	base := merged["Baseline"]
	rows := make([]WearRow, 0, len(names))
	t := stats.NewTable("scheme", "cells/write", "max wear", "p50", "p99",
		"imbalance", "writes to 1st failure", "lifetime vs Baseline")
	for _, n := range names {
		s := merged[n]
		rel := s.RelativeLifetime(base)
		rows = append(rows, WearRow{Scheme: n, S: s, LifetimeX: rel})
		t.Row(n, s.AvgUpdatedCells(), fmt.Sprintf("%d", s.MaxCellWear),
			fmt.Sprintf("%d", s.Quantile(0.5)), fmt.Sprintf("%d", s.Quantile(0.99)),
			s.WearImbalance(), formatLifetime(s.LifetimeWrites(wear.DefaultCellEndurance)),
			fmt.Sprintf("%.2fx", rel))
	}
	return rows, t
}

// formatLifetime renders a projected write budget compactly.
func formatLifetime(v float64) string {
	if math.IsInf(v, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.3g", v)
}
