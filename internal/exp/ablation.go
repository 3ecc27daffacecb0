package exp

import (
	"wlcrc/internal/core"
	"wlcrc/internal/coset"
	"wlcrc/internal/sim"
	"wlcrc/internal/stats"
	"wlcrc/internal/workload"
)

// Ablations quantify design choices beyond what the paper's own figures
// cover:
//
//  1. multi-objective threshold sweep (§VIII.D generalized),
//  2. the write-disturbance-aware extension's lambda sweep (§XI future
//     work),
//  3. WLCRC against its own uncompressed restricted-coset core
//     (3-r-cosets with external aux cells): how much of the win is the
//     in-word embedding vs the restriction itself.

// VariantRow is one WLCRC-16 variant of the §VIII.D threshold and §XI
// lambda ablations: its parameter (0 for plain WLCRC-16) and its
// per-write figures pooled over all benchmarks.
type VariantRow struct {
	Param   float64
	Energy  float64 // pJ per write
	Updated float64 // cells per write
	Disturb float64 // expected disturbance errors per write
}

// variantRows runs plain WLCRC-16 and one variant per parameter, set
// into its core.Config by set.
func variantRows(cfg Config, params []float64, set func(*core.Config, float64)) []VariantRow {
	rows := make([]VariantRow, 0, 1+len(params))
	for i := -1; i < len(params); i++ {
		cc := core.Config{Energy: cfg.Energy}
		var p float64
		if i >= 0 {
			p = params[i]
			set(&cc, p)
		}
		m := runWLCRCVariant(cfg, cc)
		rows = append(rows, VariantRow{p, m.AvgEnergy(), m.AvgUpdated(), m.AvgDisturb()})
	}
	return rows
}

// multiObjectiveRows runs the §VIII.D threshold sweep.
func multiObjectiveRows(cfg Config, thresholds []float64) []VariantRow {
	return variantRows(cfg, thresholds, func(cc *core.Config, T float64) { cc.MultiObjectiveT = T })
}

// disturbAwareRows runs the §XI lambda sweep.
func disturbAwareRows(cfg Config, lambdas []float64) []VariantRow {
	return variantRows(cfg, lambdas, func(cc *core.Config, l float64) { cc.DisturbAwareLambda = l })
}

// AblationMultiObjective sweeps the §VIII.D threshold T.
func AblationMultiObjective(cfg Config, thresholds []float64) *stats.Table {
	t := stats.NewTable("T", "pJ/write", "cells/write", "vs T=0 energy", "vs T=0 cells")
	rows := multiObjectiveRows(cfg, thresholds)
	base := rows[0]
	t.Row("0 (plain)", base.Energy, base.Updated, "-", "-")
	for _, r := range rows[1:] {
		t.Row(stats.Percent(r.Param), r.Energy, r.Updated,
			stats.Percent(stats.Improvement(r.Energy, base.Energy)),
			stats.Percent(stats.Improvement(r.Updated, base.Updated)))
	}
	return t
}

// AblationDisturbAware sweeps the §XI lambda (pJ per expected error).
func AblationDisturbAware(cfg Config, lambdas []float64) *stats.Table {
	t := stats.NewTable("lambda pJ/err", "pJ/write", "disturb/write", "vs l=0 energy", "vs l=0 disturb")
	rows := disturbAwareRows(cfg, lambdas)
	base := rows[0]
	t.Row("0 (plain)", base.Energy, base.Disturb, "-", "-")
	for _, r := range rows[1:] {
		t.Row(r.Param, r.Energy, r.Disturb,
			stats.Percent(stats.Improvement(r.Energy, base.Energy)),
			stats.Percent(stats.Improvement(r.Disturb, base.Disturb)))
	}
	return t
}

// EmbeddingRow is one variant of the embedding ablation.
type EmbeddingRow struct {
	Variant   string
	Energy    float64 // pJ per write
	EnergyAux float64 // pJ per write, aux region
	Updated   float64 // cells per write
	AuxCells  int
}

// AblationEmbedding compares WLCRC-16 against the same restricted coset
// coding with auxiliary symbols stored in *extra* cells (3-r-cosets-16,
// §V) and against unrestricted 3cosets-16: isolating (a) the value of
// the coset restriction and (b) the value of embedding the aux bits into
// WLC-reclaimed space.
func AblationEmbedding(cfg Config) *stats.Table {
	t := stats.NewTable("variant", "pJ/write", "aux pJ", "cells/write", "aux cells")
	for _, r := range embeddingRows(cfg) {
		t.Row(r.Variant, r.Energy, r.EnergyAux, r.Updated, r.AuxCells)
	}
	return t
}

// embeddingRows runs the embedding ablation's variants over all
// benchmarks.
func embeddingRows(cfg Config) []EmbeddingRow {
	ccfg := core.Config{Energy: cfg.Energy}
	wlcrc16, err := core.NewWLCRC(ccfg, 16)
	if err != nil {
		panic(err)
	}
	schemes := []core.Scheme{
		core.NewLineCosets(ccfg, "3cosets-16(ext-aux)", coset.Table1[:3], 16),
		core.NewRestrictedLineCosets(ccfg, 16),
		wlcrc16,
	}
	results := runMatrix(cfg, workload.Profiles(), schemes)
	var rows []EmbeddingRow
	for _, s := range schemes {
		rows = append(rows, EmbeddingRow{
			Variant:   s.Name(),
			Energy:    averages(results, s.Name(), "", sim.Metrics.AvgEnergy),
			EnergyAux: averages(results, s.Name(), "", sim.Metrics.AvgEnergyAux),
			Updated:   averages(results, s.Name(), "", sim.Metrics.AvgUpdated),
			AuxCells:  s.TotalCells() - 256,
		})
	}
	return rows
}

// runWLCRCVariant runs a WLCRC-16 built from cc over all benchmarks and
// returns the pooled metrics.
func runWLCRCVariant(cfg Config, cc core.Config) sim.Metrics {
	s, err := core.NewWLCRC(cc, 16)
	if err != nil {
		panic(err)
	}
	results := runMatrix(cfg, workload.Profiles(), []core.Scheme{s})
	var pooled sim.Metrics
	pooled.Scheme = s.Name()
	for _, r := range results {
		pooled.Writes += r.M.Writes
		pooled.Energy.Add(r.M.Energy)
		pooled.Disturb.Add(r.M.Disturb)
	}
	return pooled
}
