// Package hw estimates the silicon cost of the WLCRC encode/decode
// pipeline — the §VI.B numbers the paper obtained with Synopsys Design
// Compiler on the 45nm FreePDK library. We cannot run a synthesis flow
// here, so this is a structural gate-count model: the architecture of
// Figure 7 is decomposed into adders, comparators and muxes, gate counts
// are derived from textbook implementations, and per-gate area / delay /
// energy constants are calibrated to 45nm standard-cell characteristics.
// FreePDK45 holds the calibrated constants; the model reproduces the
// paper's totals to the right order of magnitude and, more importantly,
// the relative costs (WLC is a tiny fraction of the design; decode is
// much faster than encode).
package hw

import (
	"fmt"

	"wlcrc/internal/stats"
)

// Tech holds per-gate constants for a technology node (NAND2-equivalent
// gates).
type Tech struct {
	Name       string
	AreaUM2    float64 // um^2 per gate (placed, routed overhead included)
	DelayNS    float64 // ns per gate of logic depth
	EnergyPJ   float64 // pJ per gate toggle at nominal activity
	ActivityPc float64 // fraction of gates toggling per operation
}

// FreePDK45 approximates the 45nm FreePDK standard-cell library the
// paper synthesized against: a NAND2 is ~0.8 um^2 raw; with routing and
// larger cells mixed in, ~1.9 um^2 per gate-equivalent is typical.
func FreePDK45() Tech {
	return Tech{
		Name:       "FreePDK45",
		AreaUM2:    1.9,
		DelayNS:    0.09, // effective ns/gate incl. wire load at 45nm
		EnergyPJ:   0.00035,
		ActivityPc: 0.18,
	}
}

// Module is a logic block with a gate count and a logic depth.
type Module struct {
	Name  string
	Gates int // NAND2-equivalent gates
	Depth int // critical-path logic depth in gates
	Count int // instances
}

// Gate-count building blocks (textbook ripple/carry-select figures).
const (
	gatesPerFullAdder   = 9
	gatesPerComparator2 = 3 // 2-bit equality/compare slice
	gatesPerMux2        = 3 // 2:1 mux bit slice
	gatesPerXor         = 2 // XOR as ~2 NAND2 equivalents
	gatesPerRegisterBit = 6 // DFF
)

// WLCRCDesign builds the module inventory of the Figure 7 architecture
// at 16-bit granularity: the WLC compressibility checker, eight
// restricted-coset word encoders (each evaluating C1/C2/C3 over four
// blocks and summing 10-bit energy costs), the differential-write XOR
// stage, and the decoder.
func WLCRCDesign() []Module {
	// WLC: per word, k-MSB equality check (6-input AND trees over 6 bits
	// and their complements) plus the line-level AND; decompression is a
	// 5-bit sign extension (wiring plus a mux).
	wlc := Module{Name: "WLC check+reclaim", Gates: 8*(2*6+4) + 8, Depth: 5, Count: 1}
	wld := Module{Name: "WLD sign-extend", Gates: 8 * (5 * gatesPerMux2), Depth: 2, Count: 1}

	// Per-word restricted coset encoder:
	//   - 3 candidate mappings x 32 cells: 2-bit remap LUT per cell (~4
	//     gates each)
	//   - per-cell cost lookup (10-bit energy) and difference detect vs
	//     old state: comparator + mask (~8 gates per cell per candidate)
	//   - 4 blocks x 2 adder trees summing eight 10-bit costs (7 adds of
	//     10 bits each) per candidate pair
	//   - block min-select comparators and the group compare
	remap := 3 * 32 * 4
	costDetect := 3 * 32 * 8
	adders := 4 * 2 * 7 * 10 / 2 * gatesPerFullAdder / 4 // compressed-tree estimate
	selects := 4*10*gatesPerComparator2 + 2*12*gatesPerComparator2
	regs := 64 * gatesPerRegisterBit
	encoder := Module{
		Name:  "Restricted coset encoder (per word)",
		Gates: remap + costDetect + adders + selects + regs,
		Depth: 5 /*remap+cost*/ + 11 /*adder tree*/ + 6, /*selects*/
		Count: 8,
	}

	// Differential write: XOR + change detect across 514 bits.
	diff := Module{Name: "DIFF stage", Gates: 514 * gatesPerXor, Depth: 2, Count: 1}

	// Decoder: read aux cells (fixed mapping), 2-bit inverse remap per
	// cell, then WLD. Far shallower than encode: no cost evaluation.
	decoder := Module{Name: "Restricted coset decoder (per word)",
		Gates: 32*4 + 5*gatesPerMux2*4, Depth: 6, Count: 8}

	return []Module{wlc, encoder, diff, decoder, wld}
}

// Report is the §VI.B cost summary.
type Report struct {
	Tech        Tech
	TotalGates  int
	AreaMM2     float64
	WriteNS     float64 // encode path latency
	ReadNS      float64 // decode path latency
	WritePJ     float64 // energy per encoded line write
	ReadPJ      float64 // energy per decoded line read
	WLCSharePct float64 // share of area in the WLC/WLD portion
}

// Estimate computes the cost report for a design on a technology.
func Estimate(tech Tech, design []Module) Report {
	var rep Report
	rep.Tech = tech
	var wlcGates int
	var encodeDepth, decodeDepth int
	var encodeGates, decodeGates int
	for _, m := range design {
		g := m.Gates * m.Count
		rep.TotalGates += g
		switch m.Name {
		case "WLC check+reclaim", "WLD sign-extend":
			wlcGates += g
		}
		switch m.Name {
		case "WLC check+reclaim", "Restricted coset encoder (per word)", "DIFF stage":
			if m.Depth > 0 {
				encodeDepth += m.Depth
			}
			encodeGates += g
		case "Restricted coset decoder (per word)", "WLD sign-extend":
			decodeDepth += m.Depth
			decodeGates += g
		}
	}
	rep.AreaMM2 = float64(rep.TotalGates) * tech.AreaUM2 / 1e6
	rep.WriteNS = float64(encodeDepth) * tech.DelayNS
	rep.ReadNS = float64(decodeDepth) * tech.DelayNS
	rep.WritePJ = float64(encodeGates) * tech.ActivityPc * tech.EnergyPJ
	rep.ReadPJ = float64(decodeGates) * tech.ActivityPc * tech.EnergyPJ
	if rep.TotalGates > 0 {
		rep.WLCSharePct = 100 * float64(wlcGates) / float64(rep.TotalGates)
	}
	return rep
}

// Table renders the report next to the paper's synthesized values.
func (r Report) Table() *stats.Table {
	t := stats.NewTable("metric", "model", "paper (§VI.B)")
	t.Row("area (mm^2)", fmt.Sprintf("%.4f", r.AreaMM2), "0.0498")
	t.Row("write delay (ns)", fmt.Sprintf("%.2f", r.WriteNS), "2.63")
	t.Row("read delay (ns)", fmt.Sprintf("%.2f", r.ReadNS), "0.89")
	t.Row("write energy (pJ)", fmt.Sprintf("%.2f", r.WritePJ), "0.94")
	t.Row("read energy (pJ)", fmt.Sprintf("%.2f", r.ReadPJ), "0.27")
	t.Row("WLC share of area (%)", fmt.Sprintf("%.1f", r.WLCSharePct), "~0.4 (0.0002 mm^2)")
	return t
}
