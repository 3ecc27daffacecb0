// Package wlcrc is a library-level implementation of WLCRC — Word-Level
// Compression with Restricted Coset coding — the fine-grain write-energy
// reduction architecture for multi-level-cell phase change memory from
// Seyedzadeh, Jones and Melhem, "Enabling Fine-Grain Restricted Coset
// Coding Through Word-Level Compression for PCM" (HPCA 2018,
// arXiv:1711.08572), together with every scheme the paper evaluates
// against (differential-write baseline, FlipMin, Flip-N-Write, DIN,
// 6cosets, COC+4cosets, WLC+4cosets).
//
// The package exposes three layers:
//
//   - Encoders (NewScheme): turn (current cell states, new 512-bit line)
//     into the MLC cell states to program, and decode them back.
//   - Memory (NewMemory): a simulated PCM region behind one encoder that
//     tracks per-write programming energy, programmed-cell counts and
//     write-disturbance statistics using the paper's Table II device
//     model.
//   - Workloads (NewWorkload): synthetic write streams calibrated to the
//     paper's SPEC CPU2006 / PARSEC benchmark profiles.
//
// The full evaluation harness that regenerates the paper's figures lives
// in cmd/experiments; see EXPERIMENTS.md.
package wlcrc

import (
	"fmt"
	"sort"

	"wlcrc/internal/core"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// Line is a 512-bit memory line, the unit every encoder operates on.
type Line = memline.Line

// LineFromWords builds a line from eight 64-bit words (word w occupies
// bits 64w..64w+63).
func LineFromWords(ws [8]uint64) Line { return memline.FromWords(ws) }

// Scheme is a write-encoding scheme for 512-bit MLC PCM lines. See
// package core for the semantics of the methods.
type Scheme = core.Scheme

// Option customizes scheme construction.
type Option func(*core.Config)

// WithEnergyLevels overrides the SET energies (pJ) of the four cell
// states; the RESET energy stays at 36 pJ. The defaults are Table II's
// 0, 20, 307 and 547 pJ. Used for the paper's Figure 14 sensitivity
// study.
func WithEnergyLevels(s1, s2, s3, s4 float64) Option {
	return func(c *core.Config) {
		c.Energy.Set = [4]float64{s1, s2, s3, s4}
	}
}

// WithMultiObjective enables the §VIII.D multi-objective mode: when the
// two restricted-coset group costs are within threshold t (e.g. 0.01 for
// 1%), WLCRC picks the group that programs fewer cells instead of the
// cheaper one, trading a sliver of energy for endurance.
func WithMultiObjective(t float64) Option {
	return func(c *core.Config) { c.MultiObjectiveT = t }
}

// WithEncryptionKey keys the counter-mode encryption model of the
// encrypted-PCM schemes (VCC-2/4/8 and Enc(...)). Zero keeps the
// deterministic default key.
func WithEncryptionKey(key uint64) Option {
	return func(c *core.Config) { c.EncryptionKey = key }
}

// SchemeNames lists every constructible scheme name. Enc(...) accepts
// any non-counter inner scheme; only the evaluated Enc(WLCRC-16)
// encrypted-baseline form is listed.
func SchemeNames() []string {
	names := []string{
		"Baseline", "FlipMin", "FNW", "DIN", "6cosets", "COC+4cosets",
		"WLC+4cosets", "WLC+3cosets",
		"WLCRC-8", "WLCRC-16", "WLCRC-32", "WLCRC-64",
		"VCC-2", "VCC-4", "VCC-8", "Enc(WLCRC-16)",
	}
	sort.Strings(names)
	return names
}

// NewScheme constructs a scheme by name (see SchemeNames). WLCRC-16 is
// the paper's headline configuration.
func NewScheme(name string, opts ...Option) (Scheme, error) {
	cfg := core.DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return core.NewScheme(name, cfg)
}

// MustScheme is NewScheme that panics on error, for initialization.
func MustScheme(name string, opts ...Option) Scheme {
	s, err := NewScheme(name, opts...)
	if err != nil {
		panic(fmt.Sprintf("wlcrc: %v", err))
	}
	return s
}

// EnergyModel returns the Table II device energy model, exposed for
// callers that want to price writes themselves.
func EnergyModel() pcm.EnergyModel { return pcm.DefaultEnergy() }
