// Package core implements the paper's write-encoding schemes: the
// baseline differential write, the full-line encoders it compares against
// (FlipMin, FNW, DIN, 6cosets), the fine-grain coset encoders of §III–V
// (4cosets, 3cosets, restricted cosets), and the paper's contribution —
// WLCRC, the integration of word-level compression with restricted coset
// coding (§VI) — plus the WLC+4cosets and COC+4cosets variants evaluated
// in §VIII.
//
// Every scheme turns (current cell states, new 512-bit data) into the new
// cell states to program, both held as bit planes (planes.go); the
// simulator in internal/sim charges the differential write, endurance
// and disturbance models from package pcm on the (old, new) pair. Every
// scheme also decodes, so tests can prove the stored states always
// recover the written data, and the tests hold every plane encoder to a
// per-cell scalar reference (swar_equiv_test.go).
//
// The block coset families — 3/4/6cosets at 8–512 bits, 3-r-cosets,
// FNW and WLC+Ncosets — are rows of one descriptor-driven codec
// (blockcode.go): a row gives the block geometry, the candidates, the
// aux layout and code tables, and optionally restricted groups or the
// WLC gate. FlipMin, DIN, COC+4cosets, WLCRC, Baseline and the VCC
// schemes keep their own codecs.
package core

import (
	"fmt"
	"strings"

	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/vcc"
)

// Scheme is one write-encoding scheme for 512-bit MLC PCM lines: its
// name and cell geometry. The codec itself is the plane-resident pair
// of planes.go — PlaneScheme, or CounterPlaneScheme for schemes keyed
// by address and write counter — which CtrPlaneCodec resolves once for
// every frontend. Scheme implementations are immutable after
// construction and safe for concurrent use — all per-call scratch lives
// on the caller's stack — so the parallel engine shares one instance
// across its stores.
type Scheme interface {
	// Name identifies the scheme in reports (e.g. "WLCRC-16").
	Name() string
	// TotalCells is the number of MLC cells one line occupies: 256 data
	// cells plus the scheme's auxiliary cells.
	TotalCells() int
	// DataCells is the boundary index between the data region and the
	// auxiliary region for the blk/aux split in the paper's figures.
	DataCells() int
}

// CounterScheme is the cell-vector form of CounterPlaneScheme, kept
// for the per-layer codec probes of perfbench: the virtual-coset and
// encrypted schemes of internal/vcc, whose keystreams and candidate
// vectors derive from (key, addr, counter). The counter models the
// counter store a counter-mode encryption engine already maintains: the
// replay frontends (sim stores, the public Memory) own it, incrementing
// it on every write to an address and presenting the same value back
// at decode. Requests to one address replay in trace order on a single
// store, so the counters — and therefore all results — stay
// bit-identical across worker counts.
type CounterScheme interface {
	// EncodeCtrInto writes the TotalCells() states to program when
	// writing data over a line whose cells hold old, keyed by (addr,
	// ctr). Every cell of dst is written; old is not modified.
	EncodeCtrInto(dst, old []pcm.State, addr, ctr uint64, data *memline.Line)
	// DecodeCtrInto recovers the stored data into dst; ctr must be the
	// value used by the write that stored cells.
	DecodeCtrInto(cells []pcm.State, addr, ctr uint64, dst *memline.Line)
}

// UsesCounters reports whether s needs the per-line write counter —
// frontends use it to decide whether to maintain a counter map at all.
func UsesCounters(s Scheme) bool {
	_, ok := s.(CounterPlaneScheme)
	return ok
}

// CompressedWriteFunc is the cell-vector form of
// CompressedWritePlanesFunc, for callers holding cells: it packs the
// cells and asks the plane gate.
func CompressedWriteFunc(s Scheme) func([]pcm.State) bool {
	g, ok := s.(PlaneCompressionGate)
	if !ok {
		return func([]pcm.State) bool { return true }
	}
	return func(cells []pcm.State) bool {
		planes := make([]uint64, coset.PlaneWords(len(cells)))
		coset.PackLine(cells, planes)
		return g.CompressedWritePlanes(planes)
	}
}

// InitialCells returns the state vector of a freshly-initialized line:
// all cells in S1, the RESET state a PCM array starts from.
func InitialCells(n int) []pcm.State {
	return make([]pcm.State, n)
}

// Flag-cell states for compression-gated schemes. The paper: "since COC
// and WLC compress more than 90% of memory lines, we flagged the
// 'compressed' state with the lowest energy state" and uses only the two
// lowest-energy states for the flag.
const (
	flagCompressed   = pcm.S1
	flagUncompressed = pcm.S2
)

// Baseline is standard differential write with the default symbol-to-
// state mapping and no auxiliary information (paper §VIII "Baseline").
type Baseline struct{}

// NewBaseline returns the baseline scheme.
func NewBaseline() Baseline { return Baseline{} }

// Name implements Scheme.
func (Baseline) Name() string { return "Baseline" }

// TotalCells implements Scheme.
func (Baseline) TotalCells() int { return memline.LineCells }

// DataCells implements Scheme.
func (Baseline) DataCells() int { return memline.LineCells }

// Registry construction -----------------------------------------------

// Config carries the shared knobs schemes need at construction time.
type Config struct {
	Energy pcm.EnergyModel
	// MultiObjectiveT is the §VIII.D threshold T (e.g. 0.01 for 1%):
	// when two restricted-coset group costs are within T of each other,
	// WLCRC breaks the tie by updated-cell count instead of energy.
	// Zero disables the multi-objective mode.
	MultiObjectiveT float64
	// DisturbAwareLambda enables the write-disturbance-aware WLCRC the
	// paper proposes as future work (§XI): each block's C1, C2 and C3
	// costs gain lambda pJ per unit of the write's disturbance risk —
	// half the DER of each programmed cell's new state plus the DER of
	// each idle cell next to a programmed one in the block — priced on
	// the bit planes by the same encoder as plain WLCRC. WLCRC-64
	// ignores it. Zero disables the extension.
	DisturbAwareLambda float64
	// Disturb is the disturbance model the WD-aware extension prices
	// against; the zero value means Table II defaults.
	Disturb pcm.DisturbModel
	// EncryptionKey keys the counter-mode encryption model of the VCC-n
	// and Enc(...) schemes. Zero means vcc.DefaultKey, keeping every
	// experiment reproducible by default.
	EncryptionKey uint64
}

// DefaultConfig returns the Table II configuration.
func DefaultConfig() Config {
	return Config{Energy: pcm.DefaultEnergy()}
}

// NewScheme constructs a scheme by its evaluation-section name. Valid
// names: Baseline, FlipMin, FNW, DIN, 6cosets, COC+4cosets, WLC+4cosets,
// WLC+3cosets, WLCRC-8, WLCRC-16, WLCRC-32, WLCRC-64, the encrypted-PCM
// schemes VCC-2, VCC-4, VCC-8, and Enc(<inner>) for any non-counter
// inner scheme name (e.g. Enc(WLCRC-16), the encrypted-WLCRC baseline).
func NewScheme(name string, cfg Config) (Scheme, error) {
	if inner, ok := strings.CutPrefix(name, "Enc("); ok && strings.HasSuffix(inner, ")") {
		is, err := NewScheme(strings.TrimSuffix(inner, ")"), cfg)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", name, err)
		}
		if UsesCounters(is) {
			return nil, fmt.Errorf("core: %s: inner scheme is already counter-keyed", name)
		}
		in, ok := is.(vcc.Inner)
		if !ok {
			return nil, fmt.Errorf("core: %s: inner scheme has no plane codec", name)
		}
		return vcc.NewEncrypted(in, cfg.EncryptionKey), nil
	}
	switch name {
	case "Baseline":
		return NewBaseline(), nil
	case "FlipMin":
		return NewFlipMin(cfg), nil
	case "FNW":
		return NewFNW(cfg), nil
	case "DIN":
		return NewDIN(cfg), nil
	case "6cosets":
		return NewLineCosets(cfg, "6cosets", coset.SixCosets(), memline.LineBits), nil
	case "COC+4cosets":
		return NewCOC4(cfg), nil
	case "WLC+4cosets":
		return NewWLCCosets(cfg, 4, 32)
	case "WLC+3cosets":
		return NewWLCCosets(cfg, 3, 32)
	case "WLCRC-8":
		return NewWLCRC(cfg, 8)
	case "WLCRC-16":
		return NewWLCRC(cfg, 16)
	case "WLCRC-32":
		return NewWLCRC(cfg, 32)
	case "WLCRC-64":
		return NewWLCRC(cfg, 64)
	case "VCC-2":
		return vcc.New(cfg.Energy, 2, cfg.EncryptionKey)
	case "VCC-4":
		return vcc.New(cfg.Energy, 4, cfg.EncryptionKey)
	case "VCC-8":
		return vcc.New(cfg.Energy, 8, cfg.EncryptionKey)
	}
	return nil, fmt.Errorf("core: unknown scheme %q", name)
}

// EncryptedSchemes lists the schemes of the encrypted-memory study: the
// raw encrypted write, the collapsed compression-gated baseline, and the
// VCC family that recovers coset coding on ciphertext.
func EncryptedSchemes() []string {
	return []string{"Enc(Baseline)", "Enc(FlipMin)", "Enc(WLCRC-16)", "VCC-2", "VCC-4", "VCC-8"}
}

// EvaluationSchemes lists the eight schemes of Figures 8–10 in paper
// order.
func EvaluationSchemes() []string {
	return []string{
		"Baseline", "FlipMin", "FNW", "DIN",
		"6cosets", "COC+4cosets", "WLC+4cosets", "WLCRC-16",
	}
}
