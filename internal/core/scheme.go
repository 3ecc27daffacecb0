// Package core implements the paper's write-encoding schemes: the
// baseline differential write, the full-line encoders it compares against
// (FlipMin, FNW, DIN, 6cosets), the fine-grain coset encoders of §III–V
// (4cosets, 3cosets, restricted cosets), and the paper's contribution —
// WLCRC, the integration of word-level compression with restricted coset
// coding (§VI) — plus the WLC+4cosets and COC+4cosets variants evaluated
// in §VIII.
//
// Every scheme turns (current cell states, new 512-bit data) into the new
// cell states to program; the simulator in internal/sim charges the
// differential write, endurance and disturbance models from package pcm
// on the (old, new) state pair. Every scheme also implements Decode so
// tests can prove the stored states always recover the written data.
package core

import (
	"fmt"
	"strings"

	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/vcc"
)

// Scheme is one write-encoding scheme for 512-bit MLC PCM lines.
//
// EncodeInto/DecodeInto are the hot-path codec API: they write into
// caller storage and, together with the table-driven cost model built at
// scheme construction, run without heap allocation. Encode/Decode are
// thin allocating wrappers kept for convenience and compatibility.
// Scheme implementations are immutable after construction and safe for
// concurrent use — all per-call scratch lives on the caller's stack — so
// the parallel engine shares one instance across its shards.
type Scheme interface {
	// Name identifies the scheme in reports (e.g. "WLCRC-16").
	Name() string
	// TotalCells is the number of MLC cells one line occupies: 256 data
	// cells plus the scheme's auxiliary cells.
	TotalCells() int
	// DataCells is the boundary index between the data region and the
	// auxiliary region for the blk/aux split in the paper's figures.
	DataCells() int
	// Encode returns the TotalCells() states to program when writing
	// data over a line whose cells currently hold old. Implementations
	// must not retain or modify old.
	Encode(old []pcm.State, data *memline.Line) []pcm.State
	// EncodeInto computes the same states as Encode into dst, which must
	// have length TotalCells() and must not alias old. Every cell of dst
	// is written (auxiliary cells the scheme leaves alone are copied from
	// old), so dst may hold garbage on entry. Implementations must not
	// retain dst, and must not retain or modify old.
	EncodeInto(dst, old []pcm.State, data *memline.Line)
	// Decode recovers the stored data from the cell states.
	Decode(cells []pcm.State) memline.Line
	// DecodeInto recovers the stored data into dst, overwriting it
	// completely — the allocation-free form of Decode.
	DecodeInto(cells []pcm.State, dst *memline.Line)
}

// CompressionGate is implemented by compression-gated schemes whose flag
// cell distinguishes the encoded (compressed) path from the raw
// fallback. Resolving the gate once at construction time lets the
// simulator classify writes without per-request name switches; schemes
// that do not implement it take their encoded path on every write.
type CompressionGate interface {
	// CompressedWrite reports whether the stored cell vector took the
	// scheme's encoded (compressed) path.
	CompressedWrite(cells []pcm.State) bool
}

// CounterScheme is the optional extension for schemes whose encoding
// depends on the line address and its per-line write counter — the
// virtual-coset and encrypted schemes of internal/vcc, whose keystreams
// and candidate vectors derive from (key, addr, counter). The counter
// models the counter store a counter-mode encryption engine already
// maintains: the replay frontends (sim shards, the public Memory) own
// it, incrementing it on every write to an address and presenting the
// same value back at decode. Requests to one address replay in trace
// order on a single shard, so the counters — and therefore all results —
// stay bit-identical across worker counts.
//
// CounterSchemes still implement the plain EncodeInto/DecodeInto, which
// must be the degenerate (addr=0, ctr=0) form of the counter-aware
// pair, so every generic Scheme property (round trip, idempotence of
// decode, full dst overwrite) keeps holding.
type CounterScheme interface {
	// EncodeCtrInto is EncodeInto keyed by (addr, ctr).
	EncodeCtrInto(dst, old []pcm.State, addr, ctr uint64, data *memline.Line)
	// DecodeCtrInto is DecodeInto keyed by (addr, ctr); ctr must be the
	// value used by the write that stored cells.
	DecodeCtrInto(cells []pcm.State, addr, ctr uint64, dst *memline.Line)
}

// UsesCounters reports whether s needs the per-line write counter —
// frontends use it to decide whether to maintain a counter map at all.
func UsesCounters(s Scheme) bool {
	_, ok := s.(CounterScheme)
	return ok
}

// EncodeCtrFunc resolves a scheme's encode entry point once: counter
// schemes get their keyed path, everything else ignores (addr, ctr).
// Replay frontends resolve at construction instead of type-switching
// per request.
func EncodeCtrFunc(s Scheme) func(dst, old []pcm.State, addr, ctr uint64, data *memline.Line) {
	if cs, ok := s.(CounterScheme); ok {
		return cs.EncodeCtrInto
	}
	return func(dst, old []pcm.State, addr, ctr uint64, data *memline.Line) {
		s.EncodeInto(dst, old, data)
	}
}

// DecodeCtrFunc is the decode-side counterpart of EncodeCtrFunc.
func DecodeCtrFunc(s Scheme) func(cells []pcm.State, addr, ctr uint64, dst *memline.Line) {
	if cs, ok := s.(CounterScheme); ok {
		return cs.DecodeCtrInto
	}
	return func(cells []pcm.State, addr, ctr uint64, dst *memline.Line) {
		s.DecodeInto(cells, dst)
	}
}

// CompressedWriteFunc resolves a scheme's write classifier once:
// gated schemes answer through their flag cell, everything else counts
// every write as encoded. Both replay frontends and the public Memory
// share this policy.
func CompressedWriteFunc(s Scheme) func([]pcm.State) bool {
	if gate, ok := s.(CompressionGate); ok {
		return gate.CompressedWrite
	}
	return func([]pcm.State) bool { return true }
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

// rawEncode fills dst[0:256] with the default-mapping (C1) states of the
// line's symbols — the uncompressed fallback path shared by every
// compression-gated scheme, and the whole of the baseline scheme. The
// fixed mapping is applied word-parallel on the line's bit-planes.
func rawEncode(data *memline.Line, dst []pcm.State) {
	for w := 0; w < memline.LineWords; w++ {
		nlo, nhi := coset.C1SWAR.ApplyPlanes(memline.LoHiPlanes(data.Word(w)))
		coset.UnpackStates(nlo, nhi, dst[w*memline.WordCells:(w+1)*memline.WordCells])
	}
}

// rawDecode inverts rawEncode.
func rawDecode(cells []pcm.State) memline.Line {
	var l memline.Line
	rawDecodeInto(cells, &l)
	return l
}

// rawDecodeInto inverts rawEncode into caller storage, word-parallel
// through the C1 inverse plane selectors.
func rawDecodeInto(cells []pcm.State, l *memline.Line) {
	for w := 0; w < memline.LineWords; w++ {
		slo, shi := coset.PackStates(cells[w*memline.WordCells:])
		l.SetWord(w, memline.InterleavePlanes(coset.C1SWAR.ApplyInvPlanes(slo, shi)))
	}
}

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

// Encode implements Scheme.
func (b Baseline) Encode(old []pcm.State, data *memline.Line) []pcm.State {
	out := make([]pcm.State, memline.LineCells)
	b.EncodeInto(out, old, data)
	return out
}

// EncodeInto implements Scheme.
func (Baseline) EncodeInto(dst, old []pcm.State, data *memline.Line) {
	rawEncode(data, dst)
}

// Decode implements Scheme.
func (Baseline) Decode(cells []pcm.State) memline.Line { return rawDecode(cells) }

// DecodeInto implements Scheme.
func (Baseline) DecodeInto(cells []pcm.State, dst *memline.Line) {
	rawDecodeInto(cells, dst)
}

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
	// paper proposes as future work (§XI): candidate costs gain a
	// penalty of lambda pJ per expected disturbance error the block's
	// write pattern would induce. Zero disables the extension.
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

// auxPairIndex builds the candidate-index lookup for two-cell auxiliary
// encodings (6cosets).
func auxPairIndex(pairs [][2]pcm.State) map[[2]pcm.State]int {
	idx := make(map[[2]pcm.State]int, len(pairs))
	for i, p := range pairs {
		idx[p] = i
	}
	return idx
}
