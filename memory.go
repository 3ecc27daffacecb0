package wlcrc

import (
	"wlcrc/internal/arena"
	"wlcrc/internal/core"
	"wlcrc/internal/coset"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// WriteInfo reports the cost of one line write.
type WriteInfo struct {
	// EnergyPJ is the programming energy of the differential write.
	EnergyPJ float64
	// UpdatedCells is the number of MLC cells programmed.
	UpdatedCells int
	// DisturbErrors is the number of write-disturbance errors the write
	// induced in idle neighbor cells (expected value, or a sample when
	// the Memory was built with WithDisturbSampling).
	DisturbErrors float64
	// Compressed reports whether the scheme's encoded (compressed) path
	// was taken; false means the raw fallback.
	Compressed bool
}

// MemStats aggregates write costs over a Memory's lifetime.
type MemStats struct {
	Writes           int
	EnergyPJ         float64
	UpdatedCells     int
	DisturbErrors    float64
	CompressedWrites int
}

// AvgEnergyPJ returns mean programming energy per write.
func (s MemStats) AvgEnergyPJ() float64 {
	if s.Writes == 0 {
		return 0
	}
	return s.EnergyPJ / float64(s.Writes)
}

// AvgUpdatedCells returns mean programmed cells per write.
func (s MemStats) AvgUpdatedCells() float64 {
	if s.Writes == 0 {
		return 0
	}
	return float64(s.UpdatedCells) / float64(s.Writes)
}

// MemOption customizes a Memory.
type MemOption func(*Memory)

// WithDisturbSampling switches disturbance accounting from expected
// values to Monte-Carlo sampling with the given seed.
func WithDisturbSampling(seed uint64) MemOption {
	return func(m *Memory) { m.rnd = prng.New(seed) }
}

// WithMemEnergy overrides the device energy model used for accounting.
func WithMemEnergy(em pcm.EnergyModel) MemOption {
	return func(m *Memory) { m.energy = em }
}

// Memory simulates a PCM region behind one encoding scheme. It tracks
// the cell states of every line ever written, prices each write with
// the Table II device model, and can read back (decode) any line.
// Memory is not safe for concurrent use.
//
// Every scheme's lines are stored plane-native: each line is a flat run
// of bit-plane words in a contiguous arena, addressed by an open slot
// index, and the scheme's keyed plane codec (core.CtrPlaneCodec)
// encodes and decodes the planes directly — no per-write cell
// pack/unpack and no map lookup. Counter-keyed schemes (VCC-n, Enc)
// keep each line's write counter in a slot-indexed array beside the
// arena. The write path is allocation-free in steady state and the
// compression-flag convention is resolved once at construction.
type Memory struct {
	scheme  Scheme
	codec   core.CounterPlaneScheme
	gate    func([]uint64) bool
	energy  pcm.EnergyModel
	disturb pcm.DisturbModel
	lines   *arena.Lines
	// ctrs holds each line's write counter, indexed by arena slot; nil
	// for schemes that ignore counters.
	ctrs    []uint64
	scratch []uint64
	masks   []uint64
	// lineBuf stages the written line: passing a stack copy's address
	// through the codec interface would force a per-write heap escape.
	lineBuf Line
	rnd     *prng.Xoshiro256
	stats   MemStats
}

// NewMemory builds a simulated PCM region using scheme for every line.
func NewMemory(scheme Scheme, opts ...MemOption) *Memory {
	stride := coset.PlaneWords(scheme.TotalCells())
	m := &Memory{
		scheme:  scheme,
		codec:   core.CtrPlaneCodec(scheme),
		gate:    core.CompressedWritePlanesFunc(scheme),
		energy:  pcm.DefaultEnergy(),
		disturb: pcm.DefaultDisturb(),
		lines:   arena.New(stride, 0),
		scratch: make([]uint64, stride),
		masks:   make([]uint64, stride/2),
	}
	if core.UsesCounters(scheme) {
		m.ctrs = []uint64{}
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// Scheme returns the memory's encoding scheme.
func (m *Memory) Scheme() Scheme { return m.scheme }

// Write stores data at the given line address and returns its cost:
// one slot probe, a plane-resident encode into the reusable scratch,
// the XOR-diff energy and disturbance charges, and a single plane copy
// to commit.
func (m *Memory) Write(addr uint64, data Line) WriteInfo {
	slot, fresh := m.lines.Ensure(addr)
	var ctr uint64
	if m.ctrs != nil {
		if fresh {
			m.ctrs = append(m.ctrs, 0)
		}
		m.ctrs[slot]++
		ctr = m.ctrs[slot]
	}
	old := m.lines.Planes(slot)
	next := m.scratch
	m.lineBuf = data
	m.codec.EncodeCtrPlanesInto(next, old, addr, ctr, &m.lineBuf)
	ws := m.energy.DiffWriteMasks(old, next, m.masks, m.scheme.DataCells())
	var sampler pcm.Sampler
	if m.rnd != nil {
		sampler = m.rnd
	}
	ds := m.disturb.CountDisturbMasks(next, m.masks, m.scheme.TotalCells(), m.scheme.DataCells(), sampler)
	copy(old, next)

	info := WriteInfo{
		EnergyPJ:      ws.Energy(),
		UpdatedCells:  ws.Updated(),
		DisturbErrors: ds.Errors(),
		Compressed:    m.gate(next),
	}
	m.stats.Writes++
	m.stats.EnergyPJ += info.EnergyPJ
	m.stats.UpdatedCells += info.UpdatedCells
	m.stats.DisturbErrors += info.DisturbErrors
	if info.Compressed {
		m.stats.CompressedWrites++
	}
	return info
}

// Read decodes and returns the line at addr. Unwritten lines read as
// zero.
func (m *Memory) Read(addr uint64) Line {
	var l Line
	slot, ok := m.lines.Lookup(addr)
	if !ok {
		return l
	}
	var ctr uint64
	if m.ctrs != nil {
		ctr = m.ctrs[slot]
	}
	m.codec.DecodeCtrPlanesInto(m.lines.Planes(slot), addr, ctr, &l)
	return l
}

// Written reports whether addr has ever been written.
func (m *Memory) Written(addr uint64) bool {
	_, ok := m.lines.Lookup(addr)
	return ok
}

// Lines returns the number of distinct lines written.
func (m *Memory) Lines() int { return m.lines.Len() }

// Stats returns the accumulated write statistics.
func (m *Memory) Stats() MemStats { return m.stats }
