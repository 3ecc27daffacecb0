package vcc

import (
	"sync"

	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// Inner is the subset of core.Scheme and core.PlaneScheme the Encrypted
// wrapper drives: geometry and the plane codec. It is declared locally
// (structurally identical) so this package does not import
// internal/core, which imports it back for scheme registration. An
// inner scheme may also implement the plane compression gate, which
// the wrapper delegates to.
type Inner interface {
	Name() string
	TotalCells() int
	DataCells() int
	EncodePlanesInto(dst, old []uint64, data *memline.Line)
	DecodePlanesInto(planes []uint64, dst *memline.Line)
}

// planeCompressionGate mirrors core.PlaneCompressionGate.
type planeCompressionGate interface {
	CompressedWritePlanes(planes []uint64) bool
}

// Encrypted models counter-mode encryption sitting below an ordinary
// write encoder: every write re-encrypts the line under a fresh
// (key, addr, ctr) pad and hands the inner scheme the ciphertext; reads
// decode the inner scheme and then decrypt. It is the "encrypted WLCRC"
// baseline of the evaluation — wrap WLCRC-16 in it and the compression
// gate collapses, because no ciphertext line is WLC-compressible, while
// wrapping Baseline yields the raw encrypted write every other scheme is
// measured against.
//
// Encrypted implements core.CounterPlaneScheme, and core.CounterScheme
// as the packed form of it (for perfbench's codec probes). Cell
// geometry is the inner scheme's — the write counter lives in the
// encryption engine's counter store, not in the line.
type Encrypted struct {
	inner  Inner
	cipher Cipher
	pgate  func([]uint64) bool // nil when the inner scheme has no gate
	name   string
	// bufs recycles staging records: stack buffers would escape through
	// the inner-scheme interface call on every write.
	bufs sync.Pool
}

// staging is one call's scratch: the ciphertext line and, for the
// packed cell codec, the old and new plane vectors. Every inner scheme
// NewScheme can wrap has at most 258 cells, 18 plane words.
type staging struct {
	line     memline.Line
	old, dst [tailWord + 2]uint64
}

// NewEncrypted wraps inner behind the counter-mode encryption model.
// key 0 means DefaultKey.
func NewEncrypted(inner Inner, key uint64) *Encrypted {
	e := &Encrypted{
		inner:  inner,
		cipher: Cipher{Key: key},
		name:   "Enc(" + inner.Name() + ")",
	}
	if g, ok := inner.(planeCompressionGate); ok {
		e.pgate = g.CompressedWritePlanes
	}
	e.bufs.New = func() any { return new(staging) }
	return e
}

// Name implements core.Scheme.
func (e *Encrypted) Name() string { return e.name }

// Inner returns the wrapped scheme.
func (e *Encrypted) Inner() Inner { return e.inner }

// TotalCells implements core.Scheme.
func (e *Encrypted) TotalCells() int { return e.inner.TotalCells() }

// DataCells implements core.Scheme.
func (e *Encrypted) DataCells() int { return e.inner.DataCells() }

// CompressedWritePlanes implements core.PlaneCompressionGate by
// delegating to the inner scheme's gate; gateless inner schemes count
// every write as encoded, matching core.CompressedWritePlanesFunc's
// default.
func (e *Encrypted) CompressedWritePlanes(planes []uint64) bool {
	if e.pgate == nil {
		return true
	}
	return e.pgate(planes)
}

// EncodeCtrInto implements core.CounterScheme: EncodeCtrPlanesInto on
// the packed cell vectors.
func (e *Encrypted) EncodeCtrInto(dst, old []pcm.State, addr, ctr uint64, data *memline.Line) {
	st := e.bufs.Get().(*staging)
	n := coset.PlaneWords(len(old))
	coset.PackLine(old, st.old[:n])
	e.EncodeCtrPlanesInto(st.dst[:n], st.old[:n], addr, ctr, data)
	coset.UnpackLine(st.dst[:n], dst)
	e.bufs.Put(st)
}

// DecodeCtrInto implements core.CounterScheme: DecodeCtrPlanesInto on
// the packed cell vector.
func (e *Encrypted) DecodeCtrInto(cells []pcm.State, addr, ctr uint64, dst *memline.Line) {
	st := e.bufs.Get().(*staging)
	planes := st.old[:coset.PlaneWords(len(cells))]
	coset.PackLine(cells, planes)
	e.DecodeCtrPlanesInto(planes, addr, ctr, dst)
	e.bufs.Put(st)
}

// EncodeCtrPlanesInto implements core.CounterPlaneScheme: encrypt, then
// let the inner scheme's plane codec encode the ciphertext.
func (e *Encrypted) EncodeCtrPlanesInto(dst, old []uint64, addr, ctr uint64, data *memline.Line) {
	st := e.bufs.Get().(*staging)
	st.line = *data
	e.cipher.WhitenLine(&st.line, addr, ctr)
	e.inner.EncodePlanesInto(dst, old, &st.line)
	e.bufs.Put(st)
}

// DecodeCtrPlanesInto implements core.CounterPlaneScheme: inner decode
// yields the ciphertext, the pad of (addr, ctr) turns it back into
// plaintext.
func (e *Encrypted) DecodeCtrPlanesInto(planes []uint64, addr, ctr uint64, dst *memline.Line) {
	e.inner.DecodePlanesInto(planes, dst)
	e.cipher.WhitenLine(dst, addr, ctr)
}
