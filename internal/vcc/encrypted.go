package vcc

import (
	"sync"

	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// Inner is the subset of core.Scheme and core.PlaneScheme the Encrypted
// wrapper drives: the cell codec for the scalar reference, the plane
// codec for plane storage. It is declared locally (structurally
// identical) so this package does not import internal/core, which
// imports it back for scheme registration.
type Inner interface {
	Name() string
	TotalCells() int
	DataCells() int
	EncodeInto(dst, old []pcm.State, data *memline.Line)
	DecodeInto(cells []pcm.State, dst *memline.Line)
	EncodePlanesInto(dst, old []uint64, data *memline.Line)
	DecodePlanesInto(planes []uint64, dst *memline.Line)
}

// compressionGate mirrors core.CompressionGate for delegation.
type compressionGate interface {
	CompressedWrite(cells []pcm.State) bool
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
// Encrypted implements core.CounterScheme and core.CounterPlaneScheme;
// the counter-blind forms use (addr=0, ctr=0) like Scheme. Cell geometry
// is the inner scheme's — the write counter lives in the encryption
// engine's counter store, not in the line.
type Encrypted struct {
	inner  Inner
	cipher Cipher
	gate   func([]pcm.State) bool // nil when the inner scheme has no gate
	pgate  func([]uint64) bool    // plane form of gate; nil likewise
	name   string
	// bufs recycles the ciphertext staging line: a stack Line would
	// escape through the inner-scheme interface call on every write.
	bufs sync.Pool
}

// NewEncrypted wraps inner behind the counter-mode encryption model.
// key 0 means DefaultKey.
func NewEncrypted(inner Inner, key uint64) *Encrypted {
	e := &Encrypted{
		inner:  inner,
		cipher: Cipher{Key: key},
		name:   "Enc(" + inner.Name() + ")",
	}
	if g, ok := inner.(compressionGate); ok {
		e.gate = g.CompressedWrite
	}
	if g, ok := inner.(planeCompressionGate); ok {
		e.pgate = g.CompressedWritePlanes
	}
	e.bufs.New = func() any { return new(memline.Line) }
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

// CompressedWrite implements core.CompressionGate by delegating to the
// inner scheme's gate; gateless inner schemes count every write as
// encoded, matching core.CompressedWriteFunc's default.
func (e *Encrypted) CompressedWrite(cells []pcm.State) bool {
	if e.gate == nil {
		return true
	}
	return e.gate(cells)
}

// CompressedWritePlanes implements core.PlaneCompressionGate, the plane
// form of CompressedWrite.
func (e *Encrypted) CompressedWritePlanes(planes []uint64) bool {
	if e.pgate == nil {
		return true
	}
	return e.pgate(planes)
}

// Encode implements core.Scheme (allocating wrapper, addr=0, ctr=0).
func (e *Encrypted) Encode(old []pcm.State, data *memline.Line) []pcm.State {
	out := make([]pcm.State, e.TotalCells())
	e.EncodeInto(out, old, data)
	return out
}

// EncodeInto implements core.Scheme with the degenerate (addr=0, ctr=0)
// stream.
func (e *Encrypted) EncodeInto(dst, old []pcm.State, data *memline.Line) {
	e.EncodeCtrInto(dst, old, 0, 0, data)
}

// Decode implements core.Scheme (allocating wrapper, addr=0, ctr=0).
func (e *Encrypted) Decode(cells []pcm.State) memline.Line {
	var l memline.Line
	e.DecodeInto(cells, &l)
	return l
}

// DecodeInto implements core.Scheme with the degenerate (addr=0, ctr=0)
// stream.
func (e *Encrypted) DecodeInto(cells []pcm.State, dst *memline.Line) {
	e.DecodeCtrInto(cells, 0, 0, dst)
}

// EncodeCtrInto implements core.CounterScheme: encrypt, then let the
// inner scheme encode the ciphertext.
func (e *Encrypted) EncodeCtrInto(dst, old []pcm.State, addr, ctr uint64, data *memline.Line) {
	buf := e.bufs.Get().(*memline.Line)
	*buf = *data
	e.cipher.WhitenLine(buf, addr, ctr)
	e.inner.EncodeInto(dst, old, buf)
	e.bufs.Put(buf)
}

// DecodeCtrInto implements core.CounterScheme: inner decode yields the
// ciphertext, the pad of (addr, ctr) turns it back into plaintext.
func (e *Encrypted) DecodeCtrInto(cells []pcm.State, addr, ctr uint64, dst *memline.Line) {
	e.inner.DecodeInto(cells, dst)
	e.cipher.WhitenLine(dst, addr, ctr)
}

// EncodeCtrPlanesInto implements core.CounterPlaneScheme: encrypt, then
// let the inner scheme's plane codec encode the ciphertext.
func (e *Encrypted) EncodeCtrPlanesInto(dst, old []uint64, addr, ctr uint64, data *memline.Line) {
	buf := e.bufs.Get().(*memline.Line)
	*buf = *data
	e.cipher.WhitenLine(buf, addr, ctr)
	e.inner.EncodePlanesInto(dst, old, buf)
	e.bufs.Put(buf)
}

// DecodeCtrPlanesInto implements core.CounterPlaneScheme: the plane form
// of DecodeCtrInto.
func (e *Encrypted) DecodeCtrPlanesInto(planes []uint64, addr, ctr uint64, dst *memline.Line) {
	e.inner.DecodePlanesInto(planes, dst)
	e.cipher.WhitenLine(dst, addr, ctr)
}
