package core

import (
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// Plane-native codec entry points.
//
// The replay engine stores lines in the bit-plane layout of
// coset.PlaneWords: (lo, hi) uint64 pairs per 32 cells, tail bits zero.
// Every scheme encodes and decodes that layout directly through
// PlaneScheme (or, keyed by address and write counter,
// CounterPlaneScheme) — reading old states and writing new states as
// planes — so no per-write PackStates/UnpackStates round trip runs on
// the hot path. These are the only production encoders; the per-cell
// CostTable references they are tested against live in the tests
// (swar_equiv_test.go).

// PlaneScheme is the plane-resident codec API. dst and old have
// coset.PlaneWords(TotalCells()) words and must not alias; every word of
// dst is written (cells the scheme leaves alone are copied from old) and
// the tail-zero invariant is preserved. Implementations must not retain
// dst, and must not retain or modify old.
type PlaneScheme interface {
	EncodePlanesInto(dst, old []uint64, data *memline.Line)
	DecodePlanesInto(planes []uint64, dst *memline.Line)
}

// CounterPlaneScheme is the plane-resident form of CounterScheme: the
// same keyed codec, reading and writing the coset.PlaneWords layout
// under the PlaneScheme contract (dst fully written, tail-zero
// invariant kept, old neither retained nor modified). Counter schemes
// implement only this keyed pair, not the counter-blind PlaneScheme.
type CounterPlaneScheme interface {
	EncodeCtrPlanesInto(dst, old []uint64, addr, ctr uint64, data *memline.Line)
	DecodeCtrPlanesInto(planes []uint64, addr, ctr uint64, dst *memline.Line)
}

// PlaneCompressionGate is implemented by compression-gated schemes whose
// flag cell distinguishes the encoded (compressed) path from the raw
// fallback. Resolving the gate once at construction time lets the
// frontends classify writes without per-request name switches; schemes
// that do not implement it take their encoded path on every write.
type PlaneCompressionGate interface {
	// CompressedWritePlanes reports whether the stored line took the
	// scheme's encoded (compressed) path.
	CompressedWritePlanes(planes []uint64) bool
}

// PlaneCodec resolves s's counter-blind plane entry points, reporting
// whether s implements PlaneScheme. Counter schemes answer false: their
// plane codec is keyed by (addr, ctr) — see CtrPlaneCodec, which
// resolves the codec every frontend stores lines through.
func PlaneCodec(s Scheme) (PlaneScheme, bool) {
	ps, ok := s.(PlaneScheme)
	return ps, ok
}

// CtrPlaneCodec resolves the keyed plane codec the replay frontends
// store every line through, once at construction: counter schemes get
// their own keyed plane pair, every other scheme its PlaneScheme pair
// with (addr, ctr) ignored. Every scheme NewScheme builds has one of the
// two; a scheme with neither is a bug, and CtrPlaneCodec panics on it.
func CtrPlaneCodec(s Scheme) CounterPlaneScheme {
	switch c := s.(type) {
	case CounterPlaneScheme:
		return c
	case PlaneScheme:
		return unkeyedPlanes{c}
	}
	panic("core: scheme " + s.Name() + " has no plane codec")
}

// unkeyedPlanes adapts a PlaneScheme to the keyed plane API.
type unkeyedPlanes struct{ ps PlaneScheme }

func (u unkeyedPlanes) EncodeCtrPlanesInto(dst, old []uint64, _, _ uint64, data *memline.Line) {
	u.ps.EncodePlanesInto(dst, old, data)
}

func (u unkeyedPlanes) DecodeCtrPlanesInto(planes []uint64, _, _ uint64, dst *memline.Line) {
	u.ps.DecodePlanesInto(planes, dst)
}

// CompressedWritePlanesFunc resolves the plane-resident write
// classifier: plane-gated schemes answer through their flag cell,
// everything else counts every write as encoded.
func CompressedWritePlanesFunc(s Scheme) func([]uint64) bool {
	if g, ok := s.(PlaneCompressionGate); ok {
		return g.CompressedWritePlanes
	}
	return func([]uint64) bool { return true }
}

// rawEncodePlanes fills the 16 data plane words with the default-mapping
// (C1) states of the line's symbols — the uncompressed fallback path
// shared by every compression-gated scheme, and the whole of the
// baseline scheme. C1 in closed form over a symbol's bits (b0, b1) is
// the state planes lo = b0 ^ b1, hi = b0 (TestC1ClosedForm pins it
// against coset.C1).
func rawEncodePlanes(data *memline.Line, dst []uint64) {
	for w := 0; w < memline.LineWords; w++ {
		b0, b1 := memline.LoHiPlanes(data.Word(w))
		dst[2*w], dst[2*w+1] = b0^b1, b0
	}
}

// rawDecodePlanes inverts rawEncodePlanes: C1's inverse in closed form
// is b0 = hi, b1 = lo ^ hi.
func rawDecodePlanes(planes []uint64, l *memline.Line) {
	for w := 0; w < memline.LineWords; w++ {
		l.SetWord(w, rawDecodeWord(planes[2*w], planes[2*w+1]))
	}
}

// rawDecodeWord decodes one word's state planes through C1's inverse.
func rawDecodeWord(lo, hi uint64) uint64 {
	return memline.InterleavePlanes(hi, lo^hi)
}

// tailWord is the plane-pair index of the word holding cells 256+ — the
// flag/aux word of every 257- and 258-cell scheme.
const tailWord = 2 * (memline.LineCells / memline.WordCells)

// setTailFlag writes the flag cell 256 as the only occupied cell of the
// final word pair, zeroing the rest of both planes.
func setTailFlag(dst []uint64, flag pcm.State) {
	dst[tailWord] = uint64(flag & 1)
	dst[tailWord+1] = uint64(flag >> 1)
}

// tailFlag reads the flag cell 256.
func tailFlag(planes []uint64) pcm.State {
	return pcm.State(planes[tailWord]&1 | planes[tailWord+1]&1<<1)
}

// setTailBits4 stores four auxiliary bits in cells 256 and 257 under the
// identity AuxPack mapping (cell 256 = b1<<1|b0, cell 257 = b3<<1|b2),
// zeroing the rest of the final word pair — the plane form of
// coset.PackBitsToStates for the FlipMin/FNW tails.
func setTailBits4(dst []uint64, b uint8) {
	dst[tailWord] = uint64(b&1) | uint64(b>>2&1)<<1
	dst[tailWord+1] = uint64(b>>1&1) | uint64(b>>3&1)<<1
}

// tailBits4 reads the four auxiliary bits stored by setTailBits4.
func tailBits4(planes []uint64) uint8 {
	lo, hi := planes[tailWord], planes[tailWord+1]
	return uint8(lo&1) | uint8(hi&1)<<1 | uint8(lo>>1&1)<<2 | uint8(hi>>1&1)<<3
}

// Baseline --------------------------------------------------------------

// EncodePlanesInto implements PlaneScheme.
func (Baseline) EncodePlanesInto(dst, old []uint64, data *memline.Line) {
	rawEncodePlanes(data, dst)
}

// DecodePlanesInto implements PlaneScheme.
func (Baseline) DecodePlanesInto(planes []uint64, dst *memline.Line) {
	rawDecodePlanes(planes, dst)
}
