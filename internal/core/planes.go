package core

import (
	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// Plane-native codec entry points.
//
// The replay engine stores lines in the bit-plane layout of
// coset.PlaneWords: (lo, hi) uint64 pairs per 32 cells, tail bits zero.
// Schemes implementing PlaneScheme (or, keyed by address and write
// counter, CounterPlaneScheme) encode and decode that layout directly —
// reading old states and writing new states as planes — so the
// per-write PackStates/UnpackStates round trips of the scalar API
// disappear from the hot path. The scalar EncodeInto/DecodeInto
// implementations remain untouched as the reference the equivalence and
// fuzz tests hold the plane paths to.

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

// PlaneCompressionGate is CompressionGate for plane-resident lines.
type PlaneCompressionGate interface {
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
// store every line through, once at construction, as EncodeCtrFunc does
// for cells: counter schemes get their own keyed plane pair, every other
// scheme its PlaneScheme pair with (addr, ctr) ignored. Every scheme
// NewScheme builds has one of the two; a scheme with neither is a bug,
// and CtrPlaneCodec panics on it.
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

// PlaneEncodeJob is one line write of a plane-resident batch encode
// run, with the line's routing/counter context.
type PlaneEncodeJob struct {
	Dst, Old []uint64
	Addr     uint64
	Ctr      uint64
	Data     *memline.Line
}

// EncodePlaneBatch encodes a run of plane-resident writes for the
// shard's applyRun path, hoisting the interface dispatch out of the
// per-job loop. Dst and Old must not alias, and no two jobs of one run
// may share an address: the caller breaks runs on address repeats,
// since the second write's Old would be the first write's Dst. Each
// job's result equals a per-line EncodeCtrPlanesInto call; the point is
// that one scheme's tables stay hot across the run.
func EncodePlaneBatch(cs CounterPlaneScheme, jobs []PlaneEncodeJob) {
	for i := range jobs {
		j := &jobs[i]
		cs.EncodeCtrPlanesInto(j.Dst, j.Old, j.Addr, j.Ctr, j.Data)
	}
}

// rawEncodePlanes is rawEncode straight into plane storage: the fixed C1
// mapping applied word-parallel, with no state unpacking.
func rawEncodePlanes(data *memline.Line, dst []uint64) {
	for w := 0; w < memline.LineWords; w++ {
		dst[2*w], dst[2*w+1] = coset.C1SWAR.ApplyPlanes(memline.LoHiPlanes(data.Word(w)))
	}
}

// rawDecodePlanes inverts rawEncodePlanes.
func rawDecodePlanes(planes []uint64, l *memline.Line) {
	for w := 0; w < memline.LineWords; w++ {
		l.SetWord(w, memline.InterleavePlanes(coset.C1SWAR.ApplyInvPlanes(planes[2*w], planes[2*w+1])))
	}
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

// Plane variants of the line-level SWAR plumbing in swarline.go --------

// initPlanes fills the planes from the line's words and a plane-resident
// old line — SetOldPlanes instead of PackStates per word.
func (lp *linePlanes) initPlanes(data *memline.Line, oldP []uint64) {
	lp.initWordsPlanes(data, oldP, memline.LineWords)
}

// initWordsPlanes fills only the first n words' planes.
func (lp *linePlanes) initWordsPlanes(data *memline.Line, oldP []uint64, n int) {
	for w := 0; w < n; w++ {
		lp[w].SetData(data.Word(w))
		lp[w].SetOldPlanes(oldP[2*w], oldP[2*w+1])
	}
}

// writePlanes stores the first n accumulated cells into a plane-resident
// line. Full words overwrite; a final partial word merges, keeping dst's
// cells at and beyond n (COC4's 32-bit payload ends mid-word and the
// cells above it keep their old states).
func (ns *newStates) writePlanes(dst []uint64, n int) {
	full := n / memline.WordCells
	for w := 0; w < full; w++ {
		dst[2*w], dst[2*w+1] = ns.lo[w], ns.hi[w]
	}
	if rem := n - full*memline.WordCells; rem > 0 {
		mask := coset.CellMask(0, rem)
		dst[2*full] = dst[2*full]&^mask | ns.lo[full]&mask
		dst[2*full+1] = dst[2*full+1]&^mask | ns.hi[full]&mask
	}
}

// fromPlanes loads the first n words' state planes from a plane-resident
// line — the zero-conversion form of lineStatePlanes.init.
func (sp *lineStatePlanes) fromPlanes(planes []uint64, n int) {
	for w := 0; w < n; w++ {
		sp[w][0], sp[w][1] = planes[2*w], planes[2*w+1]
	}
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
