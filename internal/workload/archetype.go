// Package workload synthesizes the write streams of the paper's
// benchmarks (§VII.B: twelve write-intensive SPEC CPU2006 programs plus
// canneal from PARSEC) without their proprietary inputs or a full-system
// simulator. Each benchmark is modeled as a mixture of *line archetypes*
// — value populations with distinct compressibility and bias signatures
// (zero-dominated, small integers, pointer arrays, walking chains of
// wide integers, clustered doubles, text, random) — plus a rewrite model
// controlling how much of a line changes per write. The profiles
// (profile.go) hold the mixtures, calibrated to Figure 4's coverage and
// the Figure 8/9 magnitudes.
package workload

import (
	"wlcrc/internal/memline"
	"wlcrc/internal/prng"
)

// Archetype identifies a line-content population.
type Archetype int

// The archetypes. The ChainN families generate "walking" sequences of
// wide integers whose most-significant run is exactly N bits: each word
// advances by a delta too large for a single BDI base to span but small
// enough for word-to-word delta compressors (COC) — the population that
// separates WLC/COC coverage from FPC+BDI coverage in Figure 4.
const (
	Zero     Archetype = iota // all-zero and near-zero lines
	SmallInt                  // 8-16 bit signed integers
	MedInt                    // ~32-bit integers
	Pointer                   // heap pointers in one region, BDI-friendly
	Chain6                    // walking 58-significant-bit values (MSB run 6)
	Chain7                    // MSB run 7
	Chain8                    // MSB run 8
	Chain9                    // MSB run 9
	Chain12                   // MSB run 12
	Double                    // clustered IEEE-754 doubles
	Text                      // ASCII payloads
	Random                    // incompressible noise
	numArchetypes
)

// String implements fmt.Stringer.
func (a Archetype) String() string {
	names := [...]string{
		"Zero", "SmallInt", "MedInt", "Pointer", "Chain6", "Chain7",
		"Chain8", "Chain9", "Chain12", "Double", "Text", "Random",
	}
	if int(a) < len(names) {
		return names[a]
	}
	return "Archetype(?)"
}

// lineContext carries per-line generator state so rewrites stay within
// the line's population (a rewritten pointer array is still a pointer
// array into the same region).
type lineContext struct {
	arch Archetype
	base uint64 // region base (Pointer), chain start (ChainN), cluster center (Double)
	step uint64 // chain stride scale
}

// newContext draws the per-line parameters of an archetype.
func newContext(arch Archetype, r *prng.Xoshiro256) lineContext {
	ctx := lineContext{arch: arch}
	switch arch {
	case Pointer:
		// One mmap-like region: 47-bit user-space base, 256MB span.
		ctx.base = 0x0000_7f00_0000_0000 | uint64(r.Uint32()&0x0fff)<<28
	case Chain6, Chain7, Chain8, Chain9, Chain12:
		run := chainRun(arch)
		// Start value with MSB run exactly `run`: bit (63-run) differs
		// from the top bits, top `run` bits all equal (0 or 1). The
		// low 32 payload bits are biased 16-bit chunks — real wide
		// values carry runs of 0s and 1s plus packed small fields,
		// which is what coset coding exploits — while the bits above
		// the walk counter stay noisy (keeping the 32-bit halves
		// incompressible for FPC, as measured pointer-tagged data is).
		sig := 64 - run // significant payload bits incl. the leading flip
		v := r.Uint64()&(1<<uint(sig-1)-1)&^0xffffffff | biasedTail32(r)
		v |= 1 << uint(sig-1) // force the run-terminating bit
		if r.Bool(0.5) {
			v = ^v & (1<<uint(sig) - 1) // negative flavor
			v = memline.SignExtend(v|1<<uint(sig-1), sig)
			// ensure the flip bit is 0 for the all-ones run
			v &^= 1 << uint(sig-1)
		}
		ctx.base = v
		// Stride in bits 33+: large enough that the span across a line
		// defeats any single BDI base (>> 2^31) even against the noise
		// of per-word tails, yet small enough for COC's 40-bit
		// word-to-word delta compressor.
		ctx.step = 1<<33 + uint64(r.Uint32()&0x7)<<30
	case Double:
		// Cluster center: a double in [1, 2^10) — realistic simulation
		// magnitudes. Exponent field 0x3FF..0x409; the mantissa keeps 20
		// significant bits (computed values rarely use full precision).
		exp := uint64(0x3FF + r.Intn(10))
		ctx.base = exp<<52 | uint64(r.Uint32()&(1<<20-1))<<32
	}
	return ctx
}

// biasedChunks builds an nbits-wide value from 16-bit chunks drawn from
// the biased populations real memory content exhibits: zero runs, one
// runs, small positive and small negative fields, alternating-bit masks
// (packed booleans / RGB-style fields, the '01'/'10' symbol populations
// that make candidate C3 worthwhile), and occasional noise. Different
// chunks land in different 16-bit coset blocks, which is exactly the
// intra-line heterogeneity that makes fine-grain encoding beat one
// line-global mapping.
func biasedChunks(r *prng.Xoshiro256, nbits int) uint64 {
	var v uint64
	for lo := 0; lo < nbits; lo += 16 {
		var chunk uint64
		switch r.Pick(biasedChunkWeights[:]) {
		case 0: // zeros
			chunk = 0x0000
		case 1: // ones
			chunk = 0xffff
		case 2: // small positive
			chunk = uint64(1 + r.Intn(255))
		case 3: // small negative
			chunk = 0xffff &^ uint64(r.Intn(255))
		case 4: // alternating 01 symbols
			chunk = 0x5555
		case 5: // alternating 10 symbols
			chunk = 0xaaaa
		default: // noise
			chunk = uint64(r.Uint32() & 0xffff)
		}
		v |= chunk << uint(lo)
	}
	if nbits < 64 {
		v &= 1<<uint(nbits) - 1
	}
	return v
}

// biasedTail32 draws a 32-bit biased field tail.
func biasedTail32(r *prng.Xoshiro256) uint64 { return biasedChunks(r, 32) }

// bitmapWord produces a packed-boolean / mask word of the given width:
// alternating-bit patterns whose symbols are the '01'/'10' populations
// that only candidate C3 (or a per-block choice) stores cheaply.
func bitmapWord(r *prng.Xoshiro256, width int) uint64 {
	pats := [4]uint64{
		0x5555555555555555, 0xaaaaaaaaaaaaaaaa,
		0x5a5a5a5a5a5a5a5a, 0x5500550055005500,
	}
	return pats[r.Intn(4)] & (1<<uint(width) - 1)
}

var biasedChunkWeights = [7]float64{29, 29, 10, 10, 8, 6, 8}

func chainRun(a Archetype) int {
	switch a {
	case Chain6:
		return 6
	case Chain7:
		return 7
	case Chain8:
		return 8
	case Chain9:
		return 9
	case Chain12:
		return 12
	}
	panic("workload: not a chain archetype")
}

// genLine generates a fresh line of the context's population.
func (ctx *lineContext) genLine(r *prng.Xoshiro256) memline.Line {
	var l memline.Line
	for w := 0; w < memline.LineWords; w++ {
		l.SetWord(w, ctx.genWord(w, &l, r))
	}
	return l
}

// genWord generates word w; for chain archetypes it continues from word
// w-1 of the line under construction.
func (ctx *lineContext) genWord(w int, l *memline.Line, r *prng.Xoshiro256) uint64 {
	switch ctx.arch {
	case Zero:
		if r.Bool(0.85) {
			return 0
		}
		return uint64(r.Uint32() & 0xff)
	case SmallInt:
		if r.Bool(0.12) {
			return bitmapWord(r, 16)
		}
		bits := 8 + r.Intn(9) // 8..16 significant bits
		v := r.Uint64() & (1<<uint(bits) - 1)
		if r.Bool(0.45) {
			return -v // two's complement: a run of 1s above the magnitude
		}
		return v
	case MedInt:
		if r.Bool(0.12) {
			return bitmapWord(r, 32)
		}
		bits := 20 + r.Intn(13) // 20..32 bits
		v := r.Uint64() & (1<<uint(bits) - 1)
		if r.Bool(0.45) {
			return -v
		}
		return v
	case Pointer:
		if r.Bool(0.15) {
			return 0 // NULL
		}
		// Allocation-aligned offsets: the low bits stay zero, so pointer
		// churn flips the biased (00-run) region rarely.
		return ctx.base | uint64(r.Uint32()&0x0fff_ffff)&^0x3f
	case Chain6, Chain7, Chain8, Chain9, Chain12:
		if w == 0 {
			// Fresh generations redraw the biased tails and only
			// occasionally drift the walk start: the churned cells are
			// the biased field content the encoders are designed for,
			// not the (incompressible-looking) counter bits.
			v := ctx.base
			if r.Bool(0.3) {
				v += uint64(1+r.Intn(7)) << 33
				ctx.base = v
			}
			v = v&^0xffffffff | biasedTail32(r)
			return ctx.chainClamp(v)
		}
		// Monotonic walk in the bits above the tail: the span across
		// eight words dwarfs 2^31, so no single BDI base covers the
		// line, while each word-to-word delta (stride plus tail
		// difference) fits COC's 40-bit delta compressor. Every word
		// gets its own biased tail.
		prev := l.Word(w - 1)
		v := (prev+ctx.step)&^0xffffffff | biasedTail32(r)
		return ctx.chainClamp(v)
	case Double:
		// Same cluster: identical exponent, nearby 20-bit mantissa with
		// the unused precision zero. Deltas fit well under 8-byte-base
		// BDI and COC but the MSB run is tiny.
		mant := (ctx.base>>32&(1<<20-1) + uint64(r.Uint32()&(1<<12-1))) & (1<<20 - 1)
		return ctx.base&^(1<<52-1) | mant<<32
	case Text:
		var v uint64
		for b := 0; b < 8; b++ {
			v |= uint64(0x20+r.Intn(95)) << uint(8*b)
		}
		return v
	default: // Random
		return r.Uint64()
	}
}

// chainClamp keeps a chain value's MSB run exactly at the archetype's
// run length so the whole line stays in its WLC compressibility band.
func (ctx *lineContext) chainClamp(v uint64) uint64 {
	run := chainRun(ctx.arch)
	sig := 64 - run
	top := v >> 63
	// Rebuild: top `run` bits = replicated top, bit (63-run) = ^top,
	// low bits from v.
	var out uint64
	if top == 1 {
		out = ^uint64(0) << uint(sig)
	}
	out |= v & (1<<uint(sig-1) - 1)
	if top == 0 {
		out |= 1 << uint(sig-1)
	}
	return out
}

// mutateWord rewrites one word in-place according to the population:
// value drift for numeric populations, fresh draws for text/random.
func (ctx *lineContext) mutateWord(w int, l *memline.Line, r *prng.Xoshiro256) {
	switch ctx.arch {
	case Zero, SmallInt, MedInt, Text, Random:
		l.SetWord(w, ctx.genWord(w, l, r))
	case Pointer:
		if r.Bool(0.3) {
			l.SetWord(w, ctx.genWord(w, l, r))
		} else {
			// Pointer bump within the region.
			v := l.Word(w)
			if v == 0 {
				l.SetWord(w, ctx.genWord(w, l, r))
			} else {
				l.SetWord(w, ctx.base|((v+uint64(8+r.Intn(4096)&^7))&0x0fff_ffff))
			}
		}
	case Chain6, Chain7, Chain8, Chain9, Chain12:
		if r.Bool(0.6) {
			// Field update: the biased tail is rewritten.
			v := l.Word(w)&^0xffffffff | biasedTail32(r)
			l.SetWord(w, ctx.chainClamp(v))
		} else {
			// Counter drift above the tail.
			v := l.Word(w) + uint64(1+r.Intn(63))<<30
			l.SetWord(w, ctx.chainClamp(v))
		}
	case Double:
		// Recompute within the cluster: top mantissa bits move, the
		// unused low mantissa stays zero.
		mant := (l.Word(w)>>32&(1<<20-1) + uint64(1+r.Intn(1023))) & (1<<20 - 1)
		l.SetWord(w, l.Word(w)&^(uint64(1)<<52-1)|mant<<32)
	}
}
