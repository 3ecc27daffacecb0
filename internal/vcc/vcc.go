package vcc

import (
	"fmt"
	"math/bits"

	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// Scheme is the VCC-n write encoder: counter-mode encryption fused with
// per-word virtual coset selection. Each 64-bit word of the line is
// encrypted with the (key, addr, ctr) pad, then the cheapest of n
// candidate XOR vectors (candidate 0 = raw ciphertext) is applied and
// the result stored through the fixed C1 mapping; the winning index
// lands in the word's auxiliary cells. Decode reads the indices,
// regenerates the identical candidates from (key, addr, ctr), and
// undoes the XORs — the round trip ends in plaintext.
//
// Unlike WLCRC there is no compression gate: the encoded path is taken
// on every write, incompressible or not, which is the whole point on
// encrypted traffic.
//
// Scheme implements core.CounterPlaneScheme (bit planes, the form
// replay frontends store lines through) and core.CounterScheme, the
// cell-vector form perfbench's codec probes call, as pack/unpack
// wrappers over the plane codec.
//
// Pricing. The one candidate sweep, sweep, prices in the interleaved
// "spread" layout of a data word, where cell c sits at bits 2c and
// 2c+1. Per word it spreads the old states once and hoists, per target
// state, the mask of cells not already in it; each candidate then
// costs one XOR with the ciphertext word, one shift and four
// AND/popcount terms, one per state in C1's symbol order, and only the
// winner is compacted into state planes. Counts become energy through
// a product table, prod[s][k] = k·WriteEnergy(s), summed in ascending
// state order exactly as coset.SWARTable.Price sums, so no multiply
// runs per candidate. The table is uint64 when every write energy is a
// non-negative integer (coset.SWARTable.IntEnergy: Table II and every
// integer Fig. 14 level), whose sums equal the float sums exactly, and
// float64 otherwise; sweep is generic over the two, so both pick the
// same winner, the lowest index on ties. The candidate words are read
// straight off the random-access Keystream, one mix64 each.
//
// There is deliberately no counter-blind form, so core.PlaneCodec
// answers false for Scheme.
//
// Scheme is immutable after construction and safe for concurrent use;
// all per-call scratch lives on the caller's stack.
type Scheme struct {
	name    string
	n       int // candidates per word: 2, 4 or 8
	idxBits int // bits per stored index: log2(n)
	cipher  Cipher
	em      pcm.EnergyModel
	// Exactly one product table is set: iprod when the write energies
	// are integers, else fprod.
	iprod *costs[uint64]
	fprod *costs[float64]
}

// costs is a product table in one cost type: costs[s][k] is
// k·WriteEnergy(s). A word has 32 cells, which bounds every per-state
// count.
type costs[C uint64 | float64] [pcm.NumStates][memline.WordCells + 1]C

// newCosts builds the product table of the per-state write energies e.
func newCosts[C uint64 | float64](e [pcm.NumStates]C) *costs[C] {
	p := new(costs[C])
	for st := range p {
		for k := range p[st] {
			p[st][k] = C(k) * e[st]
		}
	}
	return p
}

// New builds a VCC scheme with n candidate vectors per word (2, 4 or 8)
// under the given energy model. key 0 means DefaultKey.
func New(em pcm.EnergyModel, n int, key uint64) (*Scheme, error) {
	idxBits := 0
	switch n {
	case 2:
		idxBits = 1
	case 4:
		idxBits = 2
	case 8:
		idxBits = 3
	default:
		return nil, fmt.Errorf("vcc: candidate count %d not in {2,4,8}", n)
	}
	s := &Scheme{
		name:    fmt.Sprintf("VCC-%d", n),
		n:       n,
		idxBits: idxBits,
		cipher:  Cipher{Key: key},
		em:      em,
	}
	// The C1 table lists the write energies in state order.
	swar := coset.C1.SWAR(&em)
	if e, ok := swar.IntEnergy(); ok {
		s.iprod = newCosts([pcm.NumStates]uint64{uint64(e[0]), uint64(e[1]), uint64(e[2]), uint64(e[3])})
	} else {
		s.fprod = newCosts(swar.Energy)
	}
	return s, nil
}

// Name implements core.Scheme.
func (s *Scheme) Name() string { return s.name }

// Candidates returns the per-word candidate count n.
func (s *Scheme) Candidates() int { return s.n }

// auxCells is the number of cells holding candidate indices: 8 words x
// idxBits bits, two bits per cell.
func (s *Scheme) auxCells() int { return memline.LineWords * s.idxBits / 2 }

// TotalCells implements core.Scheme: 256 data cells plus the candidate
// index cells (4, 8 or 12 for n = 2, 4, 8). The per-line write counter
// is not charged here — counter-mode encryption already maintains it in
// the counter store, and VCC merely reuses it (the paper's "free"
// randomness source).
func (s *Scheme) TotalCells() int { return memline.LineCells + s.auxCells() }

// DataCells implements core.Scheme.
func (s *Scheme) DataCells() int { return memline.LineCells }

// EncodeCtrInto implements core.CounterScheme: EncodeCtrPlanesInto on
// the packed cell vectors. Every cell of dst[:TotalCells()] is written.
func (s *Scheme) EncodeCtrInto(dst, old []pcm.State, addr, ctr uint64, data *memline.Line) {
	var oldP, dstP [tailWord + 2]uint64
	coset.PackLine(old[:s.TotalCells()], oldP[:])
	s.EncodeCtrPlanesInto(dstP[:], oldP[:], addr, ctr, data)
	coset.UnpackLine(dstP[:], dst[:s.TotalCells()])
}

// EncodeCtrPlanesInto implements core.CounterPlaneScheme: encrypt data
// under (addr, ctr), pick each word's cheapest candidate vector, write
// the winners' planes and the indices into the tail word pair.
func (s *Scheme) EncodeCtrPlanesInto(dst, old []uint64, addr, ctr uint64, data *memline.Line) {
	var idx uint64
	if s.iprod != nil {
		idx = sweep(s, s.iprod, dst, old, addr, ctr, data)
	} else {
		idx = sweep(s, s.fprod, dst, old, addr, ctr, data)
	}
	dst[tailWord], dst[tailWord+1] = memline.LoHiPlanes(idx)
}

// spreadLo selects bit 2c of every cell c of a spread word, a word
// whose cell c holds its 2-bit value at bits 2c (low) and 2c+1 (high).
const spreadLo = 0x5555555555555555

// sweep encodes the data words of one line: it encrypts word w with
// the (addr, ctr) pad, prices the n candidates of the word, candidate 0
// the zero vector and candidate c output LineWords·c + w of the
// keystream, writes the cheapest's state planes (the ciphertext word
// XORed with it, mapped through C1 in closed form: over a symbol's bits
// (b0, b1) the planes are lo = b0 ^ b1, hi = b0, which TestC1ClosedForm
// pins) into dst[2w], dst[2w+1], and returns
// the winning indices, idxBits each, LSB-first. Candidate v programs the
// cells whose symbol in cw^v maps to state s wherever the stored state
// is not already s; ties keep the lower index.
func sweep[C uint64 | float64](s *Scheme, prod *costs[C], dst, old []uint64, addr, ctr uint64, data *memline.Line) (idx uint64) {
	ks := s.cipher.Keystream(addr, ctr)
	for w := 0; w < memline.LineWords; w++ {
		cw := data.Word(w) ^ ks.Pad(w)
		spread := memline.InterleavePlanes(old[2*w], old[2*w+1])
		// k<st>: cells not already in state st, at their even bits.
		// In a spread word x, cell c's value has its low bit at bit 2c
		// of x and its high bit at bit 2c of x>>1.
		oh := spread >> 1
		k0 := spreadLo & (spread | oh)
		k1 := spreadLo &^ (spread &^ oh)
		k2 := spreadLo &^ (oh &^ spread)
		k3 := spreadLo &^ (spread & oh)
		// y = cw^v is the candidate's symbol word and coset.C1 stores 00
		// as S1, 10 as S2, 11 as S3 and 01 as S4, so the four terms
		// count the programmed cells of each state in state order (the
		// scalar-reference tests fail if C1 changes).
		price := func(v uint64) C {
			y := cw ^ v
			h := y >> 1
			return prod[0][bits.OnesCount64(^(y|h)&k0)] + prod[1][bits.OnesCount64(h&^y&k1)] +
				prod[2][bits.OnesCount64(y&h&k2)] + prod[3][bits.OnesCount64(y&^h&k3)]
		}
		best, bestV, bestCost := 0, uint64(0), price(0)
		for c := 1; c < s.n; c++ {
			v := ks.word(memline.LineWords*c + w)
			if cost := price(v); cost < bestCost {
				best, bestV, bestCost = c, v, cost
			}
		}
		b0, b1 := memline.LoHiPlanes(cw ^ bestV)
		dst[2*w], dst[2*w+1] = b0^b1, b0
		idx |= uint64(best) << uint(w*s.idxBits)
	}
	return idx
}

// DecodeCtrInto implements core.CounterScheme: DecodeCtrPlanesInto on
// the packed cell vector.
func (s *Scheme) DecodeCtrInto(cells []pcm.State, addr, ctr uint64, dst *memline.Line) {
	var planes [tailWord + 2]uint64
	coset.PackLine(cells[:s.TotalCells()], planes[:])
	s.DecodeCtrPlanesInto(planes[:], addr, ctr, dst)
}

// DecodeCtrPlanesInto implements core.CounterPlaneScheme: read the
// tail indices, regenerate each word's pad and winning candidate word
// of (addr, ctr) through Keystream, and undo C1 in closed form
// (b0 = hi, b1 = lo ^ hi), the winning XOR and the pad. dst is fully
// overwritten.
func (s *Scheme) DecodeCtrPlanesInto(planes []uint64, addr, ctr uint64, dst *memline.Line) {
	ks := s.cipher.Keystream(addr, ctr)
	idx := memline.InterleavePlanes(planes[tailWord], planes[tailWord+1])
	mask := uint64(s.n - 1)
	for w := 0; w < memline.LineWords; w++ {
		lo, hi := planes[2*w], planes[2*w+1]
		c := int(idx >> uint(w*s.idxBits) & mask)
		dst.SetWord(w, memline.InterleavePlanes(hi, lo^hi)^ks.Candidate(c, w)^ks.Pad(w))
	}
}

// tailWord is the plane-pair index of the word holding cells 256+, where
// the candidate indices live: the indices, idxBits each LSB-first, are
// one interleaved word under the identity AuxPack mapping, so bit 2k is
// the low plane and bit 2k+1 the high plane of cell 256+k, and every
// other bit of the pair is zero.
const tailWord = 2 * (memline.LineCells / memline.WordCells)
