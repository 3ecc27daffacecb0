package core

import (
	"encoding/binary"

	"wlcrc/internal/bch"
	"wlcrc/internal/compress"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
)

// DIN (Jiang, Zhang & Yang [16]) removes the high-energy (and most
// disturbance-prone) cell state by remapping every 3 data bits onto a
// 4-bit codeword whose two symbols avoid S4, and protects the line with a
// 20-bit BCH code correcting two write-disturbance errors. The 33%
// expansion only fits when FPC+BDI compresses the line to at most 369
// bits (369 * 4/3 + 20 = 512); otherwise the line is written raw. One
// flag cell records which path was taken. The paper finds only ~30% of
// lines compressible enough; on the gcc workload it is ~37%.
//
// Fixed layout of an encoded line (bit positions within the 512-bit
// region, all stored through the default mapping):
//
//	[0,   492)  3-to-4 expansion of the FPC+BDI stream zero-padded to 369 bits
//	[492, 512)  BCH parity
//
// The transform is word-parallel: FPC+BDI is sized before only a
// fitting winner is written, 3-to-4 tables work a stored word at a time,
// and a decode whose parity matches (every write without injected
// faults) skips the BCH decoder.
type DIN struct {
	codec *bch.Code
}

// dinMaxCompressed is the FPC+BDI size gate in bits.
const dinMaxCompressed = 369

// dinPayloadBits is the fixed size of the expanded region.
const dinPayloadBits = dinMaxCompressed * 4 / 3 // 492

// dinParityShift is the BCH parity's position in the last stored word.
const dinParityShift = dinPayloadBits % memline.WordBits // 44

// dinExpand maps four 3-bit values (index bits 3g..3g+2) to their 4-bit
// codewords (bits 4g..4g+3); dinContract maps two codewords (the index
// nibbles) back to two 3-bit values, decoding invalid codewords as 0.
var dinExpand, dinContract = dinTables()

// dinTables builds the 3-to-4 tables. A codeword is two symbols, low
// symbol in bits 0-1, avoiding S4: with the default mapping, S4 stores
// symbol 01 (value 1), so codeword symbols are drawn from {00, 10, 11} =
// {0, 2, 3}. That yields 9 two-symbol codewords for 8 values.
func dinTables() (expand [1 << 12]uint16, contract [1 << 8]uint8) {
	allowed := [3]uint8{0, 2, 3}
	var enc [8]uint8
	var dec [16]uint8
	for v := range enc {
		enc[v] = allowed[v/3]<<2 | allowed[v%3]
		dec[enc[v]] = uint8(v)
	}
	for i := range expand {
		for g := 0; g < 4; g++ {
			expand[i] |= uint16(enc[i>>(3*g)&7]) << (4 * g)
		}
	}
	for i := range contract {
		contract[i] = dec[i&15] | dec[i>>4]<<3
	}
	return expand, contract
}

// NewDIN returns the DIN scheme.
func NewDIN(cfg Config) *DIN {
	return &DIN{codec: bch.New()}
}

// Name implements Scheme.
func (*DIN) Name() string { return "DIN" }

// TotalCells implements Scheme: 256 data cells plus the flag cell.
func (*DIN) TotalCells() int { return memline.LineCells + 1 }

// DataCells implements Scheme.
func (*DIN) DataCells() int { return memline.LineCells }

// Compressible reports whether the line passes DIN's FPC+BDI gate.
func (d *DIN) Compressible(data *memline.Line) bool {
	return compress.FPCBDISize(data) <= dinMaxCompressed
}

// CorrectLine runs the BCH verification step of DIN on a stored
// plane-resident line with up to two flipped payload bits, correcting
// it in place and returning the number of corrected bits. It is the VnR
// hook the paper describes.
func (d *DIN) CorrectLine(planes []uint64) int {
	if tailFlag(planes) != flagCompressed {
		return 0
	}
	words := storedWords(planes)
	n, ok := d.correct(&words)
	if !ok {
		return 0
	}
	stored := memline.FromWords(words)
	rawEncodePlanes(&stored, planes)
	return n
}

// storedWords decodes the 16 data plane words through C1 into the
// stored 512-bit region.
func storedWords(planes []uint64) (words [memline.LineWords]uint64) {
	for w := range words {
		words[w] = rawDecodeWord(planes[2*w], planes[2*w+1])
	}
	return words
}

// storedLine is the front half of the encoder. When the FPC+BDI
// stream fits the gate, it fills stored with the stream's 3-to-4
// expansion and BCH parity and returns it with the compressed flag;
// otherwise it returns data itself, to be stored raw.
func (d *DIN) storedLine(data, stored *memline.Line) (*memline.Line, pcm.State) {
	var stream memline.Line // the at most 369-bit stream, zero-padded
	w := compress.WrapBitWriter(stream[:])
	if compress.FPCBDICompressLimit(data, &w, dinMaxCompressed) > dinMaxCompressed {
		return data, flagUncompressed
	}
	var words [memline.LineWords]uint64 // word j expands stream bits [48j, 48j+48)
	for j := range words {
		v := binary.LittleEndian.Uint64(stream[6*j:])
		for k := 0; k < 4; k++ {
			words[j] |= uint64(dinExpand[v>>(12*k)&0xfff]) << (16 * k)
		}
	}
	words[7] &= 1<<dinParityShift - 1
	words[7] |= uint64(d.codec.ParityWords(words[:], dinPayloadBits)) << dinParityShift
	*stored = memline.FromWords(words)
	return stored, flagCompressed
}

// decodeStored is the back half of the decoder: it corrects a stored
// compressed line in place and returns the data it encodes. The 3-to-4
// contraction packs stored word j's 48 stream bits straight into the
// stream words FPC+BDI reads.
func (d *DIN) decodeStored(words *[memline.LineWords]uint64) memline.Line {
	d.correct(words)
	words[7] &= 1<<dinParityShift - 1 // so the stream past bit 369 reads zero
	var stream [(memline.LineWords*48 + 63) / 64]uint64
	for j, x := range words {
		var v uint64
		for k := 0; k < 8; k++ {
			v |= uint64(dinContract[byte(x>>(8*k))]) << (6 * k)
		}
		k, off := 48*j>>6, uint(48*j&63)
		stream[k] |= v << off
		if off > 16 {
			stream[k+1] |= v >> (64 - off)
		}
	}
	return compress.FPCBDIDecompress(stream[:])
}

// correct repairs up to two flipped bits of a stored compressed line in
// place and reports how many; ok=false (line unchanged) means more
// errors than the code corrects. Only a parity mismatch builds the
// bit-vector codeword, parity first, that the BCH decoder takes.
func (d *DIN) correct(words *[memline.LineWords]uint64) (n int, ok bool) {
	if d.codec.ParityWords(words[:], dinPayloadBits) == uint32(words[7]>>dinParityShift) {
		return 0, true
	}
	stored := memline.FromWords(*words)
	var cw [bch.ParityBits + dinPayloadBits]uint8 // bit k is line bit k-20 mod 512
	for k := range cw {
		cw[k] = uint8(stored.Bit((k + dinPayloadBits) % memline.LineBits))
	}
	n, ok = d.codec.Decode(cw[:])
	for k, b := range cw {
		stored.SetBit((k+dinPayloadBits)%memline.LineBits, int(b))
	}
	*words = stored.Words()
	return n, ok
}
