package compress

import (
	"encoding/binary"
	"testing"

	"wlcrc/internal/memline"
	"wlcrc/internal/prng"
)

// BitReader consumes a bit stream produced by BitWriter, a byte at a
// time: the reference wordReader is held to.
type BitReader struct {
	buf []byte
	pos int
}

// NewBitReader returns a reader over buf.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// ReadBits consumes the next n bits and returns them LSB first.
// Reading past the end yields zero bits.
func (r *BitReader) ReadBits(n int) uint64 {
	if n <= 0 {
		return 0
	}
	idx := r.pos >> 3
	off := uint(r.pos) & 7
	r.pos += n
	var v uint64
	if idx < len(r.buf) {
		v = uint64(r.buf[idx] >> off)
	}
	got := 8 - int(off)
	for idx++; got < n; idx++ {
		if idx < len(r.buf) {
			v |= uint64(r.buf[idx]) << uint(got)
		}
		got += 8
	}
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	return v
}

// Pos returns the number of bits consumed so far.
func (r *BitReader) Pos() int { return r.pos }

// streamWords is the word view of a byte stream the decompressors
// read: byte i is byte i%8, little-endian, of word i/8, and the bytes
// past buf in the last word are zero.
func streamWords(buf []byte) []uint64 {
	var pad [8]byte
	out := make([]uint64, (len(buf)+7)/8)
	for i := range out {
		n := copy(pad[:], buf[8*i:])
		clear(pad[n:])
		out[i] = binary.LittleEndian.Uint64(pad[:])
	}
	return out
}

// TestWordReaderMatchesBitReader reads random streams of 0-12 bytes
// (so reads run past the end) with random widths 0-64 through both
// readers, which must return the same fields.
func TestWordReaderMatchesBitReader(t *testing.T) {
	r := prng.New(20261020)
	for trial := 0; trial < 2000; trial++ {
		buf := make([]byte, r.Intn(13))
		r.Fill(buf)
		ref := NewBitReader(buf)
		got := wordReader{buf: streamWords(buf)}
		for ref.Pos() < 8*len(buf)+80 {
			n := r.Intn(65)
			if a, b := got.ReadBits(n), ref.ReadBits(n); a != b {
				t.Fatalf("stream %x, %d bits at %d: word reader %#x, byte reader %#x", buf, n, got.pos-n, a, b)
			}
		}
	}
}

// The helpers below run the streams production writes and reads: a
// writer over fresh storage, each compressor's CompressTo into it, and
// the word-stream decoders.

// newBitWriter returns a writer over fresh storage for sizeBits.
func newBitWriter(sizeBits int) *BitWriter {
	w := WrapBitWriter(make([]byte, 0, (sizeBits+7)/8))
	return &w
}

// fpcCompress returns l's FPC stream and its length in bits.
func fpcCompress(l *memline.Line) ([]byte, int) {
	w := newBitWriter(FPCMaxBits)
	bits := FPCCompressTo(l, w)
	return w.Bytes(), bits
}

// bdiCompress returns l's BDI stream and its length in bits.
func bdiCompress(l *memline.Line) ([]byte, int) {
	w := newBitWriter(BDIMaxBits)
	bits := BDICompressTo(l, w)
	return w.Bytes(), bits
}

// fpcbdiCompress returns l's FPC+BDI stream and its length in bits.
func fpcbdiCompress(l *memline.Line) ([]byte, int) {
	w := newBitWriter(FPCBDIMaxBits)
	bits := FPCBDICompressTo(l, w)
	return w.Bytes(), bits
}

// bdiSize returns l's BDI stream length in bits.
func bdiSize(l *memline.Line) int {
	_, bits := bdiChoose(l)
	return bits
}

func fpcDecompress(stream []uint64) memline.Line {
	r := wordReader{buf: stream}
	return fpcDecode(&r)
}

func bdiDecompress(stream []uint64) memline.Line {
	r := wordReader{buf: stream}
	return bdiDecode(&r)
}
