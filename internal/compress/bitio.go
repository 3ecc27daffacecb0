// Package compress implements the compression substrates the paper builds
// on or compares against: Word-Level Compression (WLC, the paper's own
// §IV contribution), Frequent Pattern Compression (FPC [2]),
// Base-Delta-Immediate (BDI [26]), the combined FPC+BDI selector used by
// DIN [16], and a Coverage-Oriented Compression (COC [20]) menu of 28
// variable-length word compressors.
//
// FPC, BDI and COC produce variable-length bit streams in one LSB-first
// bit order: BitWriter packs them into bytes, COCPack into 64-bit
// words, and every decompressor reads them back from words. WLC is
// special: it does not repack bits — it frees a fixed field at the top
// of every 64-bit word, preserving bit positions, which is the property
// that makes differential writes effective (paper §VIII.A).
package compress

// BitWriter accumulates a bit stream, least-significant bit first within
// each byte, matching the line bit numbering of package memline.
type BitWriter struct {
	buf  []byte
	bits int
}

// NewBitWriter returns a writer with capacity preallocated for sizeBits.
func NewBitWriter(sizeBits int) *BitWriter {
	return &BitWriter{buf: make([]byte, 0, (sizeBits+7)/8)}
}

// WrapBitWriter returns a value writer over caller storage. As long as
// the stream fits cap(buf), writing never allocates — encode hot paths
// wrap fixed-size stack arrays.
func WrapBitWriter(buf []byte) BitWriter { return BitWriter{buf: buf[:0]} }

// Reset clears the writer for reuse, keeping its backing buffer.
func (w *BitWriter) Reset() {
	w.buf = w.buf[:0]
	w.bits = 0
}

// WriteBits appends the n low bits of v, LSB first. n must be in [0, 64].
// The write runs a byte at a time — merge into the current partial byte,
// then whole-byte stores — instead of bit-by-bit.
//
// Growth is deliberately written without append: append makes escape
// analysis move every stack-backed writer to the heap, defeating
// WrapBitWriter's purpose. With a right-sized buffer (every compressor
// here has a known worst case) the grow branch never runs and the call
// is allocation-free.
func (w *BitWriter) WriteBits(v uint64, n int) {
	if n <= 0 {
		return
	}
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	need := (w.bits + n + 7) / 8
	for need > cap(w.buf) {
		w.grow()
	}
	// Newly exposed bytes must be zeroed: Wrap callers hand in
	// uninitialized storage.
	for len(w.buf) < need {
		w.buf = w.buf[:len(w.buf)+1]
		w.buf[len(w.buf)-1] = 0
	}
	idx := w.bits >> 3
	off := uint(w.bits) & 7
	w.bits += n
	w.buf[idx] |= byte(v << off)
	v >>= 8 - off
	written := 8 - int(off)
	for idx++; written < n; idx++ {
		w.buf[idx] = byte(v)
		v >>= 8
		written += 8
	}
}

// grow replaces the backing buffer with a larger heap copy; only hit
// when a writer was constructed with too little capacity.
func (w *BitWriter) grow() {
	nb := make([]byte, len(w.buf), 2*cap(w.buf)+8)
	copy(nb, w.buf)
	w.buf = nb
}

// Len returns the number of bits written so far.
func (w *BitWriter) Len() int { return w.bits }

// Bytes returns the packed stream. The final byte is zero-padded.
func (w *BitWriter) Bytes() []byte { return w.buf }

// wordReader consumes an LSB-first bit stream held in 64-bit words:
// stream bit i is bit i%64 of buf[i/64], the layout COCPack writes and
// the little-endian word view of a BitWriter stream. Reading past the
// end yields zero bits, mirroring the zero padding a fixed-size memory
// line provides.
type wordReader struct {
	buf []uint64
	pos int
}

// peek returns the next 64 stream bits without consuming them.
func (r *wordReader) peek() uint64 {
	k, off := r.pos>>6, uint(r.pos&63)
	var v uint64
	if k < len(r.buf) {
		v = r.buf[k] >> off
	}
	if k+1 < len(r.buf) {
		v |= r.buf[k+1] << (64 - off) // a shift by 64 is 0 when off is 0
	}
	return v
}

// ReadBits consumes the next n bits, n in [0, 64], and returns them LSB
// first.
func (r *wordReader) ReadBits(n int) uint64 {
	v := r.peek()
	r.pos += n
	if n < 64 {
		v &= 1<<uint(n) - 1
	}
	return v
}
