package compress

import (
	"testing"
	"testing/quick"

	"wlcrc/internal/memline"
	"wlcrc/internal/prng"
)

func randomLine(r *prng.Xoshiro256) memline.Line {
	var l memline.Line
	r.Fill(l[:])
	return l
}

// --- BitWriter / BitReader ---

func TestBitIORoundTrip(t *testing.T) {
	w := newBitWriter(128)
	w.WriteBits(0b101, 3)
	w.WriteBits(0xdeadbeef, 32)
	w.WriteBits(1, 1)
	w.WriteBits(0xffffffffffffffff, 64)
	if w.Len() != 100 {
		t.Fatalf("Len = %d, want 100", w.Len())
	}
	r := NewBitReader(w.Bytes())
	if got := r.ReadBits(3); got != 0b101 {
		t.Errorf("first field = %#x", got)
	}
	if got := r.ReadBits(32); got != 0xdeadbeef {
		t.Errorf("second field = %#x", got)
	}
	if got := r.ReadBits(1); got != 1 {
		t.Errorf("third field = %d", got)
	}
	if got := r.ReadBits(64); got != 0xffffffffffffffff {
		t.Errorf("fourth field = %#x", got)
	}
	if r.Pos() != 100 {
		t.Errorf("Pos = %d", r.Pos())
	}
	// Reading past the end yields zeros.
	if got := r.ReadBits(8); got != 0 {
		t.Errorf("past-end read = %#x", got)
	}
}

func TestQuickBitIO(t *testing.T) {
	f := func(vals [8]uint64, widths [8]uint8) bool {
		w := newBitWriter(512)
		want := make([]uint64, 8)
		ns := make([]int, 8)
		for i := range vals {
			n := int(widths[i]) % 65
			ns[i] = n
			if n < 64 {
				want[i] = vals[i] & (1<<uint(n) - 1)
			} else {
				want[i] = vals[i]
			}
			w.WriteBits(vals[i], n)
		}
		r := NewBitReader(w.Bytes())
		for i := range vals {
			if r.ReadBits(ns[i]) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// --- WLC ---

func TestWLCWordCompressible(t *testing.T) {
	w := WLC{K: 6}
	cases := []struct {
		v    uint64
		want bool
	}{
		{0, true},
		{^uint64(0), true},
		{1 << 57, true},            // top 6 bits zero
		{1 << 58, false},           // bit 58 set breaks the run
		{0xfc00000000000000, true}, // top 6 ones
		{0xf800000000000000, false},
	}
	for _, c := range cases {
		if got := w.WordCompressible(c.v); got != c.want {
			t.Errorf("WordCompressible(%#x) = %v", c.v, got)
		}
	}
	if w.Reclaimed() != 5 {
		t.Errorf("Reclaimed = %d, want 5", w.Reclaimed())
	}
}

func TestWLCCompressDecompress(t *testing.T) {
	w := WLC{K: 6}
	for _, v := range []uint64{0, ^uint64(0), 0x03ffffffffffffff, 0xfc00000000001234, 42} {
		if !w.WordCompressible(v) {
			t.Fatalf("%#x should be compressible", v)
		}
		c := w.CompressWord(v)
		// Reclaimed field must be clear.
		if memline.BitField(c, 59, 5) != 0 {
			t.Errorf("reclaimed field not cleared: %#x", c)
		}
		// Stuff aux garbage into the reclaimed field; decompression must
		// still recover the original word.
		dirty := memline.SetBitField(c, 59, 5, 0b10101)
		if got := w.DecompressWord(dirty); got != v {
			t.Errorf("DecompressWord(%#x) = %#x, want %#x", dirty, got, v)
		}
	}
}

func TestWLCLineRoundTrip(t *testing.T) {
	w := WLC{K: 6}
	var l memline.Line
	l.SetWord(0, 0x0000000000001234)
	l.SetWord(1, ^uint64(0))
	l.SetWord(2, 0xffffff0000000000)
	for i := 3; i < 8; i++ {
		l.SetWord(i, uint64(i))
	}
	if !w.LineCompressible(&l) {
		t.Fatal("line should be compressible")
	}
	c := w.CompressLine(&l)
	var d memline.Line
	for i := 0; i < memline.LineWords; i++ {
		d.SetWord(i, w.DecompressWord(c.Word(i)))
	}
	if !d.Equal(&l) {
		t.Error("line round trip failed")
	}
}

func TestWLCLineNotCompressible(t *testing.T) {
	w := WLC{K: 6}
	var l memline.Line
	l.SetWord(4, 0x4000000000000000)
	if w.LineCompressible(&l) {
		t.Error("line with non-compressible word reported compressible")
	}
}

func TestQuickWLCRoundTrip(t *testing.T) {
	for k := 4; k <= 9; k++ {
		w := WLC{K: k}
		f := func(raw uint64, aux uint16) bool {
			// Force compressibility by sign-extending.
			v := memline.SignExtend(raw&(1<<uint(64-k)-1), 65-k)
			if !w.WordCompressible(v) {
				return false
			}
			c := w.CompressWord(v)
			dirty := memline.SetBitField(c, 64-w.Reclaimed(), w.Reclaimed(), uint64(aux))
			return w.DecompressWord(dirty) == v
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("k=%d: %v", k, err)
		}
	}
}

// --- FPC ---

func TestFPCZeroLine(t *testing.T) {
	var l memline.Line
	_, bits := fpcCompress(&l)
	// 16 zero words = 2 runs of 8 = 2*(3+3) = 12 bits.
	if bits != 12 {
		t.Errorf("zero line FPC size = %d, want 12", bits)
	}
}

func TestFPCRoundTripPatterns(t *testing.T) {
	lines := []memline.Line{}
	var l memline.Line
	lines = append(lines, l)         // zeros
	l.SetWord(0, 7)                  // 4-bit SE
	l.SetWord(1, 0xffffffffffffff85) // 8-bit SE in both halves? hi=0xffffffff (SE4 of -1), lo=0xffffff85
	l.SetWord(2, 0x00001234_00005678)
	l.SetWord(3, 0xabcd0000_000000ff) // padded half + 8-bit
	l.SetWord(4, 0x7f7f7f7f_11223344) // repeated bytes + raw
	lines = append(lines, l)
	r := prng.New(3)
	for i := 0; i < 50; i++ {
		lines = append(lines, randomLine(r))
	}
	for i, ln := range lines {
		buf, _ := fpcCompress(&ln)
		got := fpcDecompress(streamWords(buf))
		if !got.Equal(&ln) {
			t.Fatalf("line %d: FPC round trip failed\n in: %v\nout: %v", i, ln.String(), got.String())
		}
	}
}

func TestFPCRandomLineIsLarge(t *testing.T) {
	r := prng.New(9)
	l := randomLine(r)
	if s := fpcSize(&l, FPCMaxBits); s < 500 {
		t.Errorf("random line FPC size = %d, suspiciously small", s)
	}
}

// --- BDI ---

func TestBDIZeroAndRep(t *testing.T) {
	var l memline.Line
	if s := bdiSize(&l); s != 4 {
		t.Errorf("zeros size = %d, want 4", s)
	}
	for i := 0; i < memline.LineWords; i++ {
		l.SetWord(i, 0xdeadbeefcafebabe)
	}
	if s := bdiSize(&l); s != 68 {
		t.Errorf("rep8 size = %d, want 68", s)
	}
}

func TestBDIBaseDelta(t *testing.T) {
	var l memline.Line
	base := uint64(0x00007f8812340000)
	for i := 0; i < memline.LineWords; i++ {
		l.SetWord(i, base+uint64(i*16))
	}
	buf, bits := bdiCompress(&l)
	// base8-delta1: 4 + 64 + 8*8 + 8 = 140.
	if bits != 140 {
		t.Errorf("pointer line size = %d, want 140", bits)
	}
	got := bdiDecompress(streamWords(buf))
	if !got.Equal(&l) {
		t.Fatal("BDI round trip failed")
	}
}

func TestBDIMixedZeroBase(t *testing.T) {
	// Half small values (zero base), half near one large base.
	var l memline.Line
	for i := 0; i < memline.LineWords; i++ {
		if i%2 == 0 {
			l.SetWord(i, uint64(i))
		} else {
			l.SetWord(i, 0x5500000000000000+uint64(i))
		}
	}
	buf, _ := bdiCompress(&l)
	got := bdiDecompress(streamWords(buf))
	if !got.Equal(&l) {
		t.Fatal("BDI immediate round trip failed")
	}
}

func TestBDIRoundTripRandom(t *testing.T) {
	r := prng.New(17)
	for i := 0; i < 100; i++ {
		l := randomLine(r)
		buf, bits := bdiCompress(&l)
		got := bdiDecompress(streamWords(buf))
		if !got.Equal(&l) {
			t.Fatalf("BDI round trip failed for random line %d", i)
		}
		if bits != 4+memline.LineBits {
			// Random lines should almost always be raw; tolerate rare
			// compressible ones but they must still round trip.
			t.Logf("random line %d compressed to %d bits", i, bits)
		}
	}
}

func TestFPCBDISelectsBetter(t *testing.T) {
	// Pointer-style line: BDI shines, FPC does not.
	var l memline.Line
	for i := 0; i < memline.LineWords; i++ {
		l.SetWord(i, 0x00007f8812340000+uint64(i*8))
	}
	if got := FPCBDISize(&l); got != bdiSize(&l)+1 {
		t.Errorf("FPCBDISize = %d, want BDI+1 = %d", got, bdiSize(&l)+1)
	}
	// Small-int line: FPC wins.
	var l2 memline.Line
	for i := 0; i < memline.LineWords; i++ {
		l2.SetWord(i, uint64(i)) // each 32-bit half is tiny
	}
	if got := FPCBDISize(&l2); got != fpcSize(&l2, FPCMaxBits)+1 {
		t.Errorf("FPCBDISize = %d, want FPC+1 = %d", got, fpcSize(&l2, FPCMaxBits)+1)
	}
}

func TestFPCBDIRoundTrip(t *testing.T) {
	r := prng.New(23)
	for i := 0; i < 60; i++ {
		l := randomLine(r)
		if i%3 == 0 {
			// Make some lines compressible.
			for w := 0; w < memline.LineWords; w++ {
				l.SetWord(w, uint64(int64(int8(l[w]))))
			}
		}
		buf, _ := fpcbdiCompress(&l)
		got := FPCBDIDecompress(streamWords(buf))
		if !got.Equal(&l) {
			t.Fatalf("FPC+BDI round trip failed for line %d", i)
		}
	}
}

// TestFPCBDICompressLimit holds the limited writer DIN stores through
// to the unlimited one: at or under the limit it writes the same
// stream, past it nothing, and it reports FPCBDISize either way when
// that fits the limit.
func TestFPCBDICompressLimit(t *testing.T) {
	const limit = 369
	r := prng.New(29)
	wrote, skipped := 0, 0
	for i := 0; i < 200; i++ {
		l := randomLine(r)
		if i%2 == 0 {
			for w := 0; w < memline.LineWords; w++ {
				l.SetWord(w, uint64(int64(int16(l.Word(w)))))
			}
		}
		want, wantBits := fpcbdiCompress(&l)
		w := newBitWriter(limit)
		bits := FPCBDICompressLimit(&l, w, limit)
		if wantBits <= limit {
			wrote++
			if bits != wantBits || bits != FPCBDISize(&l) || string(w.Bytes()) != string(want) {
				t.Fatalf("line %d: limited stream (%d bits) differs from the unlimited one (%d bits)", i, bits, wantBits)
			}
			continue
		}
		skipped++
		if bits <= limit || w.Len() != 0 {
			t.Fatalf("line %d: %d-bit stream over the limit returned %d with %d bits written", i, wantBits, bits, w.Len())
		}
	}
	if wrote == 0 || skipped == 0 {
		t.Fatalf("fixture wrote %d and skipped %d lines, want both", wrote, skipped)
	}
}

// --- COC ---

func TestCOCMenuSize(t *testing.T) {
	if NumCOCCompressors != 28 {
		t.Errorf("menu has %d compressors, want 28", NumCOCCompressors)
	}
	if len(cocSEWidths)+3+len(cocDeltaWidths)+1 != 28 {
		t.Errorf("tag space inconsistent")
	}
}

func TestCOCZeroLine(t *testing.T) {
	var l memline.Line
	// Every word: tag(5) + SE width 1 = 6 bits -> 48 bits total.
	if s := COCSize(&l); s != 48 {
		t.Errorf("zero line COC size = %d, want 48", s)
	}
}

func TestCOCDeltaChain(t *testing.T) {
	var l memline.Line
	base := uint64(0x123456789abcdef0)
	for i := 0; i < memline.LineWords; i++ {
		l.SetWord(i, base+uint64(i)*3)
	}
	// Word 0 raw (or rep), words 1..7 tiny deltas.
	s := COCSize(&l)
	if s >= 512 {
		t.Errorf("delta chain did not compress: %d bits", s)
	}
	buf, _ := cocCompressRef(&l)
	got := COCDecompress(streamWords(buf))
	if !got.Equal(&l) {
		t.Fatal("COC round trip failed")
	}
}

func TestCOCRoundTripRandom(t *testing.T) {
	r := prng.New(31)
	for i := 0; i < 200; i++ {
		l := randomLine(r)
		switch i % 4 {
		case 1: // sign-extended words
			for w := 0; w < memline.LineWords; w++ {
				l.SetWord(w, memline.SignExtend(l.Word(w)&0xffffff, 24))
			}
		case 2: // repeated halfwords
			for w := 0; w < memline.LineWords; w++ {
				h := l.Word(w) & 0xffff
				l.SetWord(w, h*0x0001000100010001)
			}
		}
		buf, _ := cocCompressRef(&l)
		got := COCDecompress(streamWords(buf))
		if !got.Equal(&l) {
			t.Fatalf("COC round trip failed for line %d", i)
		}
	}
}

func TestCOCCoversMoreThanFPCBDI(t *testing.T) {
	// A line of unrelated pointers with a shared high part compresses
	// under COC's delta menu but not to DIN's 369-bit FPC+BDI threshold.
	var l memline.Line
	r := prng.New(5)
	base := uint64(0x00007fa400000000)
	for i := 0; i < memline.LineWords; i++ {
		l.SetWord(i, base|uint64(r.Uint32()&0x00ffffff))
	}
	if COCSize(&l) > 448 {
		t.Errorf("COC size = %d, want <= 448", COCSize(&l))
	}
}

func TestQuickCOCRoundTrip(t *testing.T) {
	f := func(ws [memline.LineWords]uint64) bool {
		l := memline.FromWords(ws)
		buf, _ := cocCompressRef(&l)
		got := COCDecompress(streamWords(buf))
		return got.Equal(&l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFPCRoundTrip(t *testing.T) {
	f := func(ws [memline.LineWords]uint64) bool {
		l := memline.FromWords(ws)
		buf, _ := fpcCompress(&l)
		got := fpcDecompress(streamWords(buf))
		return got.Equal(&l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickBDIRoundTrip(t *testing.T) {
	f := func(ws [memline.LineWords]uint64) bool {
		l := memline.FromWords(ws)
		buf, _ := bdiCompress(&l)
		got := bdiDecompress(streamWords(buf))
		return got.Equal(&l)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
