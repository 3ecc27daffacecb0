package compress

import (
	"bytes"
	"encoding/binary"
	"testing"

	"wlcrc/internal/memline"
)

// cocBestRef is the reference compressor choice: every sign-extended
// width in ascending order through FitsSigned, the repeated units, then
// every delta width, each taken only when strictly narrower than the
// choice so far.
func cocBestRef(v, prev uint64, hasPrev bool) (tag int, payload uint64, bits int) {
	tag, payload, bits = cocRawTag, v, 64
	for i, w := range cocSEWidths {
		if w < bits && memline.FitsSigned(v, w) {
			tag, payload, bits = i, v&(1<<uint(w)-1), w
			break
		}
	}
	for i, unit := range []int{8, 16, 32} {
		mask := uint64(1)<<uint(unit) - 1
		rep := true
		for s := unit; s < 64; s += unit {
			rep = rep && v>>uint(s)&mask == v&mask
		}
		if unit < bits && rep {
			tag, payload, bits = cocRepByte+i, v&mask, unit
		}
	}
	if hasPrev {
		d := v - prev
		for i, w := range cocDeltaWidths {
			if w < bits && memline.FitsSigned(d, w) {
				tag, payload, bits = cocDelta0+i, d&(1<<uint(w)-1), w
				break
			}
		}
	}
	return tag, payload, bits
}

// cocCompressRef is the reference stream writer: each word's tag and
// payload through BitWriter, a byte at a time. It returns the packed
// bytes and the stream length in bits.
func cocCompressRef(l *memline.Line) ([]byte, int) {
	w := newBitWriter(COCMaxBits)
	var prev uint64
	for i := 0; i < memline.LineWords; i++ {
		v := l.Word(i)
		tag, payload, bits := cocBestRef(v, prev, i > 0)
		w.WriteBits(uint64(tag), cocTagBits)
		w.WriteBits(payload, bits)
		prev = v
	}
	return w.Bytes(), w.Len()
}

// cocFuzzLine shapes raw fuzz bytes into a line whose words exercise
// every compressor: word i takes one of six shapes, chosen by shape and
// i, from its raw bits x — raw, a signed value of 1 to 64 bits, a
// repeated byte, halfword or word, a signed delta of 1 to 64 bits from
// the previous word.
func cocFuzzLine(raw []byte, shape uint8) memline.Line {
	var buf [memline.LineBytes]byte
	copy(buf[:], raw)
	var l memline.Line
	var prev uint64
	for i := 0; i < memline.LineWords; i++ {
		x := binary.LittleEndian.Uint64(buf[8*i:])
		width := 1 + int(x>>58) // 1..64
		v := x
		switch (int(shape) + i*int(shape>>4+1)) % 6 {
		case 1:
			v = memline.SignExtend(x, width)
		case 2:
			v = x & 0xFF * 0x0101010101010101
		case 3:
			v = x & 0xFFFF * 0x0001000100010001
		case 4:
			v = x&0xFFFFFFFF | x<<32
		case 5:
			v = prev + memline.SignExtend(x, width)
		}
		l.SetWord(i, v)
		prev = v
	}
	return l
}

// FuzzCOCPack holds the word packer to the byte stream: COCPack's words
// are the reference writer's bytes and bit length, every bit past the stream is
// zero, COCSize agrees, the per-word choice is the reference's, and the
// stream decompresses to the line.
func FuzzCOCPack(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(bytes.Repeat([]byte{0xFF}, memline.LineBytes), uint8(1))
	f.Add([]byte("\x01\x02\x03\x04\x05\x06\x07\x08\x80\x00\x00\x00\x00\x00\x00\xF0"), uint8(2))
	f.Add(bytes.Repeat([]byte{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC, 0xDE, 0x0F}, 8), uint8(0x35))
	f.Add(bytes.Repeat([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x84}, 8), uint8(0x55))
	// Shape 0x54 leaves every word as its raw bytes: 0xF800000000000001
	// needs 60 signed bits, the widest SE payload (top bit set), whose
	// field with its tag spans 65 bits.
	f.Add(bytes.Repeat([]byte{0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8}, 8), uint8(0x54))
	f.Fuzz(func(t *testing.T, raw []byte, shape uint8) {
		l := cocFuzzLine(raw, shape)
		var prev uint64
		for i := 0; i < memline.LineWords; i++ {
			v := l.Word(i)
			gt, gp, gb := cocBest(v, prev, i > 0)
			wt, wp, wb := cocBestRef(v, prev, i > 0)
			if gt != wt || gp != wp || gb != wb {
				t.Fatalf("word %d %#x (prev %#x): cocBest (%d, %#x, %d), reference (%d, %#x, %d)", i, v, prev, gt, gp, gb, wt, wp, wb)
			}
			prev = v
		}
		want, wantBits := cocCompressRef(&l)
		var words [COCMaxWords]uint64
		for i := range words {
			words[i] = ^uint64(0) // COCPack must clear what it does not write
		}
		bits := COCPack(&l, &words)
		if bits != wantBits || COCSize(&l) != wantBits {
			t.Fatalf("bit lengths: COCPack %d, COCSize %d, reference %d", bits, COCSize(&l), wantBits)
		}
		var got [8 * COCMaxWords]byte
		for i, w := range words {
			binary.LittleEndian.PutUint64(got[8*i:], w)
		}
		if !bytes.Equal(got[:len(want)], want) {
			t.Fatalf("COCPack bytes %x, reference %x", got[:len(want)], want)
		}
		if bits%8 != 0 && got[len(want)-1]>>(bits%8) != 0 || !bytes.Equal(got[len(want):], make([]byte, len(got)-len(want))) {
			t.Fatalf("COCPack leaves bits past the %d-bit stream: %x", bits, got)
		}
		if back := COCDecompress(words[:]); back != l {
			t.Fatal("COCDecompress does not round-trip the packed stream")
		}
	})
}
