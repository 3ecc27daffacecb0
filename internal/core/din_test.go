package core

import (
	"slices"
	"testing"

	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// flipStoredBit flips line bit `bit` of a DIN-stored cell vector, the
// way a write-disturbance error corrupts the cell holding it.
func flipStoredBit(cells []pcm.State, bit int) {
	inv := coset.C1.Inverse()
	c := bit / 2
	cells[c] = coset.C1[inv[cells[c]]^1<<uint(bit%2)]
}

// TestDINCorrectsZeroOneTwoFlips flips 0, 1 or 2 random stored bits —
// payload or parity — of compressed lines and checks that CorrectLine
// reports and repairs exactly those, and that the repaired cells decode
// through the plane codec to the original data.
func TestDINCorrectsZeroOneTwoFlips(t *testing.T) {
	d := NewDIN(DefaultConfig())
	r := prng.New(81)
	lines := 0
	for lines < 40 {
		var data memline.Line
		for w := 0; w < memline.LineWords; w++ {
			data.SetWord(w, uint64(r.Uint32()&0xfff))
		}
		clean := encodeCells(d, InitialCells(d.TotalCells()), &data)
		if !d.CompressedWritePlanes(packedPlanes(clean)) {
			continue
		}
		lines++
		for flips := 0; flips <= 2; flips++ {
			cells := slices.Clone(clean)
			var bits []int
			for len(bits) < flips {
				if b := r.Intn(memline.LineBits); !slices.Contains(bits, b) {
					bits = append(bits, b)
				}
			}
			for _, b := range bits {
				flipStoredBit(cells, b)
			}
			planes := packedPlanes(cells)
			if n := d.CorrectLine(planes); n != flips {
				t.Fatalf("flips at %v: CorrectLine = %d", bits, n)
			}
			if !slices.Equal(planes, packedPlanes(clean)) {
				t.Fatalf("flips at %v: CorrectLine left planes differing from the clean encode", bits)
			}
			var got memline.Line
			d.DecodePlanesInto(planes, &got)
			if !got.Equal(&data) {
				t.Fatalf("flips at %v: DecodePlanesInto after correction mismatches", bits)
			}
			// Decoding without CorrectLine corrects on the fly too.
			dirty := slices.Clone(clean)
			for _, b := range bits {
				flipStoredBit(dirty, b)
			}
			d.DecodePlanesInto(packedPlanes(dirty), &got)
			if !got.Equal(&data) {
				t.Fatalf("flips at %v: DecodePlanesInto of uncorrected cells mismatches", bits)
			}
		}
	}
}

// FuzzDINPlanes round-trips fuzzed lines through DIN's plane codec and
// checks it against the scalar reference: the encoded planes must equal
// the packed reference encode, and the decoder must return the data.
func FuzzDINPlanes(f *testing.F) {
	f.Add(false, []byte{})
	f.Add(true, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(false, []byte{0xde, 0xad, 0xbe, 0xef})
	f.Add(true, []byte{0x80, 0x7f, 0, 0xff, 0x10})
	f.Fuzz(func(t *testing.T, small bool, body []byte) {
		var data memline.Line
		for i := range data {
			if len(body) > 0 {
				data[i] = body[i%len(body)]
			}
		}
		if small {
			// Sign-extended bytes: mostly FPC/BDI-compressible words,
			// so the expanded path is hit often.
			for w := 0; w < memline.LineWords; w++ {
				data.SetWord(w, uint64(int64(int8(data[w]))))
			}
		}
		d := NewDIN(DefaultConfig())
		n := d.TotalCells()
		cells := make([]pcm.State, n)
		refDIN(d, cells, &data)
		planes := make([]uint64, coset.PlaneWords(n))
		d.EncodePlanesInto(planes, make([]uint64, len(planes)), &data)
		if want := packedPlanes(cells); !slices.Equal(planes, want) {
			t.Fatalf("plane encode %x != packed reference encode %x", planes, want)
		}
		if d.CompressedWritePlanes(planes) != d.Compressible(&data) {
			t.Fatal("flag disagrees with the FPC+BDI gate")
		}
		var got memline.Line
		d.DecodePlanesInto(planes, &got)
		if !got.Equal(&data) {
			t.Fatal("plane round trip mismatch")
		}
	})
}
