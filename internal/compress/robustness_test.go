package compress

import (
	"testing"

	"wlcrc/internal/prng"
)

// Decompressors must tolerate arbitrary (corrupt) input buffers without
// panicking: a decoder fed garbage produces a garbage line, not a crash.
func TestDecompressorsNeverPanicOnGarbage(t *testing.T) {
	r := prng.New(999)
	for trial := 0; trial < 2000; trial++ {
		n := r.Intn(80)
		buf := make([]byte, n)
		r.Fill(buf)
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("trial %d (len %d): panic: %v", trial, n, p)
				}
			}()
			_ = fpcDecompress(streamWords(buf))
			_ = bdiDecompress(streamWords(buf))
			_ = COCDecompress(streamWords(buf))
			_ = FPCBDIDecompress(streamWords(buf))
		}()
	}
}

// Truncating a valid stream must also be safe.
func TestDecompressorsTolerateTruncation(t *testing.T) {
	r := prng.New(1001)
	l := randomLine(r)
	for _, tc := range []struct {
		name string
		comp func() []byte
		dec  func([]byte)
	}{
		{"FPC", func() []byte { b, _ := fpcCompress(&l); return b }, func(b []byte) { fpcDecompress(streamWords(b)) }},
		{"BDI", func() []byte { b, _ := bdiCompress(&l); return b }, func(b []byte) { bdiDecompress(streamWords(b)) }},
		{"COC", func() []byte { b, _ := cocCompressRef(&l); return b }, func(b []byte) { COCDecompress(streamWords(b)) }},
	} {
		buf := tc.comp()
		for cut := 0; cut <= len(buf); cut += 7 {
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("%s truncated to %d: panic: %v", tc.name, cut, p)
					}
				}()
				tc.dec(buf[:cut])
			}()
		}
	}
}
