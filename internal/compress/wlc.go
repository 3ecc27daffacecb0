package compress

import "wlcrc/internal/memline"

// WLC implements the paper's Word-Level Compression (§IV, Fig 6a).
//
// A 64-bit word is k-compressible when its k most significant bits are
// all 0 or all 1 — i.e. the word is a sign-extended (65-k)-bit value. A
// 512-bit line is compressible when all eight of its words are. Upon
// compression the k MSBs collapse into the single representative bit
// b(64-k), reclaiming the top r = k-1 bits of every word for auxiliary
// coset-encoding information. Decompression sign-extends b(64-k) back
// into the reclaimed field.
type WLC struct {
	// K is the number of most-significant bits that must be identical
	// for a word to compress. Figure 4 sweeps K from 4 to 9; WLCRC-16
	// uses K=6.
	K int
}

// Reclaimed returns the number of bits WLC frees per word (k-1).
func (w WLC) Reclaimed() int { return w.K - 1 }

// WordCompressible reports whether the top K bits of v are identical.
func (w WLC) WordCompressible(v uint64) bool {
	return memline.MSBRun(v) >= w.K
}

// LineCompressible reports whether every word of the line compresses.
func (w WLC) LineCompressible(l *memline.Line) bool {
	for i := 0; i < memline.LineWords; i++ {
		if !w.WordCompressible(l.Word(i)) {
			return false
		}
	}
	return true
}

// CompressWord clears the reclaimed field (the top k-1 bits) of v,
// leaving the representative bit b(64-K) and the data bits in place. The
// caller stores auxiliary bits in the cleared field. v must be
// K-compressible.
func (w WLC) CompressWord(v uint64) uint64 {
	r := w.Reclaimed()
	return memline.SetBitField(v, 64-r, r, 0)
}

// DecompressWord reconstructs the original word from a compressed word
// (whose reclaimed field may hold arbitrary auxiliary bits) by extending
// the representative bit b(64-K) into the reclaimed field, "similar to
// sign extension" (§IV) — which it is: the word sign-extended from
// that bit.
func (w WLC) DecompressWord(v uint64) uint64 {
	r := uint(w.Reclaimed())
	return uint64(int64(v<<r) >> r)
}

// CompressLine applies CompressWord to every word. The line must be
// LineCompressible.
func (w WLC) CompressLine(l *memline.Line) memline.Line {
	var out memline.Line
	for i := 0; i < memline.LineWords; i++ {
		out.SetWord(i, w.CompressWord(l.Word(i)))
	}
	return out
}
