package bch

import (
	"testing"

	"wlcrc/internal/prng"
)

// lfsrParity is the bit-serial reference encoder: polynomial division
// of msg(x)*x^20 by g(x) over GF(2), one message bit per LFSR step.
func lfsrParity(c *Code, msg []uint8) []uint8 {
	rem := make([]uint8, ParityBits)
	for i := len(msg) - 1; i >= 0; i-- {
		feedback := msg[i] ^ rem[ParityBits-1]
		copy(rem[1:], rem[:ParityBits-1])
		rem[0] = 0
		if feedback == 1 {
			for j := 0; j < ParityBits; j++ {
				rem[j] ^= c.gen[j]
			}
		}
	}
	return rem
}

// directSyndromes is the reference syndrome computation: the sum of
// alpha^i and alpha^(3i) over the codeword's set bits.
func directSyndromes(c *Code, codeword []uint8) (s1, s3 uint16) {
	for i, bit := range codeword {
		if bit == 1 {
			s1 ^= c.field.Exp(i)
			s3 ^= c.field.Exp(3 * i)
		}
	}
	return s1, s3
}

// packedWords packs msg into fresh words with random garbage above the
// message, which ParityWords must ignore.
func packedWords(r *prng.Xoshiro256, msg []uint8) []uint64 {
	words := make([]uint64, (len(msg)+63)/64+1)
	for i := range words {
		words[i] = r.Uint64()
	}
	for i, b := range msg {
		words[i/64] = words[i/64]&^(1<<(i%64)) | uint64(b)<<(i%64)
	}
	return words
}

var oracleLengths = []int{1, 7, 8, 9, 63, 64, 65, 369, 492, MaxMessageBits}

func TestParityMatchesLFSROracle(t *testing.T) {
	c := New()
	r := prng.New(11)
	for _, n := range oracleLengths {
		for trial := 0; trial < 50; trial++ {
			msg := randMsg(r, n)
			want := lfsrParity(c, msg)
			got := c.Encode(msg)
			var wantWord uint32
			for j, b := range want {
				if got[j] != b {
					t.Fatalf("n=%d trial %d: Encode parity bit %d = %d, oracle %d", n, trial, j, got[j], b)
				}
				wantWord |= uint32(b) << j
			}
			if p := c.ParityWords(packedWords(r, msg), n); p != wantWord {
				t.Fatalf("n=%d trial %d: ParityWords = %#x, oracle %#x", n, trial, p, wantWord)
			}
		}
	}
}

func TestSyndromesMatchDirectOracle(t *testing.T) {
	c := New()
	r := prng.New(12)
	for _, n := range oracleLengths {
		for trial := 0; trial < 50; trial++ {
			// Random received words, not just codewords, so the
			// remainder path is exercised on every syndrome value.
			cw := randMsg(r, ParityBits+n)
			w1, w3 := directSyndromes(c, cw)
			if s1, s3 := c.Syndromes(cw); s1 != w1 || s3 != w3 {
				t.Fatalf("n=%d trial %d: Syndromes = (%d,%d), oracle (%d,%d)", n, trial, s1, s3, w1, w3)
			}
			var parity uint32
			for j, b := range cw[:ParityBits] {
				parity |= uint32(b) << j
			}
			msg := packedWords(r, cw[ParityBits:])
			if s1, s3 := c.SyndromesWords(msg, n, parity); s1 != w1 || s3 != w3 {
				t.Fatalf("n=%d trial %d: SyndromesWords = (%d,%d), oracle (%d,%d)", n, trial, s1, s3, w1, w3)
			}
		}
	}
	// Codewords shorter than the parity field still evaluate directly.
	short := []uint8{1, 0, 1, 1}
	w1, w3 := directSyndromes(c, short)
	if s1, s3 := c.Syndromes(short); s1 != w1 || s3 != w3 {
		t.Errorf("short codeword: Syndromes = (%d,%d), oracle (%d,%d)", s1, s3, w1, w3)
	}
}

func TestDecodeCorrectsZeroOneTwoFlips(t *testing.T) {
	c := New()
	r := prng.New(13)
	for _, n := range []int{9, 65, 492} {
		msg := randMsg(r, n)
		clean := makeCodeword(c, msg)
		for flips := 0; flips <= 2; flips++ {
			for trial := 0; trial < 40; trial++ {
				cw := append([]uint8(nil), clean...)
				seen := map[int]bool{}
				for len(seen) < flips {
					p := r.Intn(len(cw))
					if !seen[p] {
						seen[p] = true
						cw[p] ^= 1
					}
				}
				got, ok := c.Decode(cw)
				if !ok || got != flips {
					t.Fatalf("n=%d flips=%d: Decode = %d, %v", n, flips, got, ok)
				}
				for i := range cw {
					if cw[i] != clean[i] {
						t.Fatalf("n=%d flips=%d: bit %d still wrong", n, flips, i)
					}
				}
			}
		}
	}
}

func TestParityWordsTooLongPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New().ParityWords(make([]uint64, msgWords+1), MaxMessageBits+1)
}

func BenchmarkParityWords492(b *testing.B) {
	c := New()
	words := packedWords(prng.New(8), randMsg(prng.New(6), 492))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkParity = c.ParityWords(words, 492)
	}
}

func BenchmarkLFSROracle492(b *testing.B) {
	c := New()
	msg := randMsg(prng.New(6), 492)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lfsrParity(c, msg)
	}
}

var sinkParity uint32
