// Package vcc implements Virtual Coset Coding for counter-mode
// encrypted PCM, after Longofono, Seyedzadeh & Jones (arXiv:2112.01658).
//
// Counter-mode memory encryption hands the write encoder uniformly
// random ciphertext: every write re-encrypts the whole line under a
// fresh per-line counter, so compression-gated schemes like WLCRC lose
// their gate (no line is WLC-compressible) and differential write loses
// its locality (the ciphertext changes wholesale even when the
// plaintext barely moved). VCC recovers coset-style write reduction on
// exactly this traffic: instead of the fixed Table-I candidates it
// derives n fresh pseudo-random candidate vectors per write from the
// same (key, address, counter) tuple the encryption pad comes from, XORs
// each candidate into the ciphertext word, prices the results with the
// word-parallel SWAR machinery of package coset, and stores only the
// winning candidate's index in auxiliary cells. Decode regenerates the
// identical candidates from (key, address, counter) — the counter is
// already maintained by the encryption engine, so it costs VCC nothing —
// undoes the winning XOR and then the encryption pad.
//
// The package provides three layers:
//
//   - Cipher: the deterministic keystream model — per-(key, addr,
//     counter) pads and candidate vectors (cipher.go).
//   - Scheme (VCC-2/4/8) and Encrypted (a wrapper that runs any inner
//     scheme on ciphertext): core.Scheme implementations registered in
//     internal/core (vcc.go, encrypted.go). Both implement the keyed
//     plane codec core.CounterPlaneScheme and its cell-vector form,
//     core.CounterScheme; neither has an address/counter-blind form.
//   - StreamEncryptor / EncryptSource: whiten a whole write-request
//     stream the way an encrypted DIMM would see it, for workloads and
//     traces (source.go).
package vcc

import (
	"wlcrc/internal/memline"
	"wlcrc/internal/prng"
)

// DefaultKey is the encryption key used when a caller does not supply
// one. Like core's flipMinSeed it pins the pseudo-random streams so
// every experiment is reproducible; it is not a security parameter.
const DefaultKey uint64 = 0x5EC2E7C0DE5EED01

// Cipher is the deterministic counter-mode encryption model: a keyed
// keystream PRNG addressed by (line address, per-line write counter).
// The zero value uses DefaultKey. Cipher is a value type with no
// mutable state, so it is safe to share across goroutines.
type Cipher struct {
	// Key is the memory encryption key; 0 means DefaultKey.
	Key uint64
}

// key returns the effective key.
func (c Cipher) key() uint64 {
	if c.Key == 0 {
		return DefaultKey
	}
	return c.Key
}

// mix64 is the splitmix64 output finalizer, used to whiten the
// (key, addr, ctr) tuple into a stream seed.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// seed derives the per-(addr, ctr) stream seed. Address and counter are
// folded in through distinct odd multipliers before the finalizer so
// (addr, ctr) and (ctr, addr) collide only accidentally.
func (c Cipher) seed(addr, ctr uint64) uint64 {
	return mix64(mix64(c.key()^addr*0x9e3779b97f4a7c15) ^ ctr*0xd1342543de82ef95)
}

// splitMixGamma is SplitMix64's state increment: output k of a stream
// seeded with z is mix64(z + (k+1)·splitMixGamma).
const splitMixGamma = 0x9e3779b97f4a7c15

// Keystream is random access into the keystream of one (addr, ctr): the
// stream Pad reads sequentially, any word of which costs one mix64.
// Words 0..7 are the pad and word LineWords·v + w is word w of virtual
// coset candidate v ≥ 1, so the encoder draws each candidate word where
// it prices it and the decoder regenerates only the winner's.
type Keystream struct{ seed uint64 }

// Keystream returns the random-access keystream of (addr, ctr).
func (c Cipher) Keystream(addr, ctr uint64) Keystream {
	return Keystream{c.seed(addr, ctr)}
}

// word returns output i of the stream.
func (ks Keystream) word(i int) uint64 {
	return mix64(ks.seed + uint64(i+1)*splitMixGamma)
}

// Pad returns word w of the line's pad (Pad's pad[w]).
func (ks Keystream) Pad(w int) uint64 { return ks.word(w) }

// Candidate returns word w of virtual coset candidate v: zero for
// v == 0, else output LineWords·v + w. Candidate 0 is the zero vector,
// so the raw ciphertext is a member of every candidate set and VCC can
// never do worse than the raw encrypted write on the cells it prices.
func (ks Keystream) Candidate(v, w int) uint64 {
	if v == 0 {
		return 0
	}
	return ks.word(memline.LineWords*v + w)
}

// Pad fills pad with the eight 64-bit keystream words of (addr, ctr) —
// the one-time pad a counter-mode AES engine would produce for the
// line. XORing the pad into a line encrypts it; XORing again decrypts.
func (c Cipher) Pad(addr, ctr uint64, pad *[memline.LineWords]uint64) {
	sm := prng.NewSplitMix64(c.seed(addr, ctr))
	for w := range pad {
		pad[w] = sm.Uint64()
	}
}

// WhitenLine XORs the (addr, ctr) keystream into l in place. The
// operation is an involution: applying it twice with the same (addr,
// ctr) restores l, so the same call encrypts and decrypts.
func (c Cipher) WhitenLine(l *memline.Line, addr, ctr uint64) {
	var pad [memline.LineWords]uint64
	c.Pad(addr, ctr, &pad)
	for w := 0; w < memline.LineWords; w++ {
		l.SetWord(w, l.Word(w)^pad[w])
	}
}
