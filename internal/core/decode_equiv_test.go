package core

import (
	"sort"
	"testing"
	"time"

	"wlcrc/internal/coset"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
	"wlcrc/internal/workload"
)

// decodeSchemes are the schemes whose decoders this package owns, with
// their reference decoders (decode_ref_test.go): every plane scheme of
// the equivalence corpus and the Enc(...) form of each registered one.
func decodeSchemes(t testing.TB) (out []Scheme, refs []refDecodeFunc) {
	t.Helper()
	schemes := equivSchemes(t)
	for _, s := range allSchemes(t) {
		schemes = append(schemes, newTestScheme(t, "Enc("+s.Name()+")", DefaultConfig()))
	}
	for _, s := range schemes {
		ref, ok := refDecoder(s)
		if !ok {
			t.Fatalf("%s: no reference decoder", s.Name())
		}
		out = append(out, s)
		refs = append(refs, ref)
	}
	return out, refs
}

// checkDecodeMatchesRef decodes planes with s's production decoder and
// with its reference, which must produce the same line. Enc(...)
// schemes decode under the key the reference uses.
func checkDecodeMatchesRef(t *testing.T, s Scheme, ref refDecodeFunc, planes []uint64, what string) {
	t.Helper()
	var got, want memline.Line
	for i := range got {
		got[i], want[i] = 0xA5, 0x5A // every byte must be written
	}
	CtrPlaneCodec(s).DecodeCtrPlanesInto(planes, refAddr, refCtr, &got)
	ref(planes, &want)
	if got != want {
		t.Fatalf("%s, %s: decoders disagree\nplanes %x\ngot  %v\nwant %v", s.Name(), what, planes, &got, &want)
	}
}

// arbitraryPlanes fills a scheme's plane line with random states, and,
// when junk is set, random bits in the final plane word's cells past
// TotalCells, where the tail-zero invariant keeps zeros.
func arbitraryPlanes(r *prng.Xoshiro256, n int, junk bool) []uint64 {
	cells := make([]pcm.State, n)
	for i := range cells {
		cells[i] = pcm.State(r.Intn(pcm.NumStates))
	}
	planes := packedPlanes(cells)
	if rem := n % memline.WordCells; junk && rem != 0 {
		tail := coset.AllCells &^ coset.CellMask(0, rem)
		planes[len(planes)-2] |= r.Uint64() & tail
		planes[len(planes)-1] |= r.Uint64() & tail
	}
	return planes
}

// cocStreamPlanes stores a COC+4cosets line in a mode whose payload
// decodes, through C1 in every block, to the stream words given: the
// aux cells name candidate 0 (C1) and the payload past the mode's size
// is zero.
func cocStreamPlanes(stream [memline.LineWords]uint64, flag pcm.State) []uint64 {
	payloadBits := coc16PayloadBits
	if flag == cocFlag32 {
		payloadBits = coc32PayloadBits
	}
	k := payloadBits / 64
	stream[k] &= 1<<uint(payloadBits%64) - 1
	for i := k + 1; i < len(stream); i++ {
		stream[i] = 0
	}
	l := memline.FromWords(stream)
	planes := make([]uint64, coset.PlaneWords(memline.LineCells+1))
	rawEncodePlanes(&l, planes)
	setTailFlag(planes, flag)
	return planes
}

// cocTagStreams are COC payloads of tags 28-31, which name no
// compressor and decode as raw words, and of streams whose words run
// past the payload, so the readers go past its end.
func cocTagStreams(r *prng.Xoshiro256) [][memline.LineWords]uint64 {
	var out [][memline.LineWords]uint64
	for tag := uint64(0); tag < 32; tag++ {
		// Every word the same tag: tags 27-31 and wide widths read
		// past 448 and 480 bits.
		var s [memline.LineWords + 1]uint64
		pos := 0
		for w := 0; w < memline.LineWords && pos < 64*memline.LineWords-69; w++ {
			v := tag | r.Uint64()<<5
			s[pos>>6] |= v << uint(pos&63)
			if pos&63 != 0 {
				s[pos>>6+1] |= v >> uint(64-pos&63)
			}
			pos += 5 + int(r.Intn(64))
		}
		out = append(out, [memline.LineWords]uint64(s[:memline.LineWords]))
	}
	return out
}

// TestDecodeMatchesReference holds every production decoder to the
// decoder it replaced, bit for bit: on encoded lines, on arbitrary
// states (aux codes no group member owns, reserved flags, junk in the
// cells past TotalCells), and on COC+4cosets payloads of unused tags
// 28-31 and of streams that read past the payload.
func TestDecodeMatchesReference(t *testing.T) {
	r := prng.New(20261020)
	schemes, refs := decodeSchemes(t)
	for i, s := range schemes {
		n := s.TotalCells()
		enc := CtrPlaneCodec(s)
		for trial := 0; trial < 60; trial++ {
			data := randomBiasedLine(r)
			old := packedPlanes(randomOld(r, n))
			dst := make([]uint64, len(old))
			enc.EncodeCtrPlanesInto(dst, old, refAddr, refCtr, &data)
			checkDecodeMatchesRef(t, s, refs[i], dst, "encoded line")
			checkDecodeMatchesRef(t, s, refs[i], arbitraryPlanes(r, n, trial%2 == 1), "arbitrary states")
		}
	}
	coc := newTestScheme(t, "COC+4cosets", DefaultConfig())
	ref, _ := refDecoder(coc)
	for _, stream := range cocTagStreams(r) {
		for _, flag := range []pcm.State{cocFlag16, cocFlag32} {
			checkDecodeMatchesRef(t, coc, ref, cocStreamPlanes(stream, flag), "COC tag stream")
		}
	}
}

// FuzzDecodeMatchesReference is the fuzzed form of
// TestDecodeMatchesReference: arbitrary states for any scheme, junk
// past TotalCells included, and COC+4cosets payload streams.
func FuzzDecodeMatchesReference(f *testing.F) {
	f.Add(uint8(0), []byte{0}, uint64(0))
	f.Add(uint8(5), []byte{0, 1, 2, 3}, uint64(0))
	f.Add(uint8(7), []byte{3, 3, 3, 2, 1}, ^uint64(0))
	schemes, refs := decodeSchemes(f)
	coc := newTestScheme(f, "COC+4cosets", DefaultConfig())
	cocRef, _ := refDecoder(coc)
	f.Fuzz(func(t *testing.T, sel uint8, states []byte, junk uint64) {
		if len(states) == 0 {
			t.Skip("no states")
		}
		if sel == 255 {
			// states as a COC payload stream, in the mode junk picks.
			var stream [memline.LineWords]uint64
			for i, b := range states {
				stream[i/8%memline.LineWords] ^= uint64(b) << (8 * uint(i%8))
			}
			flag := []pcm.State{cocFlag16, cocFlag32}[junk&1]
			checkDecodeMatchesRef(t, coc, cocRef, cocStreamPlanes(stream, flag), "COC stream")
			return
		}
		s := schemes[int(sel)%len(schemes)]
		n := s.TotalCells()
		cells := make([]pcm.State, n)
		for i := range cells {
			cells[i] = pcm.State(states[i%len(states)] % 4)
		}
		planes := packedPlanes(cells)
		if rem := n % memline.WordCells; rem != 0 {
			tail := coset.AllCells &^ coset.CellMask(0, rem)
			planes[len(planes)-2] |= junk & tail
			planes[len(planes)-1] |= junk >> 32 & tail
		}
		checkDecodeMatchesRef(t, s, refs[int(sel)%len(schemes)], planes, "fuzzed states")
	})
}

// TestC1ClosedForm pins the closed forms the raw path encodes and
// decodes with — state lo = b0 ^ b1, hi = b0, and back b0 = hi,
// b1 = lo ^ hi — against coset.C1 and its SWAR view for all four
// symbols, so a change to C1 fails here.
func TestC1ClosedForm(t *testing.T) {
	want := coset.Mapping{pcm.S1, pcm.S4, pcm.S2, pcm.S3}
	if coset.C1 != want {
		t.Fatalf("coset.C1 = %v, the closed forms encode %v", coset.C1, want)
	}
	for sym := uint64(0); sym < 4; sym++ {
		var l memline.Line
		l.SetWord(0, sym<<6) // cell 3 holds sym
		planes := make([]uint64, coset.PlaneWords(memline.LineCells))
		rawEncodePlanes(&l, planes)
		st := pcm.State(planes[0]>>3&1 | planes[1]>>3&1<<1)
		if st != coset.C1[sym] {
			t.Errorf("symbol %02b: closed form stores %v, C1 maps it to %v", sym, st, coset.C1[sym])
		}
		b0, b1 := sym&1, sym>>1
		slo, shi := coset.C1SWAR.ApplyPlanes(b0<<3, b1<<3)
		if slo != planes[0] || shi != planes[1] {
			t.Errorf("symbol %02b: closed form planes (%b, %b), C1SWAR (%b, %b)", sym, planes[0], planes[1], slo, shi)
		}
		if got := rawDecodeWord(planes[0], planes[1]); got != sym<<6 {
			t.Errorf("symbol %02b: closed-form decode %#x", sym, got)
		}
		if dlo, dhi := coset.C1SWAR.ApplyInvPlanes(planes[0], planes[1]); dlo != b0<<3 || dhi != b1<<3 {
			t.Errorf("symbol %02b: C1SWAR decodes (%b, %b)", sym, dlo, dhi)
		}
	}
}

// decodePool is a steady-state pool of one scheme's stored lines: line
// k of a gcc stream stored over its predecessor at that address, the
// planes a replay's Verify decodes.
func decodePool(b *testing.B, s Scheme) [][]uint64 {
	g := workload.NewGenerator(gccProfile(b), 64, 9)
	ps := CtrPlaneCodec(s)
	n := coset.PlaneWords(s.TotalCells())
	fresh := make([]uint64, n)
	pool := make([][]uint64, 64)
	for k := range pool {
		warm, _ := g.Next()
		next, _ := g.Next()
		old := make([]uint64, n)
		pool[k] = make([]uint64, n)
		ps.EncodeCtrPlanesInto(old, fresh, uint64(k), 1, &warm.New)
		ps.EncodeCtrPlanesInto(pool[k], old, uint64(k), 2, &next.New)
	}
	return pool
}

func gccProfile(b *testing.B) workload.Profile {
	p, ok := workload.ProfileByName("gcc")
	if !ok {
		b.Fatal("no gcc profile")
	}
	return p
}

// BenchmarkDecodePaired is the in-process paired rung of the plane
// decoders: each Fig. 8 scheme's production DecodePlanesInto against
// the decoder it replaced (decode_ref_test.go), on one steady-state gcc
// pool per scheme. One op is one round: every arm decodes its pool
// sixteen times, in an order that rotates each round, so the two arms
// of a scheme share the machine's state of the moment. The rung
// reports, per scheme, the median over the rounds of that round's
// new/ref time ratio.
func BenchmarkDecodePaired(b *testing.B) {
	type arm struct {
		dec  func(planes []uint64, dst *memline.Line)
		pool [][]uint64
	}
	names := EvaluationSchemes()
	var arms []arm // new and ref arm of names[i] at 2i and 2i+1
	for _, name := range names {
		s, err := NewScheme(name, DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		ps, _ := PlaneCodec(s)
		ref, ok := refDecoder(s)
		if !ok {
			b.Fatalf("%s: no reference decoder", name)
		}
		pool := decodePool(b, s)
		arms = append(arms, arm{ps.DecodePlanesInto, pool}, arm{ref, pool})
	}
	const passes = 16 // pool passes per arm per round
	var out memline.Line
	run := func(a *arm) time.Duration {
		start := time.Now()
		for p := 0; p < passes; p++ {
			for _, planes := range a.pool {
				a.dec(planes, &out)
			}
		}
		return time.Since(start)
	}
	ratios := make([][]float64, len(names))
	took := make([]time.Duration, len(arms))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range arms {
			a := (i + j) % len(arms)
			took[a] = run(&arms[a])
		}
		for s := range names {
			ratios[s] = append(ratios[s], took[2*s].Seconds()/took[2*s+1].Seconds())
		}
	}
	for s, name := range names {
		sort.Float64s(ratios[s])
		m := len(ratios[s])
		b.ReportMetric((ratios[s][(m-1)/2]+ratios[s][m/2])/2, name+"-new/ref")
	}
}
