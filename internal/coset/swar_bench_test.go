package coset

import (
	"testing"

	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// Candidate-pricing benchmarks: the SWAR word path against the
// table-driven scalar path, six candidates over one 32-cell word, and
// the block kernel over a whole line of pair registers.

func benchFixture() (words []uint64, olds [][]pcm.State) {
	r := prng.New(77)
	words = make([]uint64, 64)
	olds = make([][]pcm.State, 64)
	for i := range words {
		words[i] = r.Uint64()
		old := make([]pcm.State, memline.WordCells)
		for c := range old {
			old[c] = pcm.State(r.Intn(pcm.NumStates))
		}
		olds[i] = old
	}
	return words, olds
}

func BenchmarkSWARBestWord(b *testing.B) {
	em := pcm.DefaultEnergy()
	tabs := SWARTables(&em, SixCosets())
	words, olds := benchFixture()
	var p WordPlanes
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		k := i % len(words)
		p.Init(words[k], olds[k])
		_, cost := BestSWAR(tabs, &p, AllCells)
		sink += cost
	}
	_ = sink
}

// BenchmarkSWARBestBlocks prices the four Table I candidates over a
// whole line at 16-bit granularity (32 blocks of 8 cells, four pair
// registers) through the block kernel: one BestBlocks call per op.
func BenchmarkSWARBestBlocks(b *testing.B) {
	em := pcm.DefaultEnergy()
	tabs := SWARTables(&em, Table1[:])
	g := UniformBlocks(memline.LineCells, 8)
	words, olds := benchFixture()
	lines := make([]memline.Line, len(words)/memline.LineWords)
	oldPlanes := make([][]uint64, len(lines))
	for i := range lines {
		oldPlanes[i] = make([]uint64, 2*memline.LineWords)
		for w := 0; w < memline.LineWords; w++ {
			k := i*memline.LineWords + w
			lines[i].SetWord(w, words[k])
			oldPlanes[i][2*w], oldPlanes[i][2*w+1] = PackStates(olds[k])
		}
	}
	var p Regs
	var idx [32]uint8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := i % len(lines)
		p.Load(&lines[k], oldPlanes[k])
		BestBlocks(tabs, &p, g, idx[:])
	}
}

func BenchmarkScalarBestWord(b *testing.B) {
	em := pcm.DefaultEnergy()
	tabs := CostTables(&em, SixCosets())
	words, olds := benchFixture()
	var syms [memline.WordCells]uint8
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		k := i % len(words)
		memline.WordSymbols(words[k], &syms)
		_, cost := BestTable(tabs, syms[:], olds[k])
		sink += cost
	}
	_ = sink
}

func BenchmarkSWARApplyWord(b *testing.B) {
	em := pcm.DefaultEnergy()
	tab := C1.SWAR(&em)
	words, olds := benchFixture()
	out := make([]pcm.State, memline.WordCells)
	var p WordPlanes
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := i % len(words)
		p.Init(words[k], olds[k])
		lo, hi := tab.Apply(&p)
		UnpackStates(lo, hi, out)
	}
}

func BenchmarkScalarApplyWord(b *testing.B) {
	em := pcm.DefaultEnergy()
	tab := C1.CostTable(&em)
	words, _ := benchFixture()
	var syms [memline.WordCells]uint8
	out := make([]pcm.State, memline.WordCells)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		memline.WordSymbols(words[i%len(words)], &syms)
		tab.Encode(syms[:], out)
	}
}
