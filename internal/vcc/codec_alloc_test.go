package vcc_test

import (
	"strings"
	"testing"

	"wlcrc/internal/core"
	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// TestCellCodecAllocs: the cell-vector codec of every counter-keyed
// scheme packs and unpacks without allocating — VCC through stack
// buffers, the Enc(...) wrapper through the sync.Pool of staging
// records its plane codec already uses in replay — so perfbench's
// per-scheme codec probes time the codec, not the allocator. Under
// -race the pool drops records at random, so the Enc(...) rows are
// checked only without it.
func TestCellCodecAllocs(t *testing.T) {
	r := prng.New(11)
	for _, name := range []string{"VCC-2", "VCC-4", "VCC-8", "Enc(WLCRC-16)", "Enc(Baseline)"} {
		if raceEnabled && strings.HasPrefix(name, "Enc(") {
			continue
		}
		sch, err := core.NewScheme(name, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		s := sch.(core.CounterScheme)
		var data, got memline.Line
		r.Fill(data[:])
		old := make([]pcm.State, sch.TotalCells())
		for i := range old {
			old[i] = pcm.State(r.Intn(pcm.NumStates))
		}
		dst := make([]pcm.State, sch.TotalCells())
		if a := testing.AllocsPerRun(100, func() { s.EncodeCtrInto(dst, old, 3, 4, &data) }); a != 0 {
			t.Errorf("%s EncodeCtrInto: %v allocs/op", name, a)
		}
		if a := testing.AllocsPerRun(100, func() { s.DecodeCtrInto(dst, 3, 4, &got) }); a != 0 {
			t.Errorf("%s DecodeCtrInto: %v allocs/op", name, a)
		}
		if !got.Equal(&data) {
			t.Errorf("%s: cell codec round trip failed", name)
		}
	}
}
