package wlcrc_test

import (
	"math"
	"testing"

	"wlcrc"
)

// memoryPin is a Memory's totals after memoryPinSequence, with the float
// sums as exact bit patterns.
type memoryPin struct {
	writes, updated, compressed int
	energyBits, disturbBits     uint64
}

// memoryPinSequence replays a fixed plaintext gcc stream over a small
// footprint, so lines are rewritten and counter-keyed schemes advance
// their per-line write counters, and checks every line reads back as its
// last write.
func memoryPinSequence(t *testing.T, name string, opts ...wlcrc.MemOption) memoryPin {
	t.Helper()
	mem := wlcrc.NewMemory(wlcrc.MustScheme(name), opts...)
	w, err := wlcrc.NewWorkload("gcc", 48, 5)
	if err != nil {
		t.Fatal(err)
	}
	last := map[uint64]wlcrc.Line{}
	for i := 0; i < 600; i++ {
		r := w.Next()
		mem.Write(r.Addr, r.New)
		last[r.Addr] = r.New
	}
	if mem.Lines() != len(last) {
		t.Errorf("%s: Lines = %d, want %d", name, mem.Lines(), len(last))
	}
	for addr, want := range last {
		if !mem.Written(addr) {
			t.Errorf("%s: addr %#x not Written", name, addr)
		}
		if got := mem.Read(addr); got != want {
			t.Errorf("%s: addr %#x reads back wrong", name, addr)
		}
	}
	st := mem.Stats()
	return memoryPin{
		writes:      st.Writes,
		updated:     st.UpdatedCells,
		compressed:  st.CompressedWrites,
		energyBits:  math.Float64bits(st.EnergyPJ),
		disturbBits: math.Float64bits(st.DisturbErrors),
	}
}

// TestMemoryCounterSchemesPinned pins the public Memory's results for
// the counter-keyed schemes bit-exactly, so a change to how Memory
// stores lines or keeps write counters cannot shift them.
func TestMemoryCounterSchemesPinned(t *testing.T) {
	for _, c := range []struct {
		scheme  string
		sampled bool
		want    memoryPin
	}{
		{"VCC-4", false, memoryPin{600, 112031, 600, 0x4178adb950000000, 0x40b534ae147ae14e}},
		{"Enc(WLCRC-16)", false, memoryPin{600, 115148, 0, 0x417ca40f30000000, 0x40b362676c8b4390}},
		{"VCC-8", true, memoryPin{600, 111471, 600, 0x41776df570000000, 0x40b5a40000000000}},
	} {
		var opts []wlcrc.MemOption
		if c.sampled {
			opts = append(opts, wlcrc.WithDisturbSampling(7))
		}
		if got := memoryPinSequence(t, c.scheme, opts...); got != c.want {
			t.Errorf("%s (sampled=%v): stats = %#v, want %#v", c.scheme, c.sampled, got, c.want)
		}
	}
}

// TestMemoryWriteZeroAllocs: a warmed Memory writes without allocating,
// counter-keyed schemes included.
func TestMemoryWriteZeroAllocs(t *testing.T) {
	for _, name := range []string{"VCC-4", "Enc(WLCRC-16)", "WLCRC-16"} {
		mem := wlcrc.NewMemory(wlcrc.MustScheme(name))
		w, err := wlcrc.NewWorkload("gcc", 64, 9)
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]wlcrc.WriteRequest, 256)
		for i := range reqs {
			reqs[i] = w.Next()
			mem.Write(reqs[i].Addr, reqs[i].New)
		}
		i := 0
		avg := testing.AllocsPerRun(200, func() {
			r := &reqs[i%len(reqs)]
			mem.Write(r.Addr, r.New)
			i++
		})
		if avg != 0 {
			t.Errorf("%s: Memory.Write allocates %.2f objects/op, want 0", name, avg)
		}
	}
}
