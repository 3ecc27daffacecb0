package core

import (
	"slices"
	"testing"

	"wlcrc/internal/memline"
	"wlcrc/internal/pcm"
	"wlcrc/internal/prng"
)

// batchSchemes is allSchemes plus the counter-keyed families, whose
// batch path must thread the per-job counter through unchanged.
func batchSchemes(t *testing.T) []Scheme {
	t.Helper()
	out := allSchemes(t)
	for _, n := range []string{"VCC-2", "VCC-4", "VCC-8", "Enc(WLCRC-16)"} {
		s, err := NewScheme(n, DefaultConfig())
		if err != nil {
			t.Fatalf("NewScheme(%q): %v", n, err)
		}
		out = append(out, s)
	}
	return out
}

// TestEncodeBatchMatchesPerLine is the batch entry point's contract: for
// every scheme, one EncodePlaneBatch call over a run of address-distinct
// jobs must produce, job for job, exactly the packed cell vector the
// per-line counter-aware cell encode produces — and every encoded line
// must still decode back to its data.
func TestEncodeBatchMatchesPerLine(t *testing.T) {
	rnd := prng.New(99)
	for _, s := range batchSchemes(t) {
		t.Run(s.Name(), func(t *testing.T) {
			n := s.TotalCells()
			enc := EncodeCtrFunc(s)
			cs := CtrPlaneCodec(s)
			for round := 0; round < 8; round++ {
				const runLen = 7
				jobs := make([]PlaneEncodeJob, runLen)
				data := make([]memline.Line, runLen)
				olds := make([][]pcm.State, runLen)
				for k := 0; k < runLen; k++ {
					data[k] = randomBiasedLine(rnd)
					olds[k] = InitialCells(n)
					if round > 0 { // rewrite path: start from a previous encode
						enc(olds[k], InitialCells(n), uint64(k), 1, &data[k])
						data[k] = randomBiasedLine(rnd)
					}
					jobs[k] = PlaneEncodeJob{
						Dst:  packedPlanes(make([]pcm.State, n)),
						Old:  packedPlanes(olds[k]),
						Addr: uint64(round*runLen + k),
						Ctr:  uint64(round + 1),
						Data: &data[k],
					}
				}
				EncodePlaneBatch(cs, jobs)
				for k := range jobs {
					j := &jobs[k]
					want := make([]pcm.State, n)
					enc(want, olds[k], j.Addr, j.Ctr, &data[k])
					if !slices.Equal(j.Dst, packedPlanes(want)) {
						t.Fatalf("round %d job %d: batch encode differs from the packed per-line cell encode",
							round, k)
					}
					var back memline.Line
					cs.DecodeCtrPlanesInto(j.Dst, j.Addr, j.Ctr, &back)
					if !back.Equal(&data[k]) {
						t.Fatalf("round %d job %d: batch-encoded line fails decode round-trip", round, k)
					}
				}
			}
		})
	}
}

// TestEncodeBatchDoesNotMutateOldOrData pins the aliasing contract the
// shard relies on: the batch encode reads Old and Data but never writes
// them (the shard commits each Dst into the Old slot only when the job
// settles, after the whole run is encoded).
func TestEncodeBatchDoesNotMutateOldOrData(t *testing.T) {
	rnd := prng.New(3)
	for _, s := range batchSchemes(t) {
		n := s.TotalCells()
		const runLen = 4
		jobs := make([]PlaneEncodeJob, runLen)
		data := make([]memline.Line, runLen)
		oldCopies := make([][]uint64, runLen)
		dataCopies := make([]memline.Line, runLen)
		for k := 0; k < runLen; k++ {
			data[k] = randomBiasedLine(rnd)
			old := packedPlanes(InitialCells(n))
			oldCopies[k] = slices.Clone(old)
			dataCopies[k] = data[k]
			jobs[k] = PlaneEncodeJob{Dst: make([]uint64, len(old)), Old: old,
				Addr: uint64(k), Ctr: 1, Data: &data[k]}
		}
		EncodePlaneBatch(CtrPlaneCodec(s), jobs)
		for k := range jobs {
			if !slices.Equal(jobs[k].Old, oldCopies[k]) {
				t.Fatalf("%s: batch encode mutated job %d's Old planes", s.Name(), k)
			}
			if !data[k].Equal(&dataCopies[k]) {
				t.Fatalf("%s: batch encode mutated job %d's Data", s.Name(), k)
			}
		}
	}
}
