package wlcrc_test

import (
	"errors"
	"reflect"
	"testing"

	"wlcrc"
)

// TestReplayParallelMatchesSerial checks the public replay API end to
// end: a parallel replay of a fixed-seed workload must produce metrics
// bit-identical to the serial replay of the same workload.
func TestReplayParallelMatchesSerial(t *testing.T) {
	run := func(workers int) []wlcrc.Metrics {
		w, err := wlcrc.NewWorkload("gcc", 512, 23)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := wlcrc.Replay(w, 2000, wlcrc.ReplayOptions{Workers: workers},
			wlcrc.MustScheme("Baseline"), wlcrc.MustScheme("WLCRC-16"))
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	serial := run(1)
	parallel := run(0) // all CPUs
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("parallel replay differs from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	if serial[0].Writes != 2000 || serial[1].Writes != 2000 {
		t.Errorf("writes = %d/%d, want 2000", serial[0].Writes, serial[1].Writes)
	}
	if serial[1].AvgEnergy() >= serial[0].AvgEnergy() {
		t.Errorf("WLCRC-16 energy %.1f not below baseline %.1f",
			serial[1].AvgEnergy(), serial[0].AvgEnergy())
	}
}

// TestReplaySampledDeterministic checks that Monte-Carlo disturbance
// sampling is reproducible and worker-count independent through the
// public API.
func TestReplaySampledDeterministic(t *testing.T) {
	run := func(workers int) []wlcrc.Metrics {
		w, err := wlcrc.NewWorkload("zeus", 256, 4)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := wlcrc.Replay(w, 1500, wlcrc.ReplayOptions{Workers: workers, SampleDisturb: true, Seed: 99},
			wlcrc.MustScheme("Baseline"))
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	if !reflect.DeepEqual(run(1), run(4)) {
		t.Error("sampled replay depends on worker count")
	}
}

// TestReplayEncryptedWorkload drives the encrypted-PCM scenario through
// the public API: an encrypted workload collapses WLCRC's compression
// gate while VCC-8 keeps reducing energy and updated cells against the
// raw encrypted write, with decode verification on throughout and
// results identical for serial and parallel replays.
func TestReplayEncryptedWorkload(t *testing.T) {
	run := func(workers int) []wlcrc.Metrics {
		w, err := wlcrc.NewWorkload("gcc", 256, 31)
		if err != nil {
			t.Fatal(err)
		}
		w.Encrypt(0)
		ms, err := wlcrc.Replay(w, 2000, wlcrc.ReplayOptions{Workers: workers},
			wlcrc.MustScheme("Baseline"), wlcrc.MustScheme("WLCRC-16"),
			wlcrc.MustScheme("VCC-8"))
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	serial := run(1)
	if !reflect.DeepEqual(serial, run(0)) {
		t.Error("parallel encrypted replay differs from serial")
	}
	base, wl, v8 := serial[0], serial[1], serial[2]
	if f := wl.CompressedFraction(); f > 0.001 {
		t.Errorf("WLCRC-16 compressed %.4f of encrypted writes, want ~0", f)
	}
	if v8.AvgEnergy() >= base.AvgEnergy() {
		t.Errorf("VCC-8 energy %.0f >= raw encrypted %.0f", v8.AvgEnergy(), base.AvgEnergy())
	}
	if v8.AvgUpdated() >= base.AvgUpdated() {
		t.Errorf("VCC-8 updated %.1f >= raw encrypted %.1f", v8.AvgUpdated(), base.AvgUpdated())
	}
}

// TestMemoryCounterSchemeRoundTrip checks the public Memory with a
// counter-keyed scheme: reads decode through the current counter, and
// rewriting the same plaintext re-encrypts (costs energy) rather than
// being differential-write free.
func TestMemoryCounterSchemeRoundTrip(t *testing.T) {
	mem := wlcrc.NewMemory(wlcrc.MustScheme("VCC-4"))
	data := wlcrc.LineFromWords([8]uint64{1, 2, 3, 4, 5, 6, 7, 8})
	first := mem.Write(9, data)
	if got := mem.Read(9); got != data {
		t.Fatalf("read-back mismatch after first write")
	}
	again := mem.Write(9, data)
	if got := mem.Read(9); got != data {
		t.Fatalf("read-back mismatch after rewrite")
	}
	if again.UpdatedCells == 0 {
		t.Error("re-encrypted rewrite programmed zero cells — counter not advancing")
	}
	if first.EnergyPJ <= 0 || again.EnergyPJ <= 0 {
		t.Error("writes should cost energy")
	}
}

// TestWorkloadEncryptIdempotent pins the double-Encrypt guard: a second
// Encrypt call must not stack a second whitening pass (which, being an
// involution, would silently decrypt the stream back to plaintext).
func TestWorkloadEncryptIdempotent(t *testing.T) {
	once, _ := wlcrc.NewWorkload("gcc", 128, 3)
	once.Encrypt(0)
	twice, _ := wlcrc.NewWorkload("gcc", 128, 3)
	twice.Encrypt(0).Encrypt(0)
	for i := 0; i < 200; i++ {
		a, b := once.Next(), twice.Next()
		if a != b {
			t.Fatalf("double Encrypt changed the stream at request %d", i)
		}
	}
}

// TestWorkloadEncryptConflictingKeyPanics: a re-key attempt cannot be
// honored and must not silently keep the old key.
func TestWorkloadEncryptConflictingKeyPanics(t *testing.T) {
	w, _ := wlcrc.NewWorkload("gcc", 128, 3)
	w.Encrypt(1)
	defer func() {
		if recover() == nil {
			t.Error("Encrypt with a different key did not panic")
		}
	}()
	w.Encrypt(2)
}

// TestWorkloadNextBatchMatchesNext pins the public bulk-draw API:
// NextBatch must yield the exact sequence Next does, plaintext and
// encrypted alike.
func TestWorkloadNextBatchMatchesNext(t *testing.T) {
	for _, encrypted := range []bool{false, true} {
		name := "plain"
		if encrypted {
			name = "encrypted"
		}
		t.Run(name, func(t *testing.T) {
			mk := func() *wlcrc.Workload {
				w, err := wlcrc.NewWorkload("mcf", 256, 31)
				if err != nil {
					t.Fatal(err)
				}
				if encrypted {
					w.Encrypt(0)
				}
				return w
			}
			ref, bulk := mk(), mk()
			const total, batch = 600, 100
			want := make([]wlcrc.WriteRequest, total)
			for i := range want {
				want[i] = ref.Next()
			}
			dst := make([]wlcrc.WriteRequest, batch)
			for off := 0; off < total; off += batch {
				if n := bulk.NextBatch(dst); n != batch {
					t.Fatalf("NextBatch = %d, want %d (stream is infinite)", n, batch)
				}
				for i := range dst {
					if dst[i] != want[off+i] {
						t.Fatalf("request %d differs between Next and NextBatch", off+i)
					}
				}
			}
			if n := bulk.NextBatch(nil); n != 0 {
				t.Errorf("NextBatch(nil) = %d, want 0", n)
			}
		})
	}
}

// TestReplayIngestMatchesSerial extends the public-API determinism
// guarantee to the ingest front-end: Replay must be bit-identical to
// the one-worker, one-router replay for every worker and router count.
func TestReplayIngestMatchesSerial(t *testing.T) {
	run := func(workers, ingest int) []wlcrc.Metrics {
		w, err := wlcrc.NewWorkload("gcc", 512, 23)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := wlcrc.Replay(w, 2000, wlcrc.ReplayOptions{Workers: workers, IngestRouters: ingest},
			wlcrc.MustScheme("Baseline"), wlcrc.MustScheme("WLCRC-16"))
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	want := run(1, 1)
	for _, ingest := range []int{-1, 1, 3} {
		for _, workers := range []int{1, 4} {
			if got := run(workers, ingest); !reflect.DeepEqual(want, got) {
				t.Errorf("workers=%d ingest=%d: metrics differ from serial replay", workers, ingest)
			}
		}
	}
}

// TestReplayFaultModel drives the stuck-at fault model through the
// public API: an accelerated-endurance replay accumulates fault stats
// in Metrics.Faults, stays worker-count deterministic, and a run that
// breaches the degradation threshold returns a *DegradedError together
// with complete metrics.
func TestReplayFaultModel(t *testing.T) {
	faults := wlcrc.FaultConfig{
		Enabled:         true,
		CellEndurance:   8,
		EnduranceSpread: 0.5,
		ECCBits:         4,
		SpareLines:      4,
		Static:          []wlcrc.StuckCell{{Addr: 3, Cell: 17, State: 2}},
	}
	run := func(workers int) ([]wlcrc.Metrics, error) {
		w, err := wlcrc.NewWorkload("gcc", 96, 31)
		if err != nil {
			t.Fatal(err)
		}
		return wlcrc.Replay(w, 2000, wlcrc.ReplayOptions{Workers: workers, Seed: 13, Faults: faults},
			wlcrc.MustScheme("Baseline"), wlcrc.MustScheme("WLCRC-16"))
	}
	ms, err := run(1)
	var de *wlcrc.DegradedError
	if err != nil && !errors.As(err, &de) {
		t.Fatal(err)
	}
	if ms == nil {
		t.Fatal("no metrics returned alongside the replay verdict")
	}
	for _, m := range ms {
		if m.Writes != 2000 {
			t.Errorf("%s: %d writes, want 2000 (graceful mode replays the whole trace)", m.Scheme, m.Writes)
		}
		if m.Faults.StuckCells == 0 || m.Faults.LinesTouched == 0 {
			t.Errorf("%s: fault model left no trace in metrics: %+v", m.Scheme, m.Faults)
		}
	}
	ms4, err4 := run(4)
	if !reflect.DeepEqual(ms, ms4) {
		t.Error("fault-enabled replay metrics depend on worker count")
	}
	if !reflect.DeepEqual(err, err4) {
		t.Errorf("fault-enabled replay verdict depends on worker count:\nserial:   %v\nparallel: %v", err, err4)
	}
}
