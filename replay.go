package wlcrc

import (
	"fmt"
	"runtime"

	"wlcrc/internal/fault"
	"wlcrc/internal/sim"
)

// Metrics is the per-scheme result of a Replay: write counts,
// accumulated energy, programmed cells, disturbance errors, compression
// coverage, Verify-and-Restore activity, per-write energy and
// updated-cell histograms, and (with TrackWear) the per-cell wear
// digest, with Avg* accessors for the per-write figures the paper
// reports.
type Metrics = sim.Metrics

// Progress is one live report from the replay dispatcher: requests
// dispatched, elapsed time (Rate() combines them), and per-worker queue
// depths.
type Progress = sim.Progress

// FaultConfig enables and parameterizes the stuck-at fault model: cell
// endurance and its spread, pre-seeded static defects, the per-line ECC
// budget, the spare-line pool, and the graceful-degradation threshold.
// The zero value (Enabled false) keeps the fault machinery — and its
// replay cost — entirely off.
type FaultConfig = fault.Config

// FaultStats is the per-scheme fault/repair digest a fault-enabled
// Replay folds into Metrics.Faults: stuck-cell counts by origin, repair
// recourse counters (retries, ECC corrections, retirements, remap
// hits), uncorrectable writes, and the sequence number of the first
// retirement.
type FaultStats = fault.Stats

// StuckCell pre-seeds one manufacturing defect via FaultConfig.Static.
type StuckCell = fault.StuckCell

// DegradedError reports a fault-enabled replay that completed but
// breached its service thresholds: too many retired lines or at least
// one uncorrectable write. The metrics inside are complete — the whole
// trace replayed before the verdict.
type DegradedError = sim.DegradedError

// ReplayOptions configures Replay.
type ReplayOptions struct {
	// Workers bounds the replay goroutines. 0 means all CPUs; 1 runs
	// serially; values above the routing-unit count (banks x sub-shards,
	// 256 under the default geometry) are capped there. Results are
	// bit-identical for every value — the engine shards the address
	// space by (bank, sub-shard) unit and merges deterministically — so
	// this is purely a speed knob.
	Workers int
	// IngestRouters is the number of router goroutines that read and
	// pre-route the stream in chunks ahead of the dispatcher: 0
	// auto-sizes (one router on a single-CPU machine), negative means
	// one router, positive requests that many. Like Workers it is
	// purely a speed knob — results are bit-identical for every value.
	IngestRouters int
	// SampleDisturb switches disturbance accounting from expected values
	// to Monte-Carlo sampling seeded with Seed.
	SampleDisturb bool
	// Seed drives the sampled-disturbance PRNG substreams.
	Seed uint64
	// TrackWear enables dense per-cell wear accounting; the wear digest
	// (worst-cell wear, wear CDF, first-failure projection) lands in
	// each scheme's Metrics.Wear.
	TrackWear bool
	// Progress, when non-nil, receives live dispatcher reports roughly
	// twice a second while the replay runs.
	Progress func(Progress)
	// Faults enables the stuck-at fault model and repair pipeline
	// (write-verify, stuck-aware re-encode, interleaved BCH ECC, line
	// retirement). Fault statistics land in each scheme's
	// Metrics.Faults; a replay that breaches the degradation thresholds
	// returns a *DegradedError alongside complete metrics.
	Faults FaultConfig
	// FailFast aborts a fault-enabled replay at the first uncorrectable
	// write instead of degrading gracefully to end-of-trace.
	FailFast bool
}

// Replay replays n requests from the workload through every scheme on
// the parallel sharded engine and returns per-scheme metrics,
// index-aligned with schemes. Decode verification is always on: a
// scheme that fails to round-trip its stored data surfaces as an error.
// n must be positive — workloads are infinite streams, so there is no
// "replay everything".
func Replay(w *Workload, n int, opts ReplayOptions, schemes ...Scheme) ([]Metrics, error) {
	if n <= 0 {
		return nil, fmt.Errorf("wlcrc: Replay needs a positive request count, got %d (workloads are infinite)", n)
	}
	o := sim.DefaultOptions()
	o.Workers = opts.Workers
	o.IngestRouters = opts.IngestRouters
	o.SampleDisturb = opts.SampleDisturb
	o.Seed = opts.Seed
	o.TrackWear = opts.TrackWear
	o.Progress = opts.Progress
	o.Faults = opts.Faults
	o.FailFast = opts.FailFast
	e := sim.NewEngine(o, schemes...)
	if err := e.Run(w.src, n); err != nil {
		// A degraded fault-model run still replayed everything: hand the
		// caller the metrics next to the verdict.
		if _, ok := err.(*DegradedError); ok {
			return e.Metrics(), err
		}
		return nil, err
	}
	return e.Metrics(), nil
}

// ReplayWorkers returns the worker count Replay resolves opts.Workers=0
// to: the number of usable CPUs.
func ReplayWorkers() int { return runtime.GOMAXPROCS(0) }
