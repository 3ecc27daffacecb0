// Package sim is the trace-driven write simulator of §VII: it replays a
// write stream through one or more encoding schemes, maintaining each
// scheme's independent view of the PCM array (its own cell states,
// because different encodings store different states for the same data),
// and charges the differential-write energy, endurance (updated cells)
// and write-disturbance models on every request.
//
// Engine (engine.go) is the one replay frontend. It fans the trace out
// to workers and, within a scheme, shards the address space by (bank,
// sub-shard) routing unit (memsys geometry), so independent lines replay
// in parallel on far more workers than there are banks. Routing units
// are the determinism contract: each keeps its own float metric sums,
// PRNG substream and fault state, merged in a fixed order, so a run is
// bit-identical for every worker count — Options.Workers = 1 is the
// serial mode of the same engine. Stores (store.go) are the per-worker
// state: one per (scheme, worker) keeps the lines of the units that
// worker owns as bit planes in an arena and charges the models on
// planes. The tests keep a cell-vector reference store
// (scalar_oracle_test.go) that the engine must match bit for bit.
package sim

import (
	"fmt"
	"io"
	"time"

	"wlcrc/internal/fault"
	"wlcrc/internal/memsys"
	"wlcrc/internal/pcm"
	"wlcrc/internal/stats"
	"wlcrc/internal/wear"
)

// Bucket widths of the per-write metric histograms. Fixed so every
// store's histogram is mergeable with every other's: per-write energy in
// 1024 pJ steps (64 buckets span 0..64k pJ, beyond the worst realistic
// full-line write; the rest overflows), updated cells in steps of 8 (64
// buckets span 0..512, above any scheme's total cell count).
const (
	energyHistBucketPJ     = 1024
	updatedHistBucketCells = 8
)

// Metrics aggregates per-scheme results over a run.
type Metrics struct {
	Scheme string
	Writes int

	Energy  pcm.WriteStats   // accumulated energy / updated cells
	Disturb pcm.DisturbStats // accumulated disturbance errors

	// MaxDisturb tracks the worst single write (§VIII.C reports the
	// maximum changes little across schemes).
	MaxDisturb float64

	// CompressedWrites counts writes that took a scheme's encoded
	// (compressed) path, for coverage reporting.
	CompressedWrites int

	// DecodeErrors counts writes after which the stored line failed to
	// decode back to the written data. Always zero for a correct scheme;
	// the simulator checks when Verify is enabled.
	DecodeErrors int

	// VnR reports fault-injection / Verify-and-Restore activity when
	// Options.InjectFaults is set.
	VnR VnRStats

	// Faults reports the stuck-at fault lifecycle — stuck cells,
	// repair-pipeline recourse counts, retired lines, uncorrectable
	// writes — when Options.Faults.Enabled is set.
	Faults fault.Stats

	// EnergyHist is the distribution of per-write total programming
	// energy (pJ), and UpdatedHist of per-write programmed cells — the
	// online form of the Figure 8/9 series: fixed-bucket, mergeable, and
	// cheap enough to maintain on every request.
	EnergyHist  stats.Histogram
	UpdatedHist stats.Histogram

	// Wear digests the per-cell wear distribution (worst-cell wear,
	// log2 wear-level CDF buckets, first-failure projection via
	// Wear.LifetimeWrites) when Options.TrackWear is enabled; otherwise
	// it stays zero.
	Wear wear.Summary
}

// newMetrics returns an empty accumulator for one scheme with the
// histogram bucket widths configured. All metric construction funnels
// through here so every store's histograms stay mergeable.
func newMetrics(scheme string) Metrics {
	return Metrics{
		Scheme:      scheme,
		EnergyHist:  stats.NewHistogram(energyHistBucketPJ),
		UpdatedHist: stats.NewHistogram(updatedHistBucketCells),
	}
}

// Merge folds another partial run's metrics for the same scheme into m:
// counters and accumulators add, worst-case trackers take the maximum.
// Float sums do not associate, so the Engine adds its units' float sums
// in a fixed unit order, the order Merge over per-unit metrics would
// add them, so the result is independent of how work was scheduled
// across workers.
func (m *Metrics) Merge(o Metrics) {
	m.Writes += o.Writes
	m.Energy.Add(o.Energy)
	m.Disturb.Add(o.Disturb)
	if o.MaxDisturb > m.MaxDisturb {
		m.MaxDisturb = o.MaxDisturb
	}
	m.CompressedWrites += o.CompressedWrites
	m.DecodeErrors += o.DecodeErrors
	m.VnR.Merge(o.VnR)
	m.Faults.Merge(o.Faults)
	m.EnergyHist.Merge(o.EnergyHist)
	m.UpdatedHist.Merge(o.UpdatedHist)
	m.Wear.Merge(o.Wear)
}

// AvgVnRIterations returns mean restore iterations per write.
func (m Metrics) AvgVnRIterations() float64 {
	if m.Writes == 0 {
		return 0
	}
	return float64(m.VnR.Iterations) / float64(m.Writes)
}

// AvgEnergy returns mean pJ per write (data+aux).
func (m Metrics) AvgEnergy() float64 {
	if m.Writes == 0 {
		return 0
	}
	return m.Energy.Energy() / float64(m.Writes)
}

// AvgEnergyData returns mean data-region pJ per write.
func (m Metrics) AvgEnergyData() float64 {
	if m.Writes == 0 {
		return 0
	}
	return m.Energy.EnergyData / float64(m.Writes)
}

// AvgEnergyAux returns mean aux-region pJ per write.
func (m Metrics) AvgEnergyAux() float64 {
	if m.Writes == 0 {
		return 0
	}
	return m.Energy.EnergyAux / float64(m.Writes)
}

// AvgUpdated returns mean programmed cells per write.
func (m Metrics) AvgUpdated() float64 {
	if m.Writes == 0 {
		return 0
	}
	return float64(m.Energy.Updated()) / float64(m.Writes)
}

// AvgUpdatedData returns mean programmed data cells per write.
func (m Metrics) AvgUpdatedData() float64 {
	if m.Writes == 0 {
		return 0
	}
	return float64(m.Energy.UpdatedData) / float64(m.Writes)
}

// AvgUpdatedAux returns mean programmed aux cells per write.
func (m Metrics) AvgUpdatedAux() float64 {
	if m.Writes == 0 {
		return 0
	}
	return float64(m.Energy.UpdatedAux) / float64(m.Writes)
}

// AvgDisturb returns mean disturbance errors per write.
func (m Metrics) AvgDisturb() float64 {
	if m.Writes == 0 {
		return 0
	}
	return m.Disturb.Errors() / float64(m.Writes)
}

// AvgDisturbData returns mean data-region disturbance errors per write.
func (m Metrics) AvgDisturbData() float64 {
	if m.Writes == 0 {
		return 0
	}
	return m.Disturb.ErrorsData / float64(m.Writes)
}

// AvgDisturbAux returns mean aux-region disturbance errors per write.
func (m Metrics) AvgDisturbAux() float64 {
	if m.Writes == 0 {
		return 0
	}
	return m.Disturb.ErrorsAux / float64(m.Writes)
}

// CompressedFraction returns the fraction of writes that used the
// encoded path.
func (m Metrics) CompressedFraction() float64 {
	if m.Writes == 0 {
		return 0
	}
	return float64(m.CompressedWrites) / float64(m.Writes)
}

// Options configures an Engine.
type Options struct {
	Energy  pcm.EnergyModel
	Disturb pcm.DisturbModel
	// SampleDisturb switches the disturbance model from deterministic
	// expected-value accounting to Monte-Carlo sampling with Seed.
	SampleDisturb bool
	Seed          uint64
	// Verify makes the simulator decode after every write and compare
	// against the written data — a continuous correctness audit.
	Verify bool
	// InjectFaults corrupts disturbed cells after each write and runs
	// the §VIII.C Verify-and-Restore loop (implies sampled disturbance).
	InjectFaults bool
	// MaxVnRIterations is a safety cap on the restore loop (0 = 16). In
	// practice the loop converges in the paper's 3-5 iterations; the cap
	// only guards against pathological restore-disturb ping-pong.
	MaxVnRIterations int

	// Faults enables the stuck-at fault lifetime model and its repair
	// pipeline (internal/fault): cells wear out against deterministic
	// endurance thresholds and freeze at their last-programmed state,
	// writes that disagree with stuck cells are repaired by stuck-aware
	// re-encoding, ECC, or line retirement to a spare pool, and
	// Metrics.Faults reports the lifecycle. Off by default; when off the
	// replay hot path carries no fault overhead.
	Faults fault.Config
	// FailFast restores the pre-fault-model failure semantics: an
	// uncorrectable stuck line (ECC budget exceeded, spare pool empty)
	// freezes its unit and aborts the run with the earliest such error,
	// exactly like a Verify decode mismatch. With FailFast off (the
	// default) uncorrectable writes are only counted and the full trace
	// replays; a run whose retired-line fraction exceeds
	// Faults.MaxRetiredFraction — or that recorded any uncorrectable
	// write — then returns a *DegradedError carrying the complete
	// metrics. Decode mismatches of a buggy scheme abort regardless.
	FailFast bool

	// Workers is the number of goroutines an Engine replays with.
	// 0 means runtime.GOMAXPROCS(0); 1 is the serial mode; values above
	// the routing-unit count (banks x sub-shards, see Geometry) are
	// capped at it — a (bank, sub-shard) unit is the unit of routing, so
	// under the Table II geometry up to 256 workers are useful. The
	// resolved count is returned by Engine.Workers and reported in every
	// Progress callback. The worker count only changes wall-clock time,
	// never results: Engine metrics are bit-identical across worker
	// counts.
	Workers int
	// Geometry is the memory organization whose bank and sub-shard
	// functions shard the address space inside an Engine (the zero value
	// means the paper's Table II geometry: 64 banks, 4 sub-shards per
	// bank, 256 routing units).
	Geometry memsys.Config
	// IngestRouters is the number of router goroutines of the Engine's
	// ingest stage (see ingest.go), which reads the source in fixed-size
	// chunks and groups each by routing unit before the Run goroutine
	// hands them to the workers in order. 0 (the default) auto-sizes to
	// min(4, GOMAXPROCS); a negative value means one router; a positive
	// value requests that many, capped at the routing-unit count like
	// Workers. Like Workers, the setting only changes wall-clock time,
	// never results: replay output is bit-identical for any router count
	// and for Source, BatchSource or MappedSource inputs alike. The
	// resolved count is reported by Engine.IngestRouters.
	IngestRouters int

	// TrackWear enables dense per-cell wear accounting: every programmed
	// cell of every touched line gets a uint32 program counter, and the
	// mergeable wear digest (worst-cell wear, wear-level CDF,
	// first-failure projection) is folded into Metrics.Wear. Off by
	// default because the counters cost 4 bytes per tracked cell per
	// scheme — enable it for endurance studies, not for unbounded
	// streaming footprints. Cells programmed by the Verify-and-Restore
	// repair loop are not counted, only the write itself.
	TrackWear bool

	// Progress, when non-nil, is called by Engine.Run on the dispatcher
	// goroutine roughly every ProgressInterval with live throughput and
	// the number of routed chunks queued per worker, plus once when the
	// run finishes. Reports are taken after a chunk hand-off, so
	// Dispatched moves a whole chunk at a time. The callback must
	// return quickly (it stalls dispatch) and must not retain the
	// QueueDepth slice, which is reused between calls.
	Progress func(Progress)
	// ProgressInterval is the minimum time between Progress calls
	// (0 = 500ms).
	ProgressInterval time.Duration
}

// Progress is one live report from the Engine dispatcher.
type Progress struct {
	// Dispatched is the number of requests handed to workers so far.
	Dispatched uint64
	// Elapsed is the time since Run started.
	Elapsed time.Duration
	// Workers is the resolved worker count of the run — Options.Workers
	// after clamping to [1, units] (surfacing what a requested count
	// actually resolved to, since silent capping hid it before).
	Workers int
	// QueueDepth holds the number of routed chunks queued per worker,
	// a saturation signal: depths pinned at the queue capacity mean the
	// workers, not the trace source, bound throughput. Every chunk goes
	// to every worker, so a depth counts whole chunks, not the requests
	// the worker owns in them. The slice is reused between callbacks —
	// copy it to keep it.
	QueueDepth []int
	// Done marks the final report of a Run.
	Done bool
}

// Rate returns the average dispatch rate in requests per second.
func (p Progress) Rate() float64 {
	if p.Elapsed <= 0 {
		return 0
	}
	return float64(p.Dispatched) / p.Elapsed.Seconds()
}

// ProgressPrinter returns an Options.Progress callback that renders a
// single live status line to w (mid-run reports overwrite in place via
// \r; the final report ends the line) — the shared -progress
// implementation of the CLIs.
func ProgressPrinter(w io.Writer) func(Progress) {
	return func(p Progress) {
		if p.Done {
			fmt.Fprintf(w, "\rreplayed %d requests in %v (%s)            \n",
				p.Dispatched, p.Elapsed.Round(10*time.Millisecond), stats.Rate(p.Dispatched, p.Elapsed))
			return
		}
		fmt.Fprintf(w, "\rreplaying: %d requests, %s, queues %v   ",
			p.Dispatched, stats.Rate(p.Dispatched, p.Elapsed), p.QueueDepth)
	}
}

// DefaultOptions returns the Table II configuration with deterministic
// disturbance accounting and verification enabled.
func DefaultOptions() Options {
	return Options{
		Energy:  pcm.DefaultEnergy(),
		Disturb: pcm.DefaultDisturb(),
		Verify:  true,
	}
}
