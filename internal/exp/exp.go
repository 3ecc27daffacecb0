// Package exp contains the experiment runners that regenerate every
// table and figure of the paper's evaluation (Figures 1-5, 8-14, the
// §VI.B hardware table and the §VIII.D multi-objective study). Each
// runner returns structured results plus a formatted table; cmd/experiments
// prints them and EXPERIMENTS.md records paper-vs-measured values.
package exp

import (
	"context"
	"fmt"

	"wlcrc/internal/core"
	"wlcrc/internal/coset"
	"wlcrc/internal/pcm"
	"wlcrc/internal/sim"
	"wlcrc/internal/stats"
	"wlcrc/internal/trace"
	"wlcrc/internal/workload"
)

// Config scales the experiments. The paper uses 200M-line runs on a
// farm; the defaults here reproduce the shapes in seconds on a laptop.
// Crank WritesPerBenchmark up for tighter confidence intervals.
type Config struct {
	// WritesPerBenchmark is the number of write requests replayed per
	// benchmark profile.
	WritesPerBenchmark int
	// RandomWrites is the number of writes for random-workload figures.
	RandomWrites int
	// Footprint overrides the per-profile working-set size (0 = default).
	Footprint int
	// WarmupWrites are replayed (per benchmark) before metrics start
	// accumulating, so results reflect steady state rather than cold
	// first writes. Negative disables; zero picks 2x the footprint.
	WarmupWrites int
	// Seed makes every experiment deterministic.
	Seed uint64
	// Energy is the device energy model (Fig 14 swaps it).
	Energy pcm.EnergyModel
	// Workers is the goroutine count of the sharded replay engine
	// (0 = all CPUs, 1 = serial). Results are bit-identical for every
	// value — see sim.Engine — so this is purely a speed knob.
	Workers int
	// IngestRouters is the engine's ingest-router count (0 = auto,
	// negative = one router, positive = that many routers). Purely a
	// speed knob like Workers — see sim.Options.IngestRouters.
	IngestRouters int
	// Encrypted replays every workload in its counter-mode encrypted
	// (whitened) form — the ciphertext an encrypted DIMM stores — using
	// EncryptionKey (0 = the default key). Compression-gated schemes
	// collapse under it; the encrypted study quantifies the damage and
	// the VCC recovery.
	Encrypted bool
	// EncryptionKey keys both the workload whitening (Encrypted) and the
	// VCC/Enc schemes built by the experiments.
	EncryptionKey uint64
	// ExtraSchemes are appended to the Figure 8/9/10 evaluation matrix
	// (e.g. the VCC family via cmd/experiments -vcc).
	ExtraSchemes []string
	// TrackWear enables dense per-cell wear accounting in every replay;
	// the wear digest lands in each result's M.Wear. Costs 4 bytes per
	// tracked cell per scheme — fine at experiment scale.
	TrackWear bool
	// Progress, when non-nil, receives live dispatcher reports from
	// every replay the experiments run (see sim.Options.Progress).
	Progress func(sim.Progress)
	// Context, when non-nil, cancels experiment replays cooperatively:
	// when it fires, the running experiment panics with an Interrupted
	// value carrying the partial metrics of the replay it stopped in —
	// cmd/experiments recovers it into a partial report instead of
	// dying mid-replay on SIGINT.
	Context context.Context
}

// Interrupted is the panic value an experiment raises when its
// Config.Context is canceled mid-replay. It carries the metrics of the
// prefix that replayed before the stop; callers recover it at the top
// of the run (the experiment runners' established failure mode is
// panic, so cancellation travels the same way).
type Interrupted struct {
	// Benchmark names the workload whose replay was interrupted.
	Benchmark string
	// Partial holds the interrupted replay's per-scheme snapshot.
	Partial []sim.Metrics
	// Err is the context's error (context.Canceled on SIGINT).
	Err error
}

// Error implements error so a recovered Interrupted prints cleanly.
func (i Interrupted) Error() string {
	return fmt.Sprintf("exp: %s interrupted: %v", i.Benchmark, i.Err)
}

// ctx resolves the configured context.
func (c Config) ctx() context.Context {
	if c.Context != nil {
		return c.Context
	}
	return context.Background()
}

// replay drains src through the engine, panicking with Interrupted
// (carrying the engine's partial snapshot) when cfg.Context fires and
// with a plain message on any other error — the experiments' uniform
// replay path, so every figure honors cancellation.
func replay(cfg Config, bench string, e *sim.Engine, src trace.Source) {
	err := e.RunContext(cfg.ctx(), src, 0)
	if err == nil {
		return
	}
	if cfg.ctx().Err() != nil {
		panic(Interrupted{Benchmark: bench, Partial: e.Snapshot(), Err: cfg.ctx().Err()})
	}
	panic(fmt.Sprintf("exp: %s: %v", bench, err))
}

// DefaultConfig returns laptop-scale defaults.
func DefaultConfig() Config {
	return Config{
		WritesPerBenchmark: 2000,
		RandomWrites:       4000,
		Seed:               1,
		Energy:             pcm.DefaultEnergy(),
	}
}

func (c Config) coreConfig() core.Config {
	return core.Config{Energy: c.Energy, EncryptionKey: c.EncryptionKey}
}

// source wraps a generator per the workload mode: plaintext, or the
// counter-mode encrypted stream when cfg.Encrypted is set.
func (c Config) source(gen trace.Source) trace.Source {
	if !c.Encrypted {
		return gen
	}
	return workload.Encrypted(gen, c.EncryptionKey)
}

// BenchResult holds one scheme's metrics on one benchmark.
type BenchResult struct {
	Benchmark string
	HMI       bool
	Scheme    string
	M         sim.Metrics
}

// runMatrix replays every profile through every scheme and returns
// results indexed [benchmark][scheme]. Each benchmark is warmed up so
// metrics reflect steady state.
func runMatrix(cfg Config, profiles []workload.Profile, schemes []core.Scheme) []BenchResult {
	var out []BenchResult
	for _, p := range profiles {
		s := sim.NewEngine(simOptions(cfg), schemes...)
		gen := cfg.source(workload.NewGenerator(p, cfg.Footprint, cfg.Seed))
		if w := cfg.warmup(p); w > 0 {
			replay(cfg, p.Name+" warmup", s, &workload.Limited{Src: gen, N: w})
			s.ResetMetrics()
		}
		replay(cfg, p.Name, s, &workload.Limited{Src: gen, N: cfg.WritesPerBenchmark})
		for _, m := range s.Metrics() {
			out = append(out, BenchResult{Benchmark: p.Name, HMI: p.HMI, Scheme: m.Scheme, M: m})
		}
	}
	return out
}

// warmup resolves the warm-up budget for one profile.
func (c Config) warmup(p workload.Profile) int {
	if c.WarmupWrites != 0 {
		if c.WarmupWrites < 0 {
			return 0
		}
		return c.WarmupWrites
	}
	fp := c.Footprint
	if fp <= 0 {
		fp = p.FootprintLines
	}
	return 2 * fp
}

func simOptions(cfg Config) sim.Options {
	o := sim.DefaultOptions()
	o.Energy = cfg.Energy
	o.Seed = cfg.Seed
	o.Workers = cfg.Workers
	o.IngestRouters = cfg.IngestRouters
	o.TrackWear = cfg.TrackWear
	o.Progress = cfg.Progress
	return o
}

// runRandom replays the random workload through the schemes.
func runRandom(cfg Config, schemes []core.Scheme) []sim.Metrics {
	s := sim.NewEngine(simOptions(cfg), schemes...)
	p := workload.RandomProfile()
	gen := cfg.source(workload.NewGenerator(p, cfg.Footprint, cfg.Seed))
	if w := cfg.warmup(p); w > 0 {
		replay(cfg, "random warmup", s, &workload.Limited{Src: gen, N: w})
		s.ResetMetrics()
	}
	replay(cfg, "random", s, &workload.Limited{Src: gen, N: cfg.RandomWrites})
	return s.Metrics()
}

// averages computes the mean of a metric over benchmarks for one scheme,
// restricted by group: "HMI", "LMI" or "" for all.
func averages(results []BenchResult, scheme, group string, metric func(sim.Metrics) float64) float64 {
	var xs []float64
	for _, r := range results {
		if r.Scheme != scheme {
			continue
		}
		if group == "HMI" && !r.HMI || group == "LMI" && r.HMI {
			continue
		}
		xs = append(xs, metric(r.M))
	}
	return stats.Mean(xs)
}

// granularityCosetSchemes builds the unrestricted coset encoders used by
// the sweep figures.
func granularityCosetSchemes(cfg Config, name string, grans []int) []core.Scheme {
	var cands []coset.Mapping
	switch name {
	case "6cosets":
		cands = coset.SixCosets()
	case "4cosets":
		cands = coset.Table1[:]
	case "3cosets":
		cands = coset.Table1[:3]
	default:
		panic("exp: unknown coset family " + name)
	}
	var out []core.Scheme
	for _, g := range grans {
		out = append(out, core.NewLineCosets(cfg.coreConfig(), fmt.Sprintf("%s-%d", name, g), cands, g))
	}
	return out
}
