// Package memsys models the main-memory organization of Table II: a
// 32GB MLC PCM main memory with two channels, two DIMMs per channel,
// sixteen banks per DIMM, per-bank 32-entry write queues, read-over-write
// priority with a high-watermark drain (writes are serviced ahead of
// reads once the write queue passes 80% of capacity), and write pausing
// (an in-flight iterative PCM write can be paused to service a read to
// the same bank).
//
// The simulator is cycle-based and intentionally simple: the paper's
// energy/endurance/disturbance results do not depend on timing, but the
// substrate exists so the system can be exercised end to end (cmd/pcmsim
// reports bandwidth and latency alongside the encoding metrics).
package memsys

import (
	"container/list"
	"fmt"
)

// Config describes the memory organization and timing.
type Config struct {
	Channels       int
	DIMMsPerChan   int
	BanksPerDIMM   int
	WriteQueueCap  int
	DrainThreshold float64 // write-queue occupancy that forces draining
	ReadCycles     int     // bank-busy cycles for an array read
	WriteCycles    int     // bank-busy cycles for a full MLC write (P&V)
	PauseOverhead  int     // cycles lost when pausing an in-flight write
	// WriteMinCycles is the bank-busy floor of a write that programs
	// very few cells (decode, row activation and at least one
	// program-and-verify iteration still happen). Zero means ReadCycles.
	WriteMinCycles int
	// CellsPerLine is the programmed-cell count of a full-line write,
	// the denominator of the P&V scaling in WriteCyclesFor. Zero means
	// 256 (one 512-bit MLC line).
	CellsPerLine int
	// SubShards is the number of address-interleaved sub-shards each
	// bank is split into for parallel replay. A bank is the hardware's
	// unit of independence, but it is not the smallest one the software
	// can exploit: lines within a bank never share encoder state, so the
	// replay engine splits every bank into SubShards routing units and
	// is no longer capped at the bank count. The split is part of the
	// deterministic geometry — sub-shard assignment depends only on the
	// address, never on worker count — so results stay bit-identical
	// however many workers replay them. Zero means DefaultSubShards.
	SubShards int
}

// DefaultSubShards is the per-bank sub-shard count used when
// Config.SubShards is zero: enough to let worker counts run well past
// the bank count. Routing units are the replay engine's determinism
// contract and carry only a small per-unit record each; its line
// stores and buffers are per worker, so more units cost little.
const DefaultSubShards = 4

// TableII returns the paper's configuration. Timing reflects MLC PCM's
// ~10x write/read asymmetry.
func TableII() Config {
	return Config{
		Channels:       2,
		DIMMsPerChan:   2,
		BanksPerDIMM:   16,
		WriteQueueCap:  32,
		DrainThreshold: 0.8,
		ReadCycles:     75,
		WriteCycles:    750,
		PauseOverhead:  20,
		WriteMinCycles: 75,
		CellsPerLine:   256,
		SubShards:      DefaultSubShards,
	}
}

// WriteCyclesFor returns the bank-busy cycles of a write that programs
// the given number of cells. MLC PCM writes are iterative
// program-and-verify sweeps over the cells being updated, so the busy
// time scales with the programmed-cell count: a full-line write (cells
// >= CellsPerLine) costs WriteCycles, fewer updated cells interpolate
// linearly down to the WriteMinCycles floor, and cells <= 0 — "unknown",
// the zero value of Access.Cells — conservatively costs the full
// WriteCycles. Callers that do know the count and want a silent store
// (zero updated cells) priced at the floor should clamp it to 1 before
// enqueueing, as pcmsim's timing tap does. This is how the encoders'
// endurance savings become a latency/bandwidth win: a coset-coded write
// that programs a quarter of the cells occupies its bank for roughly a
// quarter of the time.
func (c Config) WriteCyclesFor(cells int) int {
	if cells <= 0 {
		return c.WriteCycles
	}
	perLine := c.CellsPerLine
	if perLine <= 0 {
		perLine = 256
	}
	min := c.WriteMinCycles
	if min <= 0 {
		min = c.ReadCycles
	}
	if min > c.WriteCycles {
		min = c.WriteCycles
	}
	if cells >= perLine {
		return c.WriteCycles
	}
	cyc := min + (c.WriteCycles-min)*cells/perLine
	return cyc
}

// Banks returns the total bank count.
func (c Config) Banks() int { return c.Channels * c.DIMMsPerChan * c.BanksPerDIMM }

// BankOf maps a line address to a bank (line interleaving across
// channels, then DIMMs, then banks). Both the cycle-based Controller and
// the parallel replay engine in internal/sim shard the address space
// with this function, so no routing unit spans two banks, matching the
// hardware's own notion of independent lines.
func (c Config) BankOf(addr uint64) int {
	return int(addr % uint64(c.Banks()))
}

// SubShardsPerBank returns the resolved per-bank sub-shard count
// (Config.SubShards, or DefaultSubShards when unset).
func (c Config) SubShardsPerBank() int {
	if c.SubShards <= 0 {
		return DefaultSubShards
	}
	return c.SubShards
}

// SubShardOf maps a line address to its sub-shard within its bank:
// consecutive lines of one bank round-robin across the bank's
// sub-shards, the same interleaving idea BankOf applies across banks.
// The assignment depends only on the address and the geometry.
func (c Config) SubShardOf(addr uint64) int {
	return int((addr / uint64(c.Banks())) % uint64(c.SubShardsPerBank()))
}

// RouteUnits returns the total number of routing units the replay
// engine shards each scheme's address space into: one per (bank,
// sub-shard) pair.
func (c Config) RouteUnits() int { return c.Banks() * c.SubShardsPerBank() }

// RouteOf maps a line address to its flat routing unit, ordered bank-
// major: unit = bank*SubShardsPerBank() + subShard. RouteOf/BankOf/
// SubShardOf are consistent by construction: RouteOf(a) /
// SubShardsPerBank() == BankOf(a) and RouteOf(a) % SubShardsPerBank()
// == SubShardOf(a).
func (c Config) RouteOf(addr uint64) int {
	banks := uint64(c.Banks())
	k := uint64(c.SubShardsPerBank())
	return int((addr%banks)*k + (addr/banks)%k)
}

// AccessKind distinguishes reads from writes.
type AccessKind int

// Access kinds.
const (
	Read AccessKind = iota
	Write
)

// Access is one memory request.
type Access struct {
	Kind AccessKind
	Addr uint64 // line address
	// Cells is the number of cells the write programs (the encoder's
	// updated-cell count), which scales the write's bank-busy time via
	// Config.WriteCyclesFor. 0 means unknown: the write is charged the
	// full WriteCycles. Ignored for reads.
	Cells int
	// Arrival is the cycle the request enters the controller.
	Arrival uint64
}

// Stats aggregates the run.
type Stats struct {
	Reads, Writes      uint64
	ReadCycles         uint64 // total read latency (arrival to done)
	WriteCycles        uint64 // total write latency
	WritePauses        uint64 // in-flight writes paused for a read
	DrainEvents        uint64 // times a queue crossed the drain threshold
	MaxWriteQueueDepth int
	StallsQueueFull    uint64 // cycles producers were blocked on full queues
	BusyCycles         uint64 // cycles with at least one bank active
	TotalCycles        uint64
}

// AvgReadLatency returns mean cycles from arrival to completion.
func (s Stats) AvgReadLatency() float64 {
	if s.Reads == 0 {
		return 0
	}
	return float64(s.ReadCycles) / float64(s.Reads)
}

// AvgWriteLatency returns mean cycles from arrival to completion.
func (s Stats) AvgWriteLatency() float64 {
	if s.Writes == 0 {
		return 0
	}
	return float64(s.WriteCycles) / float64(s.Writes)
}

// Utilization returns the fraction of cycles any bank was busy.
func (s Stats) Utilization() float64 {
	if s.TotalCycles == 0 {
		return 0
	}
	return float64(s.BusyCycles) / float64(s.TotalCycles)
}

type bankState struct {
	readQ  *list.List // of Access
	writeQ *list.List
	// busyUntil is the cycle the current operation finishes.
	busyUntil uint64
	// current in-flight op (valid when busyUntil > now).
	inflight     Access
	inflightLeft int
	draining     bool
}

// Controller is the cycle-based memory controller.
type Controller struct {
	cfg   Config
	banks []bankState
	now   uint64
	stats Stats
}

// New builds a controller.
func New(cfg Config) *Controller {
	if cfg.Banks() <= 0 || cfg.WriteQueueCap <= 0 {
		panic("memsys: invalid configuration")
	}
	c := &Controller{cfg: cfg, banks: make([]bankState, cfg.Banks())}
	for i := range c.banks {
		c.banks[i].readQ = list.New()
		c.banks[i].writeQ = list.New()
	}
	return c
}

// BankOf maps a line address to a bank, per the configuration's
// interleaving.
func (c *Controller) BankOf(addr uint64) int {
	return c.cfg.BankOf(addr)
}

// Enqueue adds a request, advancing time until there is queue room
// (modeling back-pressure). It returns the enqueue cycle.
func (c *Controller) Enqueue(a Access) uint64 {
	b := &c.banks[c.BankOf(a.Addr)]
	if a.Kind == Write {
		for b.writeQ.Len() >= c.cfg.WriteQueueCap {
			c.stats.StallsQueueFull++
			c.Step(1)
		}
	}
	a.Arrival = c.now
	if a.Kind == Read {
		b.readQ.PushBack(a)
	} else {
		b.writeQ.PushBack(a)
		if b.writeQ.Len() > c.stats.MaxWriteQueueDepth {
			c.stats.MaxWriteQueueDepth = b.writeQ.Len()
		}
	}
	return c.now
}

// Step advances the clock n cycles, scheduling bank operations.
func (c *Controller) Step(n int) {
	for i := 0; i < n; i++ {
		c.tick()
	}
}

func (c *Controller) tick() {
	c.now++
	c.stats.TotalCycles++
	busy := false
	for i := range c.banks {
		b := &c.banks[i]
		if c.now < b.busyUntil {
			busy = true
			// Write pausing: a pending read preempts an in-flight write
			// when the queue is not draining.
			if b.inflight.Kind == Write && b.readQ.Len() > 0 && !b.draining {
				b.inflightLeft = int(b.busyUntil-c.now) + c.cfg.PauseOverhead
				b.busyUntil = c.now // pause; the read is issued below
				c.stats.WritePauses++
			} else {
				continue
			}
		}
		// Operation (if any) completed at busyUntil.
		c.issue(b)
		if c.now < b.busyUntil {
			busy = true
		}
	}
	if busy {
		c.stats.BusyCycles++
	}
}

// issue selects the next operation for a bank per the §VII.A policy:
// reads first, unless the write queue is past the drain threshold (then
// writes go ahead of reads until the queue empties); paused writes
// resume when no reads are waiting.
func (c *Controller) issue(b *bankState) {
	occupancy := float64(b.writeQ.Len()) / float64(c.cfg.WriteQueueCap)
	if occupancy >= c.cfg.DrainThreshold && !b.draining {
		b.draining = true
		c.stats.DrainEvents++
	}
	if b.writeQ.Len() == 0 {
		b.draining = false
	}

	if b.draining && b.writeQ.Len() > 0 {
		c.startWrite(b)
		return
	}
	if b.readQ.Len() > 0 {
		a := b.readQ.Remove(b.readQ.Front()).(Access)
		b.inflight = a
		b.busyUntil = c.now + uint64(c.cfg.ReadCycles)
		c.stats.Reads++
		c.stats.ReadCycles += b.busyUntil - a.Arrival
		return
	}
	if b.inflightLeft > 0 {
		// Resume the paused write.
		b.inflight = Access{Kind: Write, Addr: b.inflight.Addr, Arrival: b.inflight.Arrival}
		b.busyUntil = c.now + uint64(b.inflightLeft)
		b.inflightLeft = 0
		return
	}
	if b.writeQ.Len() > 0 {
		c.startWrite(b)
	}
}

func (c *Controller) startWrite(b *bankState) {
	a := b.writeQ.Remove(b.writeQ.Front()).(Access)
	b.inflight = a
	b.busyUntil = c.now + uint64(c.cfg.WriteCyclesFor(a.Cells))
	c.stats.Writes++
	c.stats.WriteCycles += b.busyUntil - a.Arrival
}

// Drain advances time until every queue is empty and all banks idle.
func (c *Controller) Drain() {
	for {
		idle := true
		for i := range c.banks {
			b := &c.banks[i]
			if b.readQ.Len() > 0 || b.writeQ.Len() > 0 || c.now < b.busyUntil || b.inflightLeft > 0 {
				idle = false
				break
			}
		}
		if idle {
			return
		}
		c.Step(1)
	}
}

// Now returns the current cycle.
func (c *Controller) Now() uint64 { return c.now }

// Stats returns a snapshot of the accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

// String summarizes the configuration.
func (c Config) String() string {
	return fmt.Sprintf("%d channels x %d DIMMs x %d banks, %d-entry write queues, drain at %.0f%%",
		c.Channels, c.DIMMsPerChan, c.BanksPerDIMM, c.WriteQueueCap, c.DrainThreshold*100)
}
