// Package endpoint models the source host of a data transfer: a fixed
// number of cores shared between transfer processes and external
// compute jobs, with context-switch overhead and process-restart
// latency.
//
// The paper's §III-A attributes two of its central observations to the
// source endpoint: (1) external compute load (parallel dgemm copies)
// starves transfer processes of CPU, so the critical number of streams
// rises with load, and (2) restarting globus-url-copy at every control
// epoch costs 15–50% of throughput, growing with CPU contention. This
// package reproduces both mechanisms:
//
//   - A weighted max-min fair (water-filling) scheduler divides the
//     cores among demands at one water level L: a transfer process gets
//     min(demand, L) and a compute job min(Cores, 4·L), with L chosen so
//     the cores are used up. CPU-bound compute jobs carry the higher
//     weight, which models the penalty that frequently-yielding transfer
//     threads pay against spinning dgemm threads under a real kernel
//     scheduler. L is found without sorting the demands, so the caps
//     depend on the demands and not on their order: equal demands get
//     identical caps. A steady round, every demand clear of the level
//     of the last round and none saturating, reuses that round's caps;
//     a caller that knows which demands changed since checks only those
//     (Reuses).
//   - A context-switch efficiency factor shrinks the usable pump rate
//     as the number of runnable threads grows past the core count —
//     this is what bends the throughput curve down after the paper's
//     "critical point".
//   - RestartTime grows with the ratio of runnable processes to cores,
//     reproducing the overhead trend of Figure 7.
//
// One transfer process corresponds to one unit of GridFTP concurrency;
// its `parallelism` streams are threads inside the process and share
// the process's allocation (the paper: "concurrency exploits multiple
// CPU cores, parallelism does not").
package endpoint

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Config describes a host.
type Config struct {
	// Cores is the number of CPU cores.
	Cores int
	// CorePumpRate is the data rate one transfer process can sustain
	// with a full core, in bytes per second.
	CorePumpRate float64
	// RestartBase is the process-restart dead time in seconds on an
	// idle host (default 3).
	RestartBase float64
	// NICRate caps the host's aggregate outgoing rate in bytes per
	// second; zero means unlimited (the network paths then provide
	// the only capacity limits).
	NICRate float64
}

// The scheduler's and the restart model's constants, which no testbed
// varies (DESIGN.md lists them with the simulator's other constants).
const (
	// computeWeight is the scheduling weight of a CPU-bound compute job
	// relative to a transfer process: spinning jobs win against
	// I/O-bound threads that block and yield.
	computeWeight = 4
	// ctxSwitchPenalty is the efficiency loss per excess runnable
	// thread per core.
	ctxSwitchPenalty = 0.05
	// streamOverhead is the fraction of a core consumed by the
	// bookkeeping of one stream regardless of its rate.
	streamOverhead = 0.001
	// defaultRestartBase is RestartBase when the config leaves it zero.
	defaultRestartBase = 3
	// restartPerLoad scales the extra restart time per unit of process
	// oversubscription.
	restartPerLoad = 0.35
)

// withDefaults returns cfg with a zero RestartBase replaced by its
// default.
func (c Config) withDefaults() Config {
	if c.RestartBase == 0 {
		c.RestartBase = defaultRestartBase
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("endpoint: cores must be positive, got %d", c.Cores)
	}
	if c.CorePumpRate <= 0 {
		return fmt.Errorf("endpoint: core pump rate must be positive, got %v", c.CorePumpRate)
	}
	return nil
}

// Host is a source endpoint. It is not safe for concurrent use; the
// fabric drives it from the simulation loop.
type Host struct {
	cfg         Config
	computeJobs int

	// Scratch of the scheduling round, reused by every Allocate call.
	overheads []float64
	caps      []float64
	above     []float64
	threads   []int

	// The water level of the last round.
	level float64

	// The last round solved, if no demand in it saturated: its water
	// level, compute jobs, thread counts and caps. It owns the buffers
	// it took from the scratch.
	kept struct {
		ok      bool
		level   float64
		jobs    int
		threads []int
		caps    []float64
	}
}

// New returns a host for cfg. It panics if cfg is invalid; call
// Validate first for error handling.
func New(cfg Config) *Host {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Host{cfg: cfg.withDefaults()}
}

// SetComputeJobs sets the number of external compute jobs (the paper's
// ext.cmp dgemm copies). Each job spins on all cores, so it contributes
// Cores runnable threads and demands the whole machine.
func (h *Host) SetComputeJobs(n int) {
	if n < 0 {
		n = 0
	}
	h.computeJobs = n
}

// Demand describes one transfer process's resource request for a
// scheduling round.
type Demand struct {
	// Threads is the number of streams (parallelism) in the process.
	Threads int
	// Rate is the process's desired pump rate in bytes per second —
	// typically the window-limited offered rate of its flow, with
	// headroom so a growing flow is not pinned by its own history.
	Rate float64
}

// Efficiency returns the context-switch efficiency factor in (0, 1]
// for the given total count of runnable threads on the host.
func (h *Host) Efficiency(totalThreads int) float64 {
	over := float64(totalThreads)/float64(h.cfg.Cores) - 1
	if over <= 0 {
		return 1
	}
	return 1 / (1 + ctxSwitchPenalty*over)
}

// Allocate runs one scheduling round: given the demands of all
// transfer processes currently running on the host (across all of its
// transfers and paths), it returns the pump-rate cap in bytes per
// second for each process. External compute jobs set via
// SetComputeJobs participate in the round with weight computeWeight
// and full-machine demands.
//
// A round in which no demand saturates gives every process the level
// cores/(n + computeWeight·jobs) less its stream overhead, so its caps
// depend on the process count, the thread counts and the jobs alone.
// The host keeps such a round's caps, every demand clear of its level,
// and a round that follows it with the same jobs and thread counts,
// every demand again clear of that level, returns them: they are the
// bits the full solve would compute.
//
// The returned slice belongs to the host and is valid until the next
// Allocate call: a caller that keeps caps across rounds copies them, and
// no caller writes to it, since a later round may return it again. A
// round allocates nothing once the host has seen two rounds as large.
func (h *Host) Allocate(procs []Demand) []float64 {
	cfg := h.cfg
	n := len(procs)
	caps := slices.Grow(h.caps[:0], n)[:n]
	h.caps = caps
	if n == 0 {
		return caps
	}
	if h.reuses(procs) {
		h.level = h.kept.level
		return h.kept.caps
	}

	// Total runnable threads: each compute job spins on every core.
	totalThreads := h.computeJobs * cfg.Cores
	ts := slices.Grow(h.threads[:0], n)[:n]
	h.threads = ts
	for i, d := range procs {
		ts[i] = threads(d)
		totalThreads += ts[i]
	}
	eff := h.Efficiency(totalThreads)

	// The demands in units of cores, in caps until the level is found.
	overheads := slices.Grow(h.overheads[:0], n)[:n]
	h.overheads = overheads
	for i, d := range procs {
		caps[i], overheads[i] = h.demand(d)
	}
	level := waterLevel(caps, h.computeJobs, float64(cfg.Cores), &h.above)
	h.level = level

	var total fixedSum // in cores
	unsaturated := true
	for i := range caps {
		unsaturated = unsaturated && clears(caps[i], level)
		c := max(min(caps[i], level)-overheads[i], 0)
		if cfg.NICRate > 0 {
			total.add(c)
		}
		caps[i] = c * cfg.CorePumpRate * eff
	}

	// The NIC caps the aggregate outgoing rate across all processes
	// and paths; scale everyone down proportionally when it binds.
	if sum := total.value() * cfg.CorePumpRate * eff; cfg.NICRate > 0 && sum > cfg.NICRate {
		scale := cfg.NICRate / sum
		for i := range caps {
			caps[i] *= scale
		}
	}
	h.keep(unsaturated, level)
	return caps
}

// threads returns the process's runnable threads: its streams, at least
// one.
func threads(d Demand) int { return max(d.Threads, 1) }

// demand returns the process's demand in cores and the part of it its
// streams' bookkeeping takes. A transfer process can exploit at most one
// core (GridFTP parallelism threads share their process's core).
func (h *Host) demand(d Demand) (cores, overhead float64) {
	overhead = streamOverhead * float64(threads(d))
	rate := d.Rate
	if rate < 0 {
		rate = 0
	}
	return min(rate/h.cfg.CorePumpRate+overhead, 1), overhead
}

// steadySlack is how far above a round's water level a demand must be
// for the round to count it as clear of the level. A demand clear of it
// that has since grown, whatever the rounding of its growth, is still
// above it, and the round's caps do not depend on its size. Rounding
// that shrinks a growing demand is some 10⁻¹⁵ of it.
const steadySlack = 1e-9

// clears reports whether a demand of cores is clear of the water level:
// above it with steadySlack to spare.
func clears(cores, level float64) bool { return cores > level*(1+steadySlack) }

// reuses reports whether the round of procs gets the kept caps: the last
// round saturated no demand, and this one has its jobs and thread
// counts and every demand clear of its level, so that no demand
// saturates again and the level is the same.
func (h *Host) reuses(procs []Demand) bool {
	k := &h.kept
	if !k.ok || k.jobs != h.computeJobs || len(k.threads) != len(procs) {
		return false
	}
	for i, d := range procs {
		if !h.keeps(i, d) {
			return false
		}
	}
	return true
}

// keeps reports whether the demand d of process i leaves the kept round
// as it is: its thread count is the same and it is clear of the level.
func (h *Host) keeps(i int, d Demand) bool {
	cores, _ := h.demand(d)
	return threads(d) == h.kept.threads[i] && clears(cores, h.kept.level)
}

// Reuses reports whether the round of procs gets the caps the last
// Allocate returned, when procs differs from that round only in the
// demands at the indices changed and in demands that have grown since
// it: reuses' test, on the changed demands alone. A demand that only
// grew stays clear of the level. Allocate is not called, and the caller
// keeps the caps it set.
func (h *Host) Reuses(procs []Demand, changed []int) bool {
	k := &h.kept
	if !k.ok || k.jobs != h.computeJobs || len(k.threads) != len(procs) {
		return false
	}
	for _, i := range changed {
		if !h.keeps(i, procs[i]) {
			return false
		}
	}
	return true
}

// Clear reports whether the demand d is clear of the last round's water
// level. The last round gave a demand clear of it the level, less its
// stream overhead, whatever its size, so a round in which such a demand
// had grown instead would have given every process the same cap.
func (h *Host) Clear(d Demand) bool {
	cores, _ := h.demand(d)
	return clears(cores, h.level)
}

// keep keeps the round just solved, its level, thread counts (h.threads)
// and caps (h.caps), for the next round to reuse if every demand in it
// is clear of its level, and otherwise keeps nothing. It takes the
// round's buffers and leaves the scratch the ones it kept before.
func (h *Host) keep(unsaturated bool, level float64) {
	k := &h.kept
	if k.ok = unsaturated; !unsaturated {
		return
	}
	k.level, k.jobs = level, h.computeJobs
	k.threads, h.threads = h.threads, k.threads
	k.caps, h.caps = h.caps, k.caps
}

// RestartTime returns the dead time in seconds for restarting a
// transfer's processes when the host is running the given total number
// of transfer processes (including the restarting transfer's own).
// Restart cost grows with process oversubscription: loading the
// executable, allocating buffers, and spawning threads all contend for
// the same cores.
func (h *Host) RestartTime(totalProcs int) float64 {
	if totalProcs < 1 {
		totalProcs = 1
	}
	over := float64(totalProcs+h.computeJobs)/float64(h.cfg.Cores) - 1
	if over < 0 {
		over = 0
	}
	return h.cfg.RestartBase * (1 + restartPerLoad*over)
}

// waterLevel returns the water level L of a round: transfer processes
// demanding d (each in [0, 1] cores, with weight 1) and jobs compute jobs
// (each demanding all c cores, with weight computeWeight) share c cores,
// and L solves Σ min(d_i, L) + jobs·min(c, computeWeight·L) = c. It is
// +Inf when every demand fits. above is scratch.
//
// Each pass saturates the demands at or below L, keeps the rest, and
// sets L to the cores the saturated leave over the weight of the rest,
// which only raises L, until no demand saturates. The jobs never
// saturate: at a level where one would, the jobs alone take every core.
// A pass costs O(kept), and the figure mix takes 1.5 on average. A ladder
// of demands that saturate a few a pass would take up to n passes, so
// after ⌊log₂ n⌋ + 1 passes the demands still above L are sorted once
// and saturated in order: O(n log n) at worst. The saturated demands
// are summed exactly (fixedSum), so L depends on the multiset of
// demands, not on their order.
func waterLevel(d []float64, jobs int, c float64, above *[]float64) float64 {
	var sat fixedSum
	jobW := float64(computeWeight * jobs)
	// share is the level at which left demands above level share the
	// cores sat leaves, never below level; +Inf once none is left.
	share := func(level float64, left int) float64 {
		if left+jobs == 0 {
			return math.Inf(1)
		}
		return max(level, (c-sat.value())/(float64(left)+jobW))
	}

	level := c / (float64(len(d)) + jobW)
	kept, left := (*above)[:0], len(d)
	for _, x := range d {
		if x <= level {
			sat.add(x)
		} else {
			kept = append(kept, x)
		}
	}
	*above = kept
	for passes := bits.Len(uint(len(d))) - 1; len(kept) < left; passes-- {
		left = len(kept)
		level = share(level, left)
		if passes == 0 {
			// The ladder: the rest in ascending order, each saturating
			// while the level reaches it.
			slices.Sort(kept)
			for _, x := range kept {
				if !(x <= level) {
					break
				}
				sat.add(x)
				left--
				level = share(level, left)
			}
			break
		}
		rest := kept[:0]
		for _, x := range kept {
			if x <= level {
				sat.add(x)
			} else {
				rest = append(rest, x)
			}
		}
		kept = rest
	}
	return level
}

// fixedSum is an exact sum of values in [0, 1]: each is added as a whole
// number of 2⁻⁶², in 128 bits, so a sum does not depend on the order of
// its terms. A value of at least 2⁻¹⁰ (every demand of Allocate's, whose
// stream overhead alone is 0.001) converts exactly; a smaller one drops
// its bits below 2⁻⁶².
type fixedSum struct{ hi, lo uint64 }

func (s *fixedSum) add(x float64) {
	var carry uint64
	s.lo, carry = bits.Add64(s.lo, uint64(int64(x*0x1p62)), 0)
	s.hi += carry
}

// value is the sum rounded to a float64.
func (s *fixedSum) value() float64 {
	return float64(s.hi)*0x1p2 + float64(s.lo)*0x1p-62
}
