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
//     cores among demands. CPU-bound compute jobs carry a higher weight
//     than I/O-bound transfer processes, which models the penalty that
//     frequently-yielding transfer threads pay against spinning dgemm
//     threads under a real kernel scheduler.
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
	"slices"
	"sort"
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
	fill      waterfill
	overheads []float64
	caps      []float64
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
// The returned slice belongs to the host and is valid until the next
// Allocate call, which overwrites it: a caller that keeps caps across
// rounds copies them. A round allocates nothing once the host has seen
// a round as large.
func (h *Host) Allocate(procs []Demand) []float64 {
	cfg := h.cfg
	n := len(procs)
	caps := slices.Grow(h.caps[:0], n)[:n]
	h.caps = caps
	if n == 0 {
		return caps
	}

	// Total runnable threads: each compute job spins on every core.
	totalThreads := h.computeJobs * cfg.Cores
	for _, d := range procs {
		t := d.Threads
		if t < 1 {
			t = 1
		}
		totalThreads += t
	}
	eff := h.Efficiency(totalThreads)

	// Build the demand vector in units of cores. A transfer process
	// can exploit at most one core (GridFTP parallelism threads share
	// their process's core); a compute job wants the whole machine.
	wf := &h.fill
	demands, weights := wf.d[:0], wf.w[:0]
	overheads := slices.Grow(h.overheads[:0], n)[:n]
	h.overheads = overheads
	for i, d := range procs {
		t := d.Threads
		if t < 1 {
			t = 1
		}
		overheads[i] = streamOverhead * float64(t)
		rate := d.Rate
		if rate < 0 {
			rate = 0
		}
		dem := rate/cfg.CorePumpRate + overheads[i]
		if dem > 1 {
			dem = 1
		}
		demands = append(demands, dem)
		weights = append(weights, 1)
	}
	for j := 0; j < h.computeJobs; j++ {
		demands = append(demands, float64(cfg.Cores))
		weights = append(weights, computeWeight)
	}
	wf.d, wf.w = demands, weights

	alloc := wf.run(float64(cfg.Cores))

	total := 0.0
	for i := range procs {
		c := (alloc[i] - overheads[i]) * cfg.CorePumpRate * eff
		if c < 0 {
			c = 0
		}
		caps[i] = c
		total += c
	}

	// The NIC caps the aggregate outgoing rate across all processes
	// and paths; scale everyone down proportionally when it binds.
	if cfg.NICRate > 0 && total > cfg.NICRate {
		scale := cfg.NICRate / total
		for i := range caps {
			caps[i] *= scale
		}
	}
	return caps
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

// waterfill computes the weighted max-min fair allocation of a capacity
// among demands d with weights w: alloc[i] = min(d[i], w[i]*level) with
// level chosen so the capacity is exhausted, or alloc = d when total
// demand fits. Its slices are scratch reused from round to round; as a
// sort.Interface it orders idx by sat, the level d[i]/w[i] at which each
// demand saturates, computed once a round.
type waterfill struct {
	d, w, alloc, sat []float64
	idx              []int
}

func (wf *waterfill) Len() int { return len(wf.idx) }

func (wf *waterfill) Less(a, b int) bool { return wf.sat[wf.idx[a]] < wf.sat[wf.idx[b]] }

func (wf *waterfill) Swap(a, b int) { wf.idx[a], wf.idx[b] = wf.idx[b], wf.idx[a] }

// run allocates capacity c among wf.d and returns wf.alloc, valid until
// the next run.
func (wf *waterfill) run(c float64) []float64 {
	d, w := wf.d, wf.w
	n := len(d)
	alloc := slices.Grow(wf.alloc[:0], n)[:n]
	clear(alloc)
	sat := slices.Grow(wf.sat[:0], n)[:n]
	idx := slices.Grow(wf.idx[:0], n)[:n]
	for i := range idx {
		sat[i] = d[i] / w[i]
		idx[i] = i
	}
	wf.alloc, wf.sat, wf.idx = alloc, sat, idx
	// Ascending by the level at which each demand saturates.
	sort.Sort(wf)

	remaining := c
	weightSum := 0.0
	for _, i := range idx {
		weightSum += w[i]
	}
	for _, i := range idx {
		if weightSum <= 0 || remaining <= 0 {
			break
		}
		level := remaining / weightSum
		if d[i] <= w[i]*level {
			alloc[i] = d[i]
		} else {
			alloc[i] = w[i] * level
		}
		remaining -= alloc[i]
		weightSum -= w[i]
	}
	return alloc
}
