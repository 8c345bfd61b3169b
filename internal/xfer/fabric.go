package xfer

import (
	"context"
	"fmt"
	"math"
	"sync"

	"dstune/internal/dataset"
	"dstune/internal/endpoint"
	"dstune/internal/load"
	"dstune/internal/netem"
	"dstune/internal/sim"
	"dstune/internal/tcpmodel"
)

// FabricConfig configures a simulation fabric.
type FabricConfig struct {
	// DT is the simulation step in virtual seconds; zero selects
	// sim.DefaultDT. Network paths internally sub-step at RTT
	// resolution.
	DT float64
	// Seed drives all randomness in the fabric.
	Seed uint64
	// Source configures the source endpoint shared by all transfers.
	Source endpoint.Config
	// TCP selects the congestion-control algorithm for every stream;
	// nil selects H-TCP, the algorithm on the paper's endpoints.
	TCP tcpmodel.Algorithm
}

// Fabric is a simulated testbed: one source endpoint, one or more
// network paths, external load, and any number of transfers. Virtual
// time advances only when every active transfer has an outstanding Run
// call, so concurrently tuned transfers (the paper's §IV-D) stay in
// lockstep and results are deterministic.
type Fabric struct {
	mu   sync.Mutex
	cond *sync.Cond

	clock *sim.Clock
	rng   *sim.RNG
	src   *endpoint.Host
	alg   tcpmodel.Algorithm

	paths     []*netem.Path
	transfers []*Sim

	extSched load.Schedule
	extPath  *netem.Path
	extFlows []*netem.Flow // ext.tfr: source-originated, CPU-scheduled
	netFlows []*netem.Flow // third-party: network only
	curLoad  load.Load

	// Scratch of stepLocked's scheduling round, reused every step.
	demands []endpoint.Demand
	refs    []procRef
}

// procRef ties one demand of a scheduling round to the flow its cap
// goes to.
type procRef struct {
	tr  *Sim // nil for external flows
	idx int
	fl  *netem.Flow
}

// NewFabric returns a fabric with the given source endpoint and no
// paths; add at least one with AddPath before creating transfers.
func NewFabric(cfg FabricConfig) (*Fabric, error) {
	if err := cfg.Source.Validate(); err != nil {
		return nil, err
	}
	if cfg.TCP == nil {
		cfg.TCP = tcpmodel.NewHTCP()
	}
	f := &Fabric{
		clock:    sim.NewClock(cfg.DT),
		rng:      sim.NewRNG(cfg.Seed),
		src:      endpoint.New(cfg.Source),
		alg:      cfg.TCP,
		extSched: load.None(),
	}
	f.cond = sync.NewCond(&f.mu)
	return f, nil
}

// AddPath attaches a network path to the fabric and returns it.
func (f *Fabric) AddPath(cfg netem.Config) (*netem.Path, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	p := netem.New(cfg, f.rng.Split())
	f.paths = append(f.paths, p)
	if f.extPath == nil {
		f.extPath = p
	}
	return p, nil
}

// SetLoad installs the external-load schedule. The compute component
// applies to the source endpoint; the transfer-traffic component runs
// on path p (nil selects the first path). Call before transfers start.
func (f *Fabric) SetLoad(s load.Schedule, p *netem.Path) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s == nil {
		s = load.None()
	}
	f.extSched = s
	if p != nil {
		f.extPath = p
	}
}

// Now returns the fabric's virtual time in seconds.
func (f *Fabric) Now() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.clock.Now()
}

// TransferConfig describes one transfer on a fabric.
type TransferConfig struct {
	// Name is read by nothing. It stays only because bench/, which
	// changes only with the benchmark, sets it.
	Name string
	// Path is the network path to transfer over; nil selects the
	// fabric's first path.
	Path *netem.Path
	// Bytes is the data size; use math.Inf(1) (or Unbounded) for the
	// paper's fixed-duration memory-to-memory runs. Ignored when
	// Files is non-empty.
	Bytes float64
	// Policy selects the restart behaviour; the zero value is
	// RestartEveryEpoch, matching the paper's tuners.
	Policy RestartPolicy
	// Files selects disk-to-disk mode: the set of files to move.
	// Each concurrency unit moves one file at a time from a storage
	// array of 2 GB/s, and each file costs a 0.5 s request latency
	// that the pipelining parameter amortizes.
	Files dataset.Dataset
}

// Unbounded is a convenience size for transfers that run until the
// driver stops them.
var Unbounded = math.Inf(1)

// Sim is a simulated transfer on a Fabric. It implements Transferer.
// Create with Fabric.NewTransfer; each Sim must then either Run until
// done or be Stopped — an idle registered transfer blocks virtual
// time for the whole fabric.
type Sim struct {
	f      *Fabric
	path   *netem.Path
	policy RestartPolicy

	total     float64 // configured volume (Inf for unbounded)
	remaining float64
	moved     float64 // cumulative delivered bytes
	params    Params
	flows     []*netem.Flow
	prevFlow  []float64  // per-flow cumulative bytes already accounted
	disk      *diskState // nil for memory-to-memory transfers

	target    float64 // absolute virtual time this transfer wants to reach
	deadUntil float64 // restarting until this virtual time
	restarted bool    // torn down by Run; stepLocked still owes deadUntil
	started   bool    // first Run seen
	startTime float64 // virtual time of first Run
	done      bool
	stopped   bool

	epochBytes float64
	epochDead  float64
}

// NewTransfer registers a transfer on the fabric. All transfers that
// will run concurrently must be registered before any of them starts
// running, so that virtual time cannot race ahead of a late joiner.
func (f *Fabric) NewTransfer(cfg TransferConfig) (*Sim, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.paths) == 0 {
		return nil, fmt.Errorf("xfer: fabric has no paths")
	}
	p := cfg.Path
	if p == nil {
		p = f.paths[0]
	}
	tr := &Sim{
		f:         f,
		path:      p,
		policy:    cfg.Policy,
		remaining: cfg.Bytes,
		target:    f.clock.Now(), // blocks stepping until Run or Stop
	}
	if cfg.Files.Count() > 0 {
		tr.disk = newDiskState(cfg.Files)
		tr.remaining = float64(cfg.Files.TotalBytes())
	} else if cfg.Bytes <= 0 {
		return nil, fmt.Errorf("xfer: transfer size must be positive, got %v", cfg.Bytes)
	}
	tr.total = tr.remaining
	f.transfers = append(f.transfers, tr)
	return tr, nil
}

// Remaining implements Transferer.
func (t *Sim) Remaining() float64 {
	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	if t.remaining < 0 {
		return 0
	}
	return t.remaining
}

// Now implements Transferer. It returns seconds since the transfer's
// first Run (zero before that).
func (t *Sim) Now() float64 {
	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	if !t.started {
		return 0
	}
	return t.f.clock.Now() - t.startTime
}

// Stop implements Transferer.
func (t *Sim) Stop() {
	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	t.stopped = true
	t.teardownLocked()
	t.f.cond.Broadcast()
}

// Snapshot implements Snapshotter.
func (t *Sim) Snapshot() TransferState {
	t.f.mu.Lock()
	defer t.f.mu.Unlock()
	clock := 0.0
	if t.started {
		clock = t.f.clock.Now() - t.startTime
	}
	rem := t.remaining
	if rem < 0 {
		rem = 0
	}
	return TransferState{
		Total:     Finite(t.total),
		Acked:     t.moved,
		Remaining: Finite(rem),
		Clock:     clock,
	}
}

// Run implements Transferer. Cancelling ctx ends the epoch at the
// current virtual time: the partial epoch's report is returned with
// the context's error, and the transfer stays registered and
// resumable (unlike Stop, which tears it down).
func (t *Sim) Run(ctx context.Context, p Params, epoch float64) (Report, error) {
	f := t.f
	f.mu.Lock()
	defer f.mu.Unlock()

	if t.stopped {
		return Report{}, ErrStopped
	}
	if err := ctx.Err(); err != nil {
		return Report{}, err
	}
	if epoch <= 0 {
		return Report{}, ErrBadEpoch
	}
	if !p.Valid() {
		return Report{}, ErrBadParams
	}
	// A cancelled ctx must wake the barrier wait below.
	defer context.AfterFunc(ctx, func() {
		f.mu.Lock()
		f.cond.Broadcast()
		f.mu.Unlock()
	})()
	now := f.clock.Now()
	if !t.started {
		t.started = true
		t.startTime = now
	}
	if t.done {
		return Report{Params: p, Start: now - t.startTime, End: now - t.startTime, Done: true}, nil
	}

	t.epochBytes = 0
	t.epochDead = 0
	if t.disk != nil {
		t.disk.epochFiles = 0
	}
	restart := t.flows == nil || t.policy == RestartEveryEpoch ||
		(t.policy == RestartOnChange && p != t.params)
	t.params = p
	if restart {
		t.restartLocked()
	}

	start := now
	t.target = start + epoch
	f.cond.Broadcast()
	for f.clock.Now() < t.target-1e-9 && !t.done && !t.stopped && ctx.Err() == nil {
		if f.canStepLocked() {
			f.stepLocked()
			f.cond.Broadcast()
		} else {
			f.cond.Wait()
		}
	}
	if t.stopped {
		return Report{}, ErrStopped
	}
	end := f.clock.Now()
	t.target = end // hold the barrier at the epoch's end: nobody steps past it while this transfer idles

	elapsed := end - start
	r := Report{
		Params:   p,
		Start:    start - t.startTime,
		End:      end - t.startTime,
		Bytes:    t.epochBytes,
		DeadTime: t.epochDead,
		Done:     t.done,
	}
	if t.disk != nil {
		r.Files = t.disk.epochFiles
	}
	if elapsed > 0 {
		r.Throughput = r.Bytes / elapsed
	}
	if live := elapsed - r.DeadTime; live > 0 {
		r.BestCase = r.Bytes / live
	}
	f.cond.Broadcast()
	return r, ctx.Err()
}

// restartLocked tears down the transfer's processes and leaves the
// restart dead time for the next stepLocked to settle: the dead time
// depends on what else runs on the source, and two transfers that
// restart at the same instant must both see the source after both
// teardowns, whichever goroutine got here first. For a disk transfer,
// files in flight go back to the head of the queue (the restarted
// processes re-request them).
func (t *Sim) restartLocked() {
	for _, fl := range t.flows {
		fl.Remove()
	}
	t.flows = nil
	t.prevFlow = nil
	if t.disk != nil {
		t.disk.requeueInFlight()
	}
	t.restarted = true
}

// teardownLocked removes the transfer's flows and releases the time
// barrier.
func (t *Sim) teardownLocked() {
	for _, fl := range t.flows {
		fl.Remove()
	}
	t.flows = nil
	t.target = math.Inf(1)
}

// launchLocked creates the transfer's nc flows of np streams each.
func (t *Sim) launchLocked() {
	t.flows = make([]*netem.Flow, t.params.NC)
	for i := range t.flows {
		t.flows[i] = t.path.NewFlow(t.params.NP, t.f.alg)
	}
	t.prevFlow = make([]float64, t.params.NC)
	if t.disk != nil {
		t.disk.resize(t.params.NC)
	}
}

// totalProcsLocked counts transfer processes currently running on the
// source: all transfers' concurrency plus external transfer flows.
func (f *Fabric) totalProcsLocked() int {
	n := len(f.extFlows)
	for _, tr := range f.transfers {
		n += len(tr.flows)
	}
	return n
}

// canStepLocked reports whether every registered, unfinished transfer
// has asked for time beyond the clock — the conservative-time barrier.
func (f *Fabric) canStepLocked() bool {
	now := f.clock.Now()
	for _, tr := range f.transfers {
		if tr.done || tr.stopped {
			continue
		}
		if tr.target <= now+1e-9 {
			return false
		}
	}
	return true
}

// stepLocked advances the world by one clock step: external load,
// process launches, CPU scheduling, network dynamics, and per-transfer
// byte accounting.
func (f *Fabric) stepLocked() {
	now := f.clock.Now()
	dt := f.clock.DT()

	// Restarts requested since the last step, in registration order.
	// The barrier held the clock since the teardown, so now is still the
	// instant of the restart; the external flows are still the ones that
	// ran when it was requested.
	for _, tr := range f.transfers {
		if tr.restarted {
			tr.restarted = false
			tr.deadUntil = now + f.src.RestartTime(f.totalProcsLocked()+tr.params.NC)
		}
	}

	// External load.
	l := f.extSched.At(now)
	if l != f.curLoad {
		f.applyLoadLocked(l)
	}

	// Launch transfers whose restart dead time has elapsed.
	for _, tr := range f.transfers {
		if tr.done || tr.stopped || tr.flows != nil {
			continue
		}
		if tr.started && now >= tr.deadUntil-1e-9 {
			tr.launchLocked()
		}
	}

	// Disk pre-phase: hand files to idle processes and count active
	// movers, so the scheduling round below can block waiting
	// processes and share the storage bandwidth.
	for _, tr := range f.transfers {
		if tr.disk != nil && tr.flows != nil && !tr.done && !tr.stopped {
			tr.disk.assign(now, tr.params.Pipelining())
		}
	}

	// CPU scheduling: one allocation round over every process on the
	// source (all transfers' processes plus external transfer
	// processes). Demands use the window-limited offered rate with
	// headroom so flows can grow into idle capacity.
	const headroom = 2.0
	const demandFloor = 10e6 // bytes/s; lets fresh processes ramp
	demands, refs := f.demands[:0], f.refs[:0]
	for _, tr := range f.transfers {
		for i, fl := range tr.flows {
			demands = append(demands, endpoint.Demand{
				Threads: fl.Streams(),
				Rate:    fl.OfferedRate()*headroom + demandFloor,
			})
			refs = append(refs, procRef{tr: tr, idx: i, fl: fl})
		}
	}
	for _, fl := range f.extFlows {
		demands = append(demands, endpoint.Demand{
			Threads: fl.Streams(),
			Rate:    fl.OfferedRate()*headroom + demandFloor,
		})
		refs = append(refs, procRef{fl: fl})
	}
	if len(refs) > 0 {
		caps := f.src.Allocate(demands)
		for i, ref := range refs {
			c := caps[i]
			if ref.tr != nil && ref.tr.disk != nil {
				c = ref.tr.disk.capFor(ref.idx, now, c)
			}
			if c <= 0 {
				c = -1 // starved or waiting: fully blocked
			}
			ref.fl.SetCap(c)
		}
	}
	// The scratch must not keep a removed flow or a finished transfer
	// reachable until a later round happens to overwrite it.
	clear(refs)
	f.demands, f.refs = demands, refs[:0]

	// Network dynamics.
	for _, p := range f.paths {
		p.Step(dt)
	}

	// Per-transfer accounting.
	for _, tr := range f.transfers {
		if tr.done || tr.stopped {
			continue
		}
		if tr.flows == nil {
			if tr.started {
				tr.epochDead += dt
			}
			continue
		}
		var moved float64
		for i, fl := range tr.flows {
			delta := fl.Delivered() - tr.prevFlow[i]
			tr.prevFlow[i] = fl.Delivered()
			if tr.disk != nil {
				moved += tr.disk.consume(i, delta)
			} else {
				moved += delta
			}
		}
		if moved > tr.remaining {
			moved = tr.remaining
		}
		tr.epochBytes += moved
		tr.moved += moved
		tr.remaining -= moved
		finished := tr.remaining <= 0
		if tr.disk != nil {
			finished = tr.disk.finished()
		}
		if finished {
			tr.remaining = 0
			tr.done = true
			tr.teardownLocked()
		}
	}

	f.clock.Tick()
}

// applyLoadLocked adjusts the external compute jobs and transfer flows
// to match l.
func (f *Fabric) applyLoadLocked(l load.Load) {
	f.curLoad = l
	f.src.SetComputeJobs(l.Cmp)
	// External transfer traffic: one single-stream process per
	// ext.tfr unit, as in the paper's controlled experiments.
	for len(f.extFlows) > l.Tfr {
		last := len(f.extFlows) - 1
		f.extFlows[last].Remove()
		f.extFlows = f.extFlows[:last]
	}
	for len(f.extFlows) < l.Tfr {
		f.extFlows = append(f.extFlows, f.extPath.NewFlow(1, f.alg))
	}
	// Third-party traffic crosses the path but not the source host:
	// its flows never enter the CPU scheduling round.
	for len(f.netFlows) > l.Net {
		last := len(f.netFlows) - 1
		f.netFlows[last].Remove()
		f.netFlows = f.netFlows[:last]
	}
	for len(f.netFlows) < l.Net {
		f.netFlows = append(f.netFlows, f.extPath.NewFlow(1, f.alg))
	}
}
