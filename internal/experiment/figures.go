package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dstune/internal/load"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// forEachCell runs fn(i) for every i in [0, n) on a bounded worker
// pool (GOMAXPROCS workers) and returns the lowest-index error. Each
// cell must be self-contained — its own seeded fabric and RNGs — and
// must write its result into an index-addressed slot, so the output
// is deterministic and independent of completion order.
func forEachCell(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunConfig carries the knobs shared by the figure harnesses. The zero
// value reproduces the paper's settings.
type RunConfig struct {
	// Seed drives all randomness; runs with equal seeds are
	// identical.
	Seed uint64
	// Duration is the transfer budget in seconds; zero selects the
	// paper's 1800 s.
	Duration float64
	// Epoch is the control epoch e; zero selects the paper's 30 s.
	Epoch float64
}

// The figure harnesses' search space: parallelism fixed at the paper's
// 8 for concurrency-only tuning, and the box's upper bounds.
const (
	fixedNP      = 8
	maxNC, maxNP = 128, 16
)

// withDefaults returns rc with zero fields replaced by defaults.
func (rc RunConfig) withDefaults() RunConfig {
	if rc.Duration == 0 {
		rc.Duration = 1800
	}
	if rc.Epoch == 0 {
		rc.Epoch = 30
	}
	return rc
}

// tunerCfg builds the tuner configuration for rc. twoParam selects
// [nc, np] tuning (§IV-B) over nc-only tuning (§IV-A).
func (rc RunConfig) tunerCfg(twoParam bool) tuner.Config {
	return rc.spaceCfg(tuner.Space{Two: twoParam})
}

// spaceCfg builds the tuner configuration for rc over sp's dimensions,
// in the harnesses' box.
func (rc RunConfig) spaceCfg(sp tuner.Space) tuner.Config {
	sp.NP, sp.MaxNC, sp.MaxNP = fixedNP, maxNC, maxNP
	return sp.Apply(tuner.Config{Epoch: rc.Epoch, Budget: rc.Duration, Seed: rc.Seed})
}

// runTuned executes one tuned memory-to-memory transfer on a fresh
// fabric of tb under schedule sched.
func runTuned(tb Testbed, name string, sched load.Schedule, rc RunConfig, twoParam bool) (*tuner.Trace, error) {
	rc = rc.withDefaults()
	return runTransfer(tb, name, sched, rc.Seed, xfer.TransferConfig{Bytes: xfer.Unbounded}, rc.tunerCfg(twoParam))
}

// runTransfer tunes the transfer tc describes with the named tuner on
// a fresh fabric of tb under schedule sched, restarting its processes
// as tuner.RestartPolicyFor says that tuner does.
func runTransfer(tb Testbed, name string, sched load.Schedule, seed uint64, tc xfer.TransferConfig, cfg tuner.Config) (*tuner.Trace, error) {
	return runPolicy(tb, name, tuner.RestartPolicyFor(name), sched, seed, tc, cfg)
}

// runPolicy is runTransfer with the restart policy explicit, for the
// ablations that vary it.
func runPolicy(tb Testbed, name string, policy xfer.RestartPolicy, sched load.Schedule, seed uint64, tc xfer.TransferConfig, cfg tuner.Config) (*tuner.Trace, error) {
	f, _, err := tb.NewFabric(seed)
	if err != nil {
		return nil, err
	}
	f.SetLoad(sched, nil)
	tc.Name, tc.Policy = name, policy
	tr, err := f.NewTransfer(tc)
	if err != nil {
		return nil, err
	}
	return tuner.Run(context.Background(), name, cfg, tr)
}

// TuningResult holds the traces of several tuners run under identical
// conditions — the payload of Figures 5-10.
type TuningResult struct {
	Testbed  string
	Scenario string
	// Order lists tuner names in presentation order.
	Order []string
	// Traces maps tuner name -> its per-epoch trace.
	Traces map[string]*tuner.Trace
}

// runSet runs the named tuners under the same schedule, each on a
// fresh, identically seeded fabric (as in the paper, where each tuner
// gets its own transfer window under reproduced load).
func runSet(tb Testbed, names []string, scenario string, sched load.Schedule, rc RunConfig, twoParam bool) (*TuningResult, error) {
	return runEach(tb, names, scenario, func(name string) (*tuner.Trace, error) {
		return runTuned(tb, name, sched, rc, twoParam)
	})
}

// runEach collects run(name) for every name into one result. Each run
// builds its own seeded fabric, so the runs are independent and share
// the worker pool; traces land in index-addressed slots to keep the
// result order-independent.
func runEach(tb Testbed, names []string, scenario string, run func(name string) (*tuner.Trace, error)) (*TuningResult, error) {
	traces := make([]*tuner.Trace, len(names))
	err := forEachCell(len(names), func(i int) error {
		tr, err := run(names[i])
		if err != nil {
			return fmt.Errorf("%s under %s: %w", names[i], scenario, err)
		}
		traces[i] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &TuningResult{
		Testbed:  tb.Name,
		Scenario: scenario,
		Order:    names,
		Traces:   make(map[string]*tuner.Trace, len(names)),
	}
	for i, name := range names {
		res.Traces[name] = traces[i]
	}
	return res, nil
}

// Fig5Loads are the five external-load scenarios of Figures 5-7, in
// subfigure order (a)-(e).
func Fig5Loads() []load.Load {
	return []load.Load{
		{},        // (a) no load
		{Cmp: 16}, // (b) external compute 16
		{Cmp: 64}, // (c) external compute 64
		{Tfr: 16}, // (d) external traffic 16
		{Tfr: 64}, // (e) external traffic 64
	}
}

// TuneConcurrency reproduces one subfigure of Figures 5-7: default,
// cd-tuner, cs-tuner, and nm-tuner tuning concurrency (np fixed)
// under constant load l. The returned traces carry the observed
// throughput (Fig 5), the adopted nc values (Fig 6), and the
// best-case throughput (Fig 7).
func TuneConcurrency(tb Testbed, l load.Load, rc RunConfig) (*TuningResult, error) {
	names := []string{"default", "cd-tuner", "cs-tuner", "nm-tuner"}
	return runSet(tb, names, l.String(), load.Constant(l), rc, false)
}

// VaryingLoad is the §IV-B / §IV-C schedule: ext.tfr=64, ext.cmp=16
// until t=1000 s, then ext.tfr=16, ext.cmp=16.
func VaryingLoad() load.Schedule {
	return load.Step(1000, load.Load{Tfr: 64, Cmp: 16}, load.Load{Tfr: 16, Cmp: 16})
}

// TuneBoth reproduces Figure 8 (ANL->TACC) and Figure 9
// (ANL->UChicago): cs-tuner and nm-tuner tuning concurrency and
// parallelism simultaneously under the varying load, against default.
// cd-tuner is omitted as in the paper (it is ineffective under
// changing load).
func TuneBoth(tb Testbed, rc RunConfig) (*TuningResult, error) {
	names := []string{"default", "cs-tuner", "nm-tuner"}
	return runSet(tb, names, "varying load", VaryingLoad(), rc, true)
}

// CompareHeuristics reproduces Figure 10: nm-tuner against heur1
// (Balman) and heur2 (Yildirim) on ANL->TACC under the varying load,
// tuning both parameters.
func CompareHeuristics(tb Testbed, rc RunConfig) (*TuningResult, error) {
	names := []string{"nm-tuner", "heur1", "heur2"}
	return runSet(tb, names, "varying load", VaryingLoad(), rc, true)
}

// SimultaneousResult holds Figure 11's outcome: two transfers from the
// same source, each independently tuned, treating each other as
// external load.
type SimultaneousResult struct {
	Tuner    string
	UChicago *tuner.Trace
	TACC     *tuner.Trace
}

// Simultaneous reproduces Figure 11: one transfer to UChicago and one
// to TACC share the ANL source NIC while the named tuner ("nm-tuner"
// or "cs-tuner") tunes nc and np for each independently. The two
// tuners run concurrently in lockstep virtual time.
func Simultaneous(name string, rc RunConfig) (*SimultaneousResult, error) {
	rc = rc.withDefaults()
	t1, t2, err := dualTransfers(rc.Seed)
	if err != nil {
		return nil, err
	}

	// One Fleet, two sessions: each transfer gets its own strategy
	// instance (offset seeds) and is tuned on its own goroutine, as the
	// paper's two independent tuner processes are. The shared fabric's
	// conservative-time barrier is all that couples them: virtual time
	// advances only when both transfers are inside an epoch.
	session := func(t xfer.Transferer, seedOff uint64) (tuner.FleetSession, error) {
		cfg := rc.tunerCfg(true)
		cfg.Seed += seedOff
		s, err := tuner.NewStrategy(name, cfg)
		if err != nil {
			return tuner.FleetSession{}, err
		}
		return tuner.FleetSession{
			Name:      name,
			Strategy:  s,
			Transfers: []xfer.Transferer{t},
			Maps:      []tuner.ParamMap{cfg.Map},
		}, nil
	}
	s1, err := session(t1, 0)
	if err != nil {
		return nil, err
	}
	s2, err := session(t2, 1)
	if err != nil {
		return nil, err
	}
	cfg := rc.tunerCfg(true)
	fleet := tuner.NewFleet(tuner.FleetConfig{Epoch: cfg.Epoch, Budget: cfg.Budget}, s1, s2)
	results, err := fleet.Run(context.Background())
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
	}
	return &SimultaneousResult{Tuner: name, UChicago: results[0].Traces[0], TACC: results[1].Traces[0]}, nil
}
