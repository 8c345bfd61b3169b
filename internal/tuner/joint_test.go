package tuner

import (
	"context"
	"sync"
	"testing"

	"dstune/internal/directsearch"
	"dstune/internal/xfer"
)

// sharedFake models two transfers competing for one capacity pool: a
// transfer's throughput is its demand share of the pool, minus an
// overhead quadratic in the total stream count — so the joint optimum
// differs from each transfer greedily maximizing its own share.
type sharedFake struct {
	mu       sync.Mutex
	posted   *sync.Cond
	capacity float64
	quad     float64
	demand   [2]float64 // per-transfer current demand (streams)
	arrived  int        // members that posted their demand this round
	departed int        // members that read the round's total
}

// member returns the transfer i view of the pool.
func (s *sharedFake) member(i int) *sharedMember {
	return &sharedMember{pool: s, idx: i, remaining: 1e18}
}

type sharedMember struct {
	pool      *sharedFake
	idx       int
	remaining float64
	now       float64
	stopped   bool
}

func (m *sharedMember) Run(ctx context.Context, p xfer.Params, epoch float64) (xfer.Report, error) {
	if m.stopped {
		return xfer.Report{}, xfer.ErrStopped
	}
	s := m.pool
	s.mu.Lock()
	if s.posted == nil {
		s.posted = sync.NewCond(&s.mu)
	}
	s.demand[m.idx] = float64(p.Streams())
	// Round barrier: the fleet runs both members' epochs concurrently,
	// so wait until both demands for this round are posted before
	// reading the total — otherwise the measured throughput depends on
	// goroutine scheduling order.
	s.arrived++
	if s.arrived == 2 {
		s.posted.Broadcast()
	}
	for s.arrived < 2 {
		s.posted.Wait()
	}
	total := s.demand[0] + s.demand[1]
	eff := 1 / (1 + s.quad*total*total)
	tput := 0.0
	if total > 0 {
		tput = s.capacity * eff * s.demand[m.idx] / total
	}
	s.departed++
	if s.departed == 2 {
		s.arrived, s.departed = 0, 0
	}
	s.mu.Unlock()
	start := m.now
	m.now += epoch
	bytes := tput * epoch
	m.remaining -= bytes
	return xfer.Report{
		Params: p, Start: start, End: m.now,
		Bytes: bytes, Throughput: tput, BestCase: tput,
	}, nil
}

func (m *sharedMember) Remaining() float64 { return m.remaining }
func (m *sharedMember) Now() float64       { return m.now }
func (m *sharedMember) Stop()              { m.stopped = true }

// jointSession is a joint session over the pool's two transfers: the
// named search (cs-tuner or nm-tuner) over the concatenated vector
// [nc0, nc1], each transfer taking one coordinate.
func jointSession(t *testing.T, strategy string, pool *sharedFake) FleetSession {
	t.Helper()
	s, err := NewStrategy(strategy, Config{
		Epoch: 10,
		Box:   directsearch.MustBox([]int{1, 1}, []int{64, 64}),
		Start: []int{2, 2},
		Seed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return FleetSession{
		Name:      "joint",
		Strategy:  s,
		Transfers: []xfer.Transferer{pool.member(0), pool.member(1)},
		Dims:      []int{1, 1},
		Maps:      []ParamMap{MapNC(1), MapNC(1)},
	}
}

// runJoint runs one joint session the way a joint run is configured —
// the first failed epoch of any kind ends it — and returns its result.
func runJoint(t *testing.T, budget float64, session FleetSession) SessionResult {
	t.Helper()
	results, err := NewFleet(FleetConfig{Epoch: 10, Budget: budget, MaxTransientFailures: 1}, session).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return results[0]
}

func TestJointSessionValidation(t *testing.T) {
	pool := &sharedFake{capacity: 1e9, quad: 1e-4}
	run := func(mutate func(*FleetSession)) error {
		session := jointSession(t, "cs-tuner", pool)
		mutate(&session)
		_, err := NewFleet(FleetConfig{Epoch: 10, Budget: 100}, session).Run(context.Background())
		return err
	}
	if err := run(func(*FleetSession) {}); err != nil {
		t.Fatalf("valid session rejected: %v", err)
	}
	for name, mutate := range map[string]func(*FleetSession){
		"empty dims":         func(s *FleetSession) { s.Dims = nil },
		"map count mismatch": func(s *FleetSession) { s.Maps = s.Maps[:1] },
		"zero dim":           func(s *FleetSession) { s.Dims = []int{1, 0} },
		"nil map":            func(s *FleetSession) { s.Maps = []ParamMap{nil, MapNC(1)} },
	} {
		if run(mutate) == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A box whose width disagrees with Dims passes validation — the
	// strategy's width is its own — and fails the session's first round.
	session := jointSession(t, "cs-tuner", pool)
	session.Dims = []int{1, 2}
	if res := runJoint(t, 100, session); res.Err == nil || len(res.Traces[0].Results) != 0 {
		t.Fatalf("width mismatch: err %v after %d epochs, want an error before the first", res.Err, len(res.Traces[0].Results))
	}
}

func TestJointTuneWrongTransferCount(t *testing.T) {
	pool := &sharedFake{capacity: 1e9, quad: 1e-4}
	session := jointSession(t, "cs-tuner", pool)
	session.Transfers = session.Transfers[:1]
	if _, err := NewFleet(FleetConfig{Epoch: 10, Budget: 100}, session).Run(context.Background()); err == nil {
		t.Fatal("transfer count mismatch accepted")
	}
}

func TestJointFindsSharedOptimum(t *testing.T) {
	// Aggregate = capacity / (1 + quad*total^2) is maximized by the
	// SMALLEST total stream count; independent greedy tuners would
	// race upward. Joint tuning must keep the total low.
	for _, name := range []string{"cs-tuner", "nm-tuner"} {
		pool := &sharedFake{capacity: 1e9, quad: 1.0 / 256} // optimum: total -> minimal
		res := runJoint(t, 2400, jointSession(t, name, pool))
		if res.Err != nil {
			t.Fatalf("%s: %v", name, res.Err)
		}
		traces := res.Traces
		if len(traces) != 2 {
			t.Fatalf("%s: %d traces", name, len(traces))
		}
		// Greedy independent tuners would race toward the 64+64
		// bound; the joint objective keeps the total an order of
		// magnitude lower (integer NM/compass stop within a few
		// steps of the true minimum once gains drop under ε).
		total := traces[0].FinalX()[0] + traces[1].FinalX()[0]
		if total > 16 {
			t.Errorf("%s: final total streams %d, want small (joint optimum)", name, total)
		}
	}
}

func TestJointInteriorOptimum(t *testing.T) {
	pool := &sharedFake{capacity: 1e9, quad: 1.0 / 256}
	res := runJoint(t, 2400, jointSession(t, "cs-tuner", pool))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for i, tr := range res.Traces {
		if tr.Tuner != "joint" {
			t.Fatalf("transfer %d's trace is labelled %q, want the session's name", i, tr.Tuner)
		}
		if tr.MeanThroughput() <= 0 {
			t.Fatalf("transfer %d made no progress", i)
		}
		if len(tr.Results) == 0 {
			t.Fatalf("transfer %d has no epochs", i)
		}
	}
}

func TestJointBudget(t *testing.T) {
	pool := &sharedFake{capacity: 1e9, quad: 1e-6}
	res := runJoint(t, 200, jointSession(t, "nm-tuner", pool))
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// 200 s budget at 10 s epochs: exactly 20 joint epochs per
	// transfer.
	for i, tr := range res.Traces {
		if len(tr.Results) != 20 {
			t.Fatalf("transfer %d ran %d epochs, want 20", i, len(tr.Results))
		}
	}
}

func TestJointStopsTransfers(t *testing.T) {
	pool := &sharedFake{capacity: 1e9, quad: 1e-6}
	session := jointSession(t, "cs-tuner", pool)
	if res := runJoint(t, 100, session); res.Err != nil {
		t.Fatal(res.Err)
	}
	for i, tr := range session.Transfers {
		if !tr.(*sharedMember).stopped {
			t.Fatalf("joint session did not stop transfer %d", i)
		}
	}
}

// TestJointFirstFailedEpochEndsRun: under the joint configuration
// (MaxTransientFailures 1) one transfer's first failed epoch — even a
// transient one — ends the session with that error, keeps one trace per
// transfer holding only the epochs settled before it, stops both
// transfers, and leaves a sibling session of the same fleet to run out
// its budget.
func TestJointFirstFailedEpochEndsRun(t *testing.T) {
	healthy, failing := &flaky{}, &flaky{failRuns: map[int]bool{3: true}}
	joint := jointSession(t, "nm-tuner", &sharedFake{})
	joint.Transfers = []xfer.Transferer{healthy, failing}
	scfg := cfg1D(0)
	results, err := NewFleet(FleetConfig{Epoch: 10, Budget: 100, MaxTransientFailures: 1},
		joint,
		FleetSession{
			Name:      "sibling",
			Strategy:  NewCSStrategy(scfg),
			Transfers: []xfer.Transferer{&flaky{}},
			Maps:      []ParamMap{scfg.Map},
		},
	).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if !xfer.IsTransient(res.Err) {
		t.Fatalf("joint session ended with %v, want the transient failure of its third epoch", res.Err)
	}
	if len(res.Traces) != 2 {
		t.Fatalf("joint session has %d traces, want one per transfer", len(res.Traces))
	}
	for i, tr := range res.Traces {
		if len(tr.Results) != 2 {
			t.Errorf("transfer %d recorded %d epochs, want the 2 settled before the failure", i, len(tr.Results))
		}
	}
	if !healthy.stopped || !failing.stopped {
		t.Error("failed joint session left a transfer running")
	}
	if results[1].Err != nil || len(results[1].Traces[0].Results) != 10 {
		t.Errorf("sibling session: err %v after %d epochs, want 10 clean epochs", results[1].Err, len(results[1].Traces[0].Results))
	}
}

func TestMapNCNPPP(t *testing.T) {
	p := MapNCNPPP()([]int{3, 4, 5})
	if p != (xfer.Params{NC: 3, NP: 4, PP: 5}) {
		t.Fatalf("MapNCNPPP = %v", p)
	}
}

func TestObserveBestCase(t *testing.T) {
	cfg := Config{ObserveBestCase: true}
	rep := xfer.Report{Throughput: 10, BestCase: 20}
	if fitnessOf(cfg, rep) != 20 {
		t.Fatal("ObserveBestCase not honoured")
	}
	cfg.ObserveBestCase = false
	if fitnessOf(cfg, rep) != 10 {
		t.Fatal("default observation wrong")
	}
}
