package tuner

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"dstune/internal/directsearch"
	"dstune/internal/xfer"
)

// flaky is a Transferer whose listed run numbers (1-based) fail with a
// transient error; all other runs deliver a constant throughput.
type flaky struct {
	now       float64
	failRuns  map[int]bool
	fatalRuns map[int]bool
	runs      int
	stopped   bool
}

func (f *flaky) Run(ctx context.Context, p xfer.Params, epoch float64) (xfer.Report, error) {
	if f.stopped {
		return xfer.Report{}, xfer.ErrStopped
	}
	f.runs++
	start := f.now
	f.now += epoch
	if f.fatalRuns[f.runs] {
		return xfer.Report{}, errors.New("flaky: fatal failure")
	}
	if f.failRuns[f.runs] {
		return xfer.Report{}, xfer.Transient(fmt.Errorf("flaky: epoch %d failed", f.runs))
	}
	const tput = 100e6
	return xfer.Report{
		Params: p, Start: start, End: f.now,
		Bytes: tput * epoch, Throughput: tput, BestCase: tput,
	}, nil
}

func (f *flaky) Remaining() float64 { return 1 }
func (f *flaky) Now() float64       { return f.now }
func (f *flaky) Stop()              { f.stopped = true }

func TestRunnerToleratesConsecutiveTransients(t *testing.T) {
	const maxFail = 3
	cases := []struct {
		name     string
		failRuns map[int]bool
		wantErr  bool
	}{
		{"no failures", nil, false},
		{"one transient", map[int]bool{2: true}, false},
		{"n-1 consecutive", map[int]bool{2: true, 3: true}, false},
		{"n consecutive aborts", map[int]bool{2: true, 3: true, 4: true}, true},
		{"n non-consecutive survives", map[int]bool{2: true, 3: true, 5: true, 7: true}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := &flaky{failRuns: tc.failRuns}
			cfg := Config{
				Epoch:                1,
				Box:                  directsearch.MustBox([]int{1}, []int{8}),
				Start:                []int{2},
				Map:                  MapNC(1),
				Budget:               10,
				MaxTransientFailures: maxFail,
			}
			tr, err := Run(context.Background(), "default", cfg, f)
			if tc.wantErr {
				if err == nil {
					t.Fatal("n consecutive transient failures did not abort")
				}
				if !xfer.IsTransient(err) {
					t.Fatalf("abort error lost the transient mark: %v", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("tuning aborted: %v", err)
			}
			// Failed epochs are recorded as zero-throughput entries and
			// the trace stays monotone in time.
			for i, r := range tr.Results {
				failed := tc.failRuns[i+1]
				if failed && r.Report.Throughput != 0 {
					t.Fatalf("epoch %d failed but reports throughput %v", i, r.Report.Throughput)
				}
				if i > 0 && r.Report.Start < tr.Results[i-1].Report.End {
					t.Fatalf("epoch %d not monotone in time", i)
				}
			}
			if len(tr.Results) != 10 {
				t.Fatalf("trace has %d epochs, want 10 (failures recorded, not dropped)", len(tr.Results))
			}
		})
	}
}

func TestFatalErrorStillAborts(t *testing.T) {
	f := &flaky{fatalRuns: map[int]bool{3: true}}
	cfg := Config{
		Epoch:  1,
		Box:    directsearch.MustBox([]int{1}, []int{8}),
		Start:  []int{2},
		Map:    MapNC(1),
		Budget: 10,
	}
	_, err := Run(context.Background(), "default", cfg, f)
	if err == nil {
		t.Fatal("fatal error did not abort tuning")
	}
	if xfer.IsTransient(err) {
		t.Fatalf("fatal error wrongly marked transient: %v", err)
	}
}

func TestZeroEpochReTriggersSearch(t *testing.T) {
	// A transient outage during the cs-tuner's hold phase must drive
	// the ε-monitor (a zero reading is an infinite relative change) and
	// re-start the inner search rather than kill the trace.
	f := &flaky{failRuns: map[int]bool{8: true}}
	cfg := Config{
		Epoch:  1,
		Box:    directsearch.MustBox([]int{1}, []int{8}),
		Start:  []int{2},
		Map:    MapNC(1),
		Budget: 20,
		Lambda: 2,
		Seed:   1,
	}
	tr, err := Run(context.Background(), "cs-tuner", cfg, f)
	if err != nil {
		t.Fatalf("cs-tuner died on a single transient outage: %v", err)
	}
	if len(tr.Results) < 15 {
		t.Fatalf("trace ended early: %d epochs", len(tr.Results))
	}
}

func TestToleranceSentinels(t *testing.T) {
	cases := []struct {
		name                string
		tol, lambda         float64
		wantTol, wantLambda float64
		wantErr             bool
	}{
		{"zero values select paper defaults", 0, 0, 5, 8, false},
		{"explicit values kept", 12, 3, 12, 3, false},
		{"NaN tolerance rejected", math.NaN(), 0, 0, 0, true},
		{"NaN lambda rejected", 0, math.NaN(), 0, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Tolerance: tc.tol,
				Lambda:    tc.lambda,
				Box:       directsearch.MustBox([]int{1}, []int{8}),
				Start:     []int{2},
				Map:       MapNC(1),
			}
			err := cfg.Validate()
			if tc.wantErr {
				if err == nil {
					t.Fatal("Validate accepted a NaN parameter")
				}
				cfg.Epoch, cfg.Budget = 1, 5
				flat := func(xfer.Params, float64) float64 { return 100e6 }
				if _, err := Run(context.Background(), "cd-tuner", cfg, &fake{remaining: 1e18, g: flat}); err == nil {
					t.Fatal("Run accepted a NaN parameter")
				}
				return
			}
			if err != nil {
				t.Fatalf("Validate rejected the config: %v", err)
			}
			got := cfg.withDefaults()
			if got.Tolerance != tc.wantTol {
				t.Fatalf("Tolerance resolved to %v, want %v", got.Tolerance, tc.wantTol)
			}
			if got.Lambda != tc.wantLambda {
				t.Fatalf("Lambda resolved to %v, want %v", got.Lambda, tc.wantLambda)
			}
		})
	}
}

// TestToleranceGatesSmallChanges: with ε = 0.5% the cd-tuner must react
// to a gentle slope; with the default ε = 5% it must hold. The fake's
// throughput grows 1% per unit of nc — below 5, above 0.5.
func TestToleranceGatesSmallChanges(t *testing.T) {
	gentle := func(p xfer.Params, _ float64) float64 {
		return 100e6 * (1 + 0.01*float64(p.NC))
	}
	run := func(tol float64) int {
		f := &fake{remaining: 1e18, g: gentle}
		cfg := Config{
			Epoch:     1,
			Tolerance: tol,
			Box:       directsearch.MustBox([]int{1}, []int{64}),
			Start:     []int{2},
			Map:       MapNC(1),
			Budget:    30,
		}
		tr, err := Run(context.Background(), "cd-tuner", cfg, f)
		if err != nil {
			t.Fatal(err)
		}
		return tr.FinalX()[0]
	}
	if got := run(0.5); got <= 3 {
		t.Fatalf("ε=0.5%% cd-tuner stayed at nc=%d, want climb", got)
	}
	if got := run(0); got > 4 {
		t.Fatalf("default-ε cd-tuner climbed to nc=%d on an insignificant slope", got)
	}
}
