package xfer

import (
	"context"
	"testing"

	"dstune/internal/endpoint"
	"dstune/internal/load"
	"dstune/internal/netem"
)

// fig5Fabric returns a fabric in the shape of the paper's Figure 5: the
// ANL→UChicago testbed (an 8-core source behind a 40 Gb/s NIC, a
// 5 GB/s 12 ms path) under ext.tfr=16 and ext.cmp=16, carrying one
// nc=32 np=8 transfer whose processes are running after its first 30 s
// epoch.
func fig5Fabric(tb testing.TB) *Fabric {
	tb.Helper()
	f, err := NewFabric(FabricConfig{
		DT:     0.1,
		Seed:   1,
		Source: endpoint.Config{Cores: 8, CorePumpRate: 1.3e9, NICRate: 5e9},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := f.AddPath(netem.Config{Capacity: 5e9, BaseRTT: 0.012, RandomLoss: 5e-6, MaxCwnd: 4 << 20}); err != nil {
		tb.Fatal(err)
	}
	f.SetLoad(load.Constant(load.Load{Tfr: 16, Cmp: 16}), nil)
	tr, err := f.NewTransfer(TransferConfig{Name: "fig5", Bytes: Unbounded, Policy: RestartOnChange})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := tr.Run(context.Background(), Params{NC: 32, NP: 8}, 30); err != nil {
		tb.Fatal(err)
	}
	if len(tr.flows) != 32 || len(f.extFlows) != 16 {
		tb.Fatalf("%d transfer and %d external processes running, want 32 and 16", len(tr.flows), len(f.extFlows))
	}
	return f
}

// fig1Fabric returns a fabric in the shape of one cell of the paper's
// Figure 1: the ANL→UChicago testbed under ext.tfr=16 and ext.cmp=16,
// carrying one nc=256 np=1 transfer whose processes are running after
// its first 60 s epoch (its restart takes some 40 s). Nearly every flow
// is pinned at its CPU cap.
func fig1Fabric(tb testing.TB) *Fabric {
	tb.Helper()
	f, err := NewFabric(FabricConfig{
		DT:     0.1,
		Seed:   1,
		Source: endpoint.Config{Cores: 8, CorePumpRate: 1.3e9, NICRate: 5e9},
	})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := f.AddPath(netem.Config{Capacity: 5e9, BaseRTT: 0.012, RandomLoss: 5e-6, MaxCwnd: 4 << 20}); err != nil {
		tb.Fatal(err)
	}
	f.SetLoad(load.Constant(load.Load{Tfr: 16, Cmp: 16}), nil)
	tr, err := f.NewTransfer(TransferConfig{Bytes: Unbounded, Policy: RestartOnChange})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := tr.Run(context.Background(), Params{NC: 256, NP: 1}, 60); err != nil {
		tb.Fatal(err)
	}
	if len(tr.flows) != 256 || len(f.extFlows) != 16 {
		tb.Fatalf("%d transfer and %d external processes running, want 256 and 16", len(tr.flows), len(f.extFlows))
	}
	return f
}

// BenchmarkFabricStepFigure1 measures one clock step of a Figure 1 cell:
// the scheduling round over 272 processes and the path step of their
// 272 streams.
func BenchmarkFabricStepFigure1(b *testing.B) {
	f := fig1Fabric(b)
	f.mu.Lock()
	defer f.mu.Unlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.stepLocked()
	}
}

// figure1Visits is the budget of flow visits a step of a Figure 1 cell
// may take, on average: the flows that did not sleep through it. Every
// one of its 272 flows was visited every step before pinned flows slept.
const figure1Visits = 10

// TestFigure1Visits holds the steady state of a Figure 1 cell to visiting
// few flows: over 60 virtual seconds, the flows of its transfer and its
// external load that did not sleep through a step average at most
// figure1Visits a step.
func TestFigure1Visits(t *testing.T) {
	f := fig1Fabric(t)
	f.mu.Lock()
	defer f.mu.Unlock()
	const steps = 600
	visits, flows := 0, 0
	for range steps {
		f.stepLocked()
		for _, fl := range f.procs {
			if !fl.Slept() {
				visits++
			}
		}
		flows += len(f.procs)
	}
	perStep := float64(visits) / steps
	t.Logf("%.1f of %d flows visited a step", perStep, flows/steps)
	if perStep > figure1Visits {
		t.Errorf("%.1f flows visited a step, budget %d", perStep, figure1Visits)
	}
}

// BenchmarkFabricStep measures one clock step of a Figure-5-shaped
// fabric: the scheduling round over 48 processes and the path step of
// their 272 streams.
func BenchmarkFabricStep(b *testing.B) {
	f := fig5Fabric(b)
	f.mu.Lock()
	defer f.mu.Unlock()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.stepLocked()
	}
}

// TestFabricStepAllocs holds a clock step to its budget, exactly: once
// the fabric has run, stepping it allocates nothing.
func TestFabricStepAllocs(t *testing.T) {
	f := fig5Fabric(t)
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := testing.AllocsPerRun(100, f.stepLocked); n != 0 {
		t.Errorf("Fabric.stepLocked allocates %v times a step, want 0", n)
	}
}
