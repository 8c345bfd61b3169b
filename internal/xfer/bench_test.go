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
// the fabric has run, stepping it allocates nothing, and the step's
// scratch holds no flow or transfer afterwards.
func TestFabricStepAllocs(t *testing.T) {
	f := fig5Fabric(t)
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := testing.AllocsPerRun(100, f.stepLocked); n != 0 {
		t.Errorf("Fabric.stepLocked allocates %v times a step, want 0", n)
	}
	for i, ref := range f.refs[:cap(f.refs)] {
		if ref != (procRef{}) {
			t.Fatalf("scheduling scratch %d still holds %+v after the step", i, ref)
		}
	}
}
