package dstune_test

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	"dstune"
)

func TestDefaultParams(t *testing.T) {
	p := dstune.DefaultParams()
	if p.NC != 2 || p.NP != 8 || p.Streams() != 16 {
		t.Fatalf("DefaultParams = %v", p)
	}
}

func TestParamMaps(t *testing.T) {
	if got := dstune.MapNC(8)([]int{5}); got != (dstune.Params{NC: 5, NP: 8}) {
		t.Fatalf("MapNC = %v", got)
	}
	if got := dstune.MapNCNP()([]int{3, 4}); got != (dstune.Params{NC: 3, NP: 4}) {
		t.Fatalf("MapNCNP = %v", got)
	}
}

func TestLoadScheduleHelpers(t *testing.T) {
	if dstune.NoLoad().At(5) != (dstune.Load{}) {
		t.Fatal("NoLoad not empty")
	}
	c := dstune.ConstantLoad(dstune.Load{Tfr: 3})
	if c.At(100).Tfr != 3 {
		t.Fatal("ConstantLoad")
	}
	s := dstune.StepLoad(10, dstune.Load{Cmp: 1}, dstune.Load{Cmp: 2})
	if s.At(9).Cmp != 1 || s.At(10).Cmp != 2 {
		t.Fatal("StepLoad")
	}
	p := dstune.PiecewiseLoad(
		dstune.LoadSegment{Start: 0, Load: dstune.Load{Tfr: 1}},
		dstune.LoadSegment{Start: 5, Load: dstune.Load{Tfr: 2}},
	)
	if p.At(6).Tfr != 2 {
		t.Fatal("PiecewiseLoad")
	}
}

func TestSearchers(t *testing.T) {
	box := dstune.MustBox([]int{1}, []int{100})
	obj := func(x []int) float64 {
		d := float64(x[0] - 33)
		return -d * d
	}
	for name, s := range map[string]dstune.Searcher{
		"compass": dstune.NewCompassSearch([]int{2}, box, 8, 1),
		"nm":      dstune.NewNelderMeadSearch([]int{2}, box),
	} {
		x, _ := dstune.MaximizeSearch(s, obj, 0)
		if x[0] != 33 {
			t.Errorf("%s found %v, want [33]", name, x)
		}
	}
}

func TestFacadeEndToEnd(t *testing.T) {
	fabric, _, err := dstune.ANLtoUChicago().NewFabric(1)
	if err != nil {
		t.Fatal(err)
	}
	fabric.SetLoad(dstune.ConstantLoad(dstune.Load{Cmp: 8}), nil)
	tr, err := fabric.NewTransfer(dstune.TransferConfig{Name: "t", Bytes: dstune.Unbounded})
	if err != nil {
		t.Fatal(err)
	}
	trace, err := dstune.Run(context.Background(), "cs-tuner", dstune.TunerConfig{
		Box:    dstune.MustBox([]int{1}, []int{64}),
		Start:  []int{2},
		Map:    dstune.MapNC(4),
		Budget: 300,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if trace.MeanThroughput() <= 0 {
		t.Fatal("no throughput")
	}
	var buf bytes.Buffer
	if err := dstune.WriteSeriesCSV(&buf, trace.Throughput(), trace.Param(0)); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "series,t,v\n") {
		t.Fatalf("csv header: %q", buf.String()[:20])
	}
	var jbuf bytes.Buffer
	if err := dstune.WriteSeriesJSON(&jbuf, trace.BestCase()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(jbuf.String(), "bestcase") {
		t.Fatal("json missing series name")
	}
	if dstune.Sparkline(trace.Throughput(), 10) == "" {
		t.Fatal("empty sparkline")
	}
}

func TestCustomFabricViaFacade(t *testing.T) {
	fabric, err := dstune.NewFabric(dstune.FabricConfig{
		Seed: 2,
		Source: dstune.HostConfig{
			Name:         "custom",
			Cores:        4,
			CorePumpRate: 1e9,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fabric.AddPath(dstune.PathConfig{
		Name:       "lan",
		Capacity:   1e9,
		BaseRTT:    0.005,
		RandomLoss: 1e-6,
		MaxCwnd:    4 << 20,
	}); err != nil {
		t.Fatal(err)
	}
	tr, err := fabric.NewTransfer(dstune.TransferConfig{Name: "c", Bytes: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	r, err := tr.Run(context.Background(), dstune.Params{NC: 4, NP: 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	tr.Stop()
	if r.Bytes <= 0 {
		t.Fatal("no progress on custom fabric")
	}
}

func TestSocketFacade(t *testing.T) {
	srv, err := dstune.ServeGridFTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := dstune.NewTransferClient(dstune.TransferClientConfig{
		Addr:   srv.Addr(),
		Bytes:  dstune.Unbounded,
		Shaper: &dstune.Shaper{Rate: 4e6},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Stop()
	r, err := client.Run(context.Background(), dstune.Params{NC: 2, NP: 1}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Bytes <= 0 {
		t.Fatal("socket transfer made no progress")
	}
}

// TestKernelStatsSurfaceInReport: a TCPInfo-enabled socket run surfaces
// the kernel's per-stripe view (nonzero RTT and cwnd on Linux) in
// Report.Kernel, while simulated transfers — which have no kernel to
// ask — report Kernel == nil.
func TestKernelStatsSurfaceInReport(t *testing.T) {
	srv, err := dstune.ServeGridFTP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := dstune.NewTransferClient(dstune.TransferClientConfig{
		Addr:    srv.Addr(),
		Bytes:   dstune.Unbounded,
		TCPInfo: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Stop()
	r, err := client.Run(context.Background(), dstune.Params{NC: 2, NP: 1}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS == "linux" {
		if r.Kernel == nil || len(r.Kernel.Stripes) == 0 {
			t.Fatal("TCPInfo run surfaced no kernel samples")
		}
		for i, sk := range r.Kernel.Stripes {
			if sk.Cwnd == 0 || sk.RTT <= 0 {
				t.Fatalf("stripe %d: cwnd=%d rtt=%v, want nonzero", i, sk.Cwnd, sk.RTT)
			}
		}
		if r.Kernel.MeanRTT() <= 0 {
			t.Fatal("MeanRTT not positive")
		}
	}

	// The simulated fabric has no kernel: Kernel must stay nil.
	fabric, err := dstune.NewFabric(dstune.FabricConfig{
		Seed:   2,
		Source: dstune.HostConfig{Name: "sim", Cores: 4, CorePumpRate: 1e9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fabric.AddPath(dstune.PathConfig{
		Name: "lan", Capacity: 1e9, BaseRTT: 0.005, MaxCwnd: 4 << 20,
	}); err != nil {
		t.Fatal(err)
	}
	tr, err := fabric.NewTransfer(dstune.TransferConfig{Name: "k", Bytes: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Stop()
	sr, err := tr.Run(context.Background(), dstune.Params{NC: 2, NP: 2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Kernel != nil {
		t.Fatal("simulated transfer surfaced kernel samples")
	}
}

func TestTunerNamesFacade(t *testing.T) {
	names := dstune.TunerNames()
	if len(names) != 7 || names[0] != "default" || names[6] != "model" {
		t.Fatalf("TunerNames = %v", names)
	}
}
