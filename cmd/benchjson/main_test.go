package main

import "testing"

func TestParseLine(t *testing.T) {
	name, r, ok := parseLine("BenchmarkSimEpoch-8  \t42\t123456 ns/op\t2048 B/op\t12 allocs/op")
	if !ok {
		t.Fatal("result line not parsed")
	}
	if name != "BenchmarkSimEpoch-8" {
		t.Fatalf("name = %q", name)
	}
	if r.Iterations != 42 || r.NsPerOp != 123456 || r.BytesPerOp != 2048 || r.AllocsPerOp != 12 {
		t.Fatalf("parsed %+v", r)
	}
	if r.Metrics != nil {
		t.Fatalf("standard columns leaked into Metrics: %v", r.Metrics)
	}

	// Custom b.ReportMetric columns land in Metrics by unit name.
	_, r, ok = parseLine("BenchmarkEpochSetup/warm-delta-8 100 335000 ns/op 0.5 dials/epoch 0.06 deadtime-ms/epoch")
	if !ok {
		t.Fatal("metric line not parsed")
	}
	if r.Metrics["dials/epoch"] != 0.5 || r.Metrics["deadtime-ms/epoch"] != 0.06 {
		t.Fatalf("Metrics = %v", r.Metrics)
	}

	if _, _, ok := parseLine("BenchmarkNoMem-4 10 98.5 ns/op"); !ok {
		t.Fatal("line without -benchmem columns rejected")
	}
	for _, line := range []string{
		"ok  \tdstune\t0.5s",
		"goos: linux",
		"PASS",
		"BenchmarkBroken-8 notanumber 12 ns/op",
		"BenchmarkNoUnits-8 10 12",
		"",
	} {
		if _, _, ok := parseLine(line); ok {
			t.Fatalf("non-result line parsed: %q", line)
		}
	}
}

func TestCompareGate(t *testing.T) {
	base := map[string]result{
		"BenchmarkPump-8": {AllocsPerOp: 0},
		"BenchmarkEpochSetup/warm-steady-8": {
			AllocsPerOp: 48,
			Metrics:     map[string]float64{"dials/epoch": 0, "deadtime-ms/epoch": 0.01},
		},
		"BenchmarkLoopbackThroughput-8": {Metrics: map[string]float64{"MB/s": 1000}},
	}

	// Identical results (modulo a different GOMAXPROCS suffix) pass.
	cur := map[string]result{
		"BenchmarkPump-16": {AllocsPerOp: 0},
		"BenchmarkEpochSetup/warm-steady-16": {
			AllocsPerOp: 48,
			Metrics:     map[string]float64{"dials/epoch": 0, "deadtime-ms/epoch": 0.01},
		},
	}
	if msgs := compare(base, cur); len(msgs) != 0 {
		t.Fatalf("clean run flagged: %v", msgs)
	}

	// A warm path that starts dialing again is caught even from a zero
	// baseline, and an alloc regression past both slacks is caught.
	cur = map[string]result{
		"BenchmarkPump-8": {AllocsPerOp: 5},
		"BenchmarkEpochSetup/warm-steady-8": {
			AllocsPerOp: 48,
			Metrics:     map[string]float64{"dials/epoch": 3, "deadtime-ms/epoch": 0.01},
		},
	}
	msgs := compare(base, cur)
	if len(msgs) != 2 {
		t.Fatalf("got %d regressions, want 2: %v", len(msgs), msgs)
	}

	// Small absolute growth below the floors never flakes the gate,
	// untracked metrics (MB/s) are ignored, and benchmarks missing
	// from either side are skipped.
	cur = map[string]result{
		"BenchmarkPump-8": {AllocsPerOp: 1},
		"BenchmarkEpochSetup/warm-steady-8": {
			AllocsPerOp: 49,
			Metrics:     map[string]float64{"dials/epoch": 0.05, "deadtime-ms/epoch": 0.5},
		},
		"BenchmarkLoopbackThroughput-8": {Metrics: map[string]float64{"MB/s": 10}},
		"BenchmarkBrandNew-8":           {AllocsPerOp: 9999},
	}
	if msgs := compare(base, cur); len(msgs) != 0 {
		t.Fatalf("sub-floor noise flagged: %v", msgs)
	}

	// syscalls/GiB rides its own wide floor: hint-level churn (one
	// extra syscall per 32 MiB lease is +32/GiB) stays quiet, while a
	// pump that falls off the sendfile path multiplies the figure and
	// trips the gate.
	base = map[string]result{
		"BenchmarkFileSourceEpoch/zerocopy-8": {Metrics: map[string]float64{"syscalls/GiB": 190}},
	}
	cur = map[string]result{
		"BenchmarkFileSourceEpoch/zerocopy-8": {Metrics: map[string]float64{"syscalls/GiB": 250}},
	}
	if msgs := compare(base, cur); len(msgs) != 0 {
		t.Fatalf("hint-level syscall churn flagged: %v", msgs)
	}
	cur["BenchmarkFileSourceEpoch/zerocopy-8"] = result{Metrics: map[string]float64{"syscalls/GiB": 2200}}
	if msgs := compare(base, cur); len(msgs) != 1 {
		t.Fatalf("userspace-level syscall figure not flagged: %v", msgs)
	}
}

func TestCheckRatio(t *testing.T) {
	samples := map[string][]float64{
		"BenchmarkSave/n=10":    {100, 90, 5000, 110, 95}, // one outlier
		"BenchmarkSave/n=10000": {250, 260, 240},
	}
	if err := checkRatio("BenchmarkSave/n=10000,BenchmarkSave/n=10,3", samples); err != nil {
		t.Fatalf("2.5x flagged under a 3x limit: %v", err)
	}
	if err := checkRatio("BenchmarkSave/n=10000,BenchmarkSave/n=10,2", samples); err == nil {
		t.Fatal("2.5x passed a 2x limit")
	}
	// A benchmark the run did not print must fail the gate, not pass it.
	for _, spec := range []string{"BenchmarkGone,BenchmarkSave/n=10,3", "BenchmarkSave/n=10,3", "BenchmarkSave/n=10000,BenchmarkSave/n=10,zero"} {
		if err := checkRatio(spec, samples); err == nil {
			t.Fatalf("-ratio %q accepted", spec)
		}
	}
}
