// Package experiment assembles the paper's testbeds and reproduces
// every figure of its evaluation (Figures 1 and 5–11) on the
// simulated substrate.
//
// The two WAN paths are calibrated so that the *shapes* of the paper's
// results hold — throughput rising with stream count to a critical
// point that moves right under external load, a default setting that
// collapses under source compute load, restart overhead of roughly
// 15–50% — rather than the absolute numbers of the authors' testbed.
// See DESIGN.md for the substitution rationale and EXPERIMENTS.md for
// paper-vs-measured values.
package experiment

import (
	"fmt"

	"dstune/internal/endpoint"
	"dstune/internal/netem"
	"dstune/internal/tcpmodel"
	"dstune/internal/xfer"
)

// Testbed is a named source endpoint and WAN path.
type Testbed struct {
	// Name labels the testbed, e.g. "ANL->UChicago".
	Name string
	// Source is the transfer source host (the paper's ANL Nehalem
	// node; all controlled load is applied here).
	Source endpoint.Config
	// Path is the WAN path to the destination.
	Path netem.Config
	// CC names the TCP congestion-control algorithm ("htcp",
	// "cubic", "reno", "scalable"); empty selects H-TCP, the
	// algorithm on the paper's endpoints.
	CC string
}

// defaultDT is the fabric step of every testbed: 0.1 s resolves 30 s
// control epochs while keeping 1800 s experiments cheap.
const defaultDT = 0.1

// SourceANL returns the paper's source endpoint: the 8-core Nehalem
// node at Argonne's JLSE with a 40 Gb/s NIC. CorePumpRate is set so
// that the Globus default (two processes) moves ~2.5 GB/s unloaded,
// as in Figure 5a.
func SourceANL() endpoint.Config {
	return endpoint.Config{
		Name:         "anl-nehalem",
		Cores:        8,
		CorePumpRate: 1.3e9,
		NICRate:      5e9, // 40 Gb/s
	}
}

// ANLtoUChicago returns the 40 Gb/s, short-RTT path of §III-A and
// Figures 1, 5-7, 9: theoretical peak 5 GB/s, observed peak ~4 GB/s.
func ANLtoUChicago() Testbed {
	return Testbed{
		Name:   "ANL->UChicago",
		Source: SourceANL(),
		Path: netem.Config{
			Name:       "anl-uchicago",
			Capacity:   5e9,
			BaseRTT:    0.012,
			RandomLoss: 5e-6,
			MaxCwnd:    4 << 20,
		},
	}
}

// ANLtoTACC returns the 20 Gb/s, 33 ms path of §IV and Figures 8 and
// 10: link capacity 2.5 GB/s, where even unloaded transfers need tens
// of streams.
func ANLtoTACC() Testbed {
	return Testbed{
		Name:   "ANL->TACC",
		Source: SourceANL(),
		Path: netem.Config{
			Name:       "anl-tacc",
			Capacity:   2.5e9,
			BaseRTT:    0.033,
			RandomLoss: 5e-6,
			MaxCwnd:    4 << 20,
		},
	}
}

// TestbedByName returns the testbed a job spec, flag or fleet file
// names: "uchicago" or "tacc".
func TestbedByName(name string) (Testbed, error) {
	switch name {
	case "uchicago":
		return ANLtoUChicago(), nil
	case "tacc":
		return ANLtoTACC(), nil
	}
	return Testbed{}, fmt.Errorf("unknown testbed %q (want uchicago or tacc)", name)
}

// NewFabric builds a fabric for the testbed.
func (tb Testbed) NewFabric(seed uint64) (*xfer.Fabric, *netem.Path, error) {
	var alg tcpmodel.Algorithm
	if tb.CC != "" {
		var err error
		alg, err = tcpmodel.ByName(tb.CC)
		if err != nil {
			return nil, nil, err
		}
	}
	f, err := xfer.NewFabric(xfer.FabricConfig{DT: defaultDT, Seed: seed, Source: tb.Source, TCP: alg})
	if err != nil {
		return nil, nil, err
	}
	p, err := f.AddPath(tb.Path)
	if err != nil {
		return nil, nil, err
	}
	return f, p, nil
}

// dualTransfers builds the §IV-D fabric — one ANL source feeding both
// the UChicago and TACC paths through the shared 40 Gb/s NIC — and one
// unbounded transfer on each path, named prefix+"uchicago" and
// prefix+"tacc", in that order.
func dualTransfers(seed uint64, prefix string) (uchicago, tacc *xfer.Sim, err error) {
	f, p1, err := ANLtoUChicago().NewFabric(seed)
	if err != nil {
		return nil, nil, err
	}
	p2, err := f.AddPath(ANLtoTACC().Path)
	if err != nil {
		return nil, nil, err
	}
	if uchicago, err = f.NewTransfer(xfer.TransferConfig{Name: prefix + "uchicago", Bytes: xfer.Unbounded, Path: p1}); err != nil {
		return nil, nil, err
	}
	tacc, err = f.NewTransfer(xfer.TransferConfig{Name: prefix + "tacc", Bytes: xfer.Unbounded, Path: p2})
	return uchicago, tacc, err
}
