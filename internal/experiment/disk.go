package experiment

import (
	"dstune/internal/dataset"
	"dstune/internal/load"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// DiskScenario is one disk-to-disk workload regime, following the
// file-size analysis of Yildirim et al. [25] that the paper's
// future-work item (1) builds on: a dataset, the source storage
// bandwidth and the per-file request latency. The regimes are defined
// once, in package dataset, shared with the real-socket path.
type DiskScenario = dataset.Workload

// DiskScenarios returns the three regimes: request-latency-bound many
// small files, a heavy-tailed mix, and bandwidth-bound huge files.
// Deterministic per seed.
func DiskScenarios(seed uint64) []DiskScenario { return dataset.Workloads(seed) }

// diskTunerCfg builds the three-parameter tuner configuration
// ([nc, np, pp]) for rc.
func (rc RunConfig) diskTunerCfg() tuner.Config {
	return rc.spaceCfg(tuner.Space{Two: true, Files: true})
}

// TuneDisk runs the disk-to-disk comparison for one scenario:
// `default` holds the static disk setting (nc=2, np=8, pp=4) while
// cs-tuner and nm-tuner tune all three parameters. Transfers are
// bounded by the dataset, so a trace may end early with Done.
func TuneDisk(tb Testbed, sc DiskScenario, rc RunConfig) (*TuningResult, error) {
	rc = rc.withDefaults()
	names := []string{"default", "cs-tuner", "nm-tuner"}
	return runEach(tb, names, "disk: "+sc.Name, func(name string) (*tuner.Trace, error) {
		return runTransfer(tb, name, load.None(), rc.Seed, xfer.TransferConfig{
			Files:        sc.Files,
			DiskRate:     sc.DiskRate,
			FileOverhead: sc.FileOverhead,
		}, rc.diskTunerCfg())
	})
}

// FilesMoved sums the files completed across a trace.
func FilesMoved(tr *tuner.Trace) int {
	n := 0
	for _, r := range tr.Results {
		n += r.Report.Files
	}
	return n
}
