package experiment

import (
	"fmt"

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

// diskStudy is the disk-to-disk extension over the three DiskScenarios
// regimes: `default` holds the static disk setting (nc=2, np=8, pp=4)
// while cs-tuner and nm-tuner tune all three parameters. Transfers are
// bounded by the dataset, so a trace may end early with Done. Short, it
// is tier-1's form: a shortened many-small workload, where pipelining
// and concurrency dominate, and the bandwidth-bound regime at 8 x 2 GB,
// each at the seed and length its shape test set.
func diskStudy(r *Runs, rc RunConfig, out *Outcome) error {
	scs, rcs := DiskScenarios(rc.Seed), []RunConfig{rc, rc, rc}
	if r.short() {
		scs = []DiskScenario{
			{Name: "many-small", Files: dataset.ManySmall(4000), DiskRate: 2e9, FileOverhead: 0.5},
			{Name: "few-huge", Files: dataset.Uniform(8, 2<<30), DiskRate: 2e9, FileOverhead: 0.5},
		}
		rcs = []RunConfig{r.cfg.At(RunConfig{Seed: 3, Duration: 900}), r.cfg.At(RunConfig{Seed: 4, Duration: 1800})}
	}
	out.Config = "each dataset as stated"
	tb, names := ANLtoUChicago(), []string{"default", "cs-tuner", "nm-tuner"}
	for i, sc := range scs {
		drc := rcs[i].withDefaults()
		tc := xfer.TransferConfig{Files: sc.Files, DiskRate: sc.DiskRate, FileOverhead: sc.FileOverhead}
		res, err := runEach(tb, names, "disk: "+sc.Name, func(name string) (*tuner.Trace, error) {
			return runTransfer(tb, name, load.None(), drc.Seed, tc, drc.diskTunerCfg())
		})
		if err != nil {
			return err
		}
		title := fmt.Sprintf("%s (%s), seed %d, %g s", sc.Name, sc.Files, rcs[i].Seed, rcs[i].Duration)
		out.Text += title + "\n"
		// A dataset ends when its files run out: no steady window.
		out.add(title, "disk-"+sc.Name, res, 0)
	}
	return nil
}

// FilesMoved sums the files completed across a trace.
func FilesMoved(tr *tuner.Trace) int {
	n := 0
	for _, r := range tr.Results {
		n += r.Report.Files
	}
	return n
}
