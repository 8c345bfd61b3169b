package experiment

import (
	"fmt"

	"dstune/internal/dataset"
	"dstune/internal/load"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// diskRegime is one disk-to-disk workload regime, following the
// file-size analysis of Yildirim et al. [25] that the paper's
// future-work item (1) builds on: a named dataset, moved under the disk
// model's storage rate and per-file latency (internal/xfer).
type diskRegime struct {
	name  string
	files dataset.Dataset
}

// diskRegimes returns the three regimes: request-latency-bound many
// small files, a heavy-tailed log-normal mix, and bandwidth-bound huge
// files. Deterministic per seed.
func diskRegimes(seed uint64) []diskRegime {
	return []diskRegime{
		{"many-small", dataset.ManySmall(20000)},                     // 20k x 1 MB
		{"lognormal-mix", dataset.LogNormal(2000, 8<<20, 1.5, seed)}, // median 8 MB, heavy tail
		{"few-huge", dataset.Uniform(16, 4<<30)},                     // 16 x 4 GB
	}
}

// diskTunerCfg builds the three-parameter tuner configuration
// ([nc, np, pp]) for rc.
func (rc RunConfig) diskTunerCfg() tuner.Config {
	return rc.spaceCfg(tuner.Space{Two: true, Files: true})
}

// diskStudy is the disk-to-disk extension over the three diskRegimes:
// `default` holds the static disk setting (nc=2, np=8, pp=4) while
// cs-tuner and nm-tuner tune all three parameters. Transfers are
// bounded by the dataset, so a trace may end early with Done. Short, it
// is tier-1's form: a shortened many-small workload, where pipelining
// and concurrency dominate, and the bandwidth-bound regime at 8 x 2 GB,
// each at the seed and length its shape test set.
func diskStudy(r *Runs, rc RunConfig, out *Outcome) error {
	scs, rcs := diskRegimes(rc.Seed), []RunConfig{rc, rc, rc}
	if r.short() {
		scs = []diskRegime{
			{"many-small", dataset.ManySmall(4000)},
			{"few-huge", dataset.Uniform(8, 2<<30)},
		}
		rcs = []RunConfig{r.cfg.At(RunConfig{Seed: 3, Duration: 900}), r.cfg.At(RunConfig{Seed: 4, Duration: 1800})}
	}
	out.Config = "each dataset as stated"
	tb, names := ANLtoUChicago(), []string{"default", "cs-tuner", "nm-tuner"}
	for i, sc := range scs {
		drc := rcs[i].withDefaults()
		tc := xfer.TransferConfig{Files: sc.files}
		res, err := runEach(tb, names, "disk: "+sc.name, func(name string) (*tuner.Trace, error) {
			return runTransfer(tb, name, load.None(), drc.Seed, tc, drc.diskTunerCfg())
		})
		if err != nil {
			return err
		}
		title := fmt.Sprintf("%s (%s), seed %d, %g s", sc.name, sc.files, rcs[i].Seed, rcs[i].Duration)
		out.Text += title + "\n"
		// A dataset ends when its files run out: no steady window.
		out.add(title, "disk-"+sc.name, res, 0)
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
