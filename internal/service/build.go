package service

import (
	"os"
	"strings"

	"dstune/internal/dataset"
	"dstune/internal/directsearch"
	"dstune/internal/experiment"
	"dstune/internal/faultnet"
	"dstune/internal/gridftp"
	"dstune/internal/history"
	"dstune/internal/load"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// maxPP bounds the pipelining-depth search box for dataset jobs,
// mirroring the CLI's disk mode.
const maxPP = 32

// buildRuntime turns one admitted job into a stepping session: resolve
// the checkpoint (re-adoption resumes mid-trajectory), build the
// strategy and transfer, and wrap them in a tuner.SessionRuntime with
// PreserveOnCancel set — a daemon shutdown must leave the session
// resumable, not stopped.
func (sv *Supervisor) buildRuntime(j *job) (*tuner.SessionRuntime, error) {
	spec := j.spec
	ckPath := sv.checkpointPath(j.id)
	var resume *tuner.Checkpoint
	if _, err := os.Stat(ckPath); err == nil {
		ck, err := tuner.LoadCheckpoint(ckPath)
		if err != nil {
			// An unreadable checkpoint — a damaged head, or an epoch
			// log shorter than its head counts — loses the trajectory,
			// not the job: the journal entry still owes a completion,
			// so cold-start rather than fail. The new session's first
			// Save replaces the damaged files.
			sv.logf("service: job %s: checkpoint unreadable, cold-starting: %v", j.id, err)
		} else {
			resume = ck
		}
	}

	cfg := tuner.Config{
		Epoch:     spec.Epoch,
		Tolerance: spec.Tolerance,
		Budget:    spec.Budget,
		Seed:      spec.Seed,
		Obs:       sv.obs.Session(j.id),
	}
	var m tuner.ParamMap
	switch {
	case spec.Dataset != "" && spec.Two && spec.PP == 0:
		// Dataset job tuning all three dimensions: [nc, np, pp].
		cfg.Box = directsearch.MustBox([]int{1, 1, 1}, []int{spec.MaxNC, spec.MaxNP, maxPP})
		cfg.Start = []int{2, 8, 4}
		m = tuner.MapNCNPPP()
	case spec.Two:
		cfg.Box = directsearch.MustBox([]int{1, 1}, []int{spec.MaxNC, spec.MaxNP})
		cfg.Start = []int{2, 8}
		m = tuner.MapNCNP()
	default:
		cfg.Box = directsearch.MustBox([]int{1}, []int{spec.MaxNC})
		cfg.Start = []int{2}
		m = tuner.MapNC(spec.NP)
	}
	if spec.Dataset != "" && (!spec.Two || spec.PP > 0) {
		// Fewer than three tuned dimensions: run the dataset at a
		// static depth (the spec's pp, or the disk default 4).
		pp := spec.PP
		if pp == 0 {
			pp = 4
		}
		m = tuner.MapFixedPP(m, pp)
	}
	cfg.Map = m

	key := historyKey(spec, j.id)
	strat, err := sv.buildStrategy(spec, cfg, key, resume)
	if err != nil {
		return nil, err
	}
	factory := sv.cfg.NewTransfer
	if factory == nil {
		factory = sv.defaultTransfer
	}
	transfer, err := factory(j.id, spec, resume)
	if err != nil {
		return nil, err
	}

	budget := spec.Budget
	if budget > 0 && resume != nil && spec.Addr == "" {
		// A rebuilt simulated transfer restarts its clock at zero, so
		// carry only the unspent budget forward. Socket clients carry
		// the cumulative clock themselves (ClockOffset), so their
		// budget stays as specified.
		budget -= resume.Transfer.Clock
		if budget <= 0 {
			budget = 1e-9 // exhausted: the next settle ends the session
		}
	}
	fcfg := tuner.FleetConfig{
		Epoch:                spec.Epoch,
		Budget:               budget,
		MaxTransientFailures: spec.MaxTransient,
		Obs:                  sv.obs,
		History:              sv.hist,
		PreserveOnCancel:     true,
	}
	sess := tuner.FleetSession{
		ID:         j.id,
		Name:       j.id,
		Strategy:   strat,
		Transfers:  []xfer.Transferer{transfer},
		Maps:       []tuner.ParamMap{m},
		Seed:       spec.Seed,
		Checkpoint: tuner.NewFileCheckpoint(ckPath),
		Resume:     resume,
	}
	if sv.hist != nil {
		sess.HistoryKey = key
	}
	return tuner.NewSessionRuntime(fcfg, sess)
}

// buildStrategy constructs the job's strategy, mirroring the dstune
// CLI's fleet wiring: explicit "warm:" prefixes and "two-phase" consult
// the history store, and any other tuner is store-wrapped when the
// daemon has one. A resumed job instead rebuilds the strategy the
// checkpoint names (a store-wrapped run checkpoints as "warm:<inner>")
// and never re-consults the store — the checkpointed state is
// authoritative.
func (sv *Supervisor) buildStrategy(spec JobSpec, cfg tuner.Config, key history.Key, resume *tuner.Checkpoint) (tuner.Strategy, error) {
	if resume != nil && len(resume.Trace) > 0 {
		return tuner.NewStrategy(resume.Tuner, cfg)
	}
	switch inner, warm := strings.CutPrefix(spec.Tuner, "warm:"); {
	case warm:
		return tuner.NewWarmStart(inner, cfg, sv.hist, key)
	case spec.Tuner == "two-phase":
		return tuner.NewTwoPhase(cfg, sv.hist, key), nil
	case sv.hist != nil:
		return tuner.NewWarmStart(spec.Tuner, cfg, sv.hist, key)
	default:
		return tuner.NewStrategy(spec.Tuner, cfg)
	}
}

// defaultTransfer is the spec-driven TransferFactory: a gridftp client
// for socket jobs (resuming token, acked bytes, and clock from the
// checkpoint), a private simulation fabric otherwise (resuming by
// transferring the checkpoint's remaining bytes). Each simulated job
// gets its own fabric so one tenant's transfer never stalls another's
// conservative-time barrier across shards.
func (sv *Supervisor) defaultTransfer(id string, spec JobSpec, resume *tuner.Checkpoint) (xfer.Transferer, error) {
	if spec.Addr != "" {
		ccfg := gridftp.ClientConfig{
			Addr: spec.Addr,
			Seed: spec.Seed,
			Obs:  sv.obs.Session(id),
		}
		ccfg.Bytes = xfer.Unbounded
		if spec.Bytes > 0 {
			ccfg.Bytes = spec.Bytes
		}
		if spec.Dataset != "" {
			ds, err := dataset.ParseSpec(spec.Dataset, spec.Seed)
			if err != nil {
				return nil, err
			}
			ccfg.Dataset = ds
			ccfg.Bytes = 0 // derived from the dataset
		}
		if resume != nil {
			ccfg.Bytes = resume.Transfer.Total
			if resume.Transfer.Total < 0 {
				ccfg.Bytes = xfer.Unbounded
			}
			ccfg.Token = resume.Transfer.Token
			ccfg.AckedBytes = resume.Transfer.Acked
			ccfg.ClockOffset = resume.Transfer.Clock
		}
		if spec.DialFailProb > 0 {
			inj := faultnet.New(faultnet.Config{
				Seed:         spec.Seed,
				DialFailProb: spec.DialFailProb,
				Obs:          sv.obs,
			})
			ccfg.Dialer = inj.Dial
		}
		return gridftp.NewClient(ccfg)
	}

	var tb experiment.Testbed
	switch spec.Testbed {
	case "tacc":
		tb = experiment.ANLtoTACC()
	default:
		tb = experiment.ANLtoUChicago()
	}
	fabric, _, err := tb.NewFabric(spec.Seed)
	if err != nil {
		return nil, err
	}
	if spec.Tfr != 0 || spec.Cmp != 0 {
		fabric.SetLoad(load.Constant(load.Load{Tfr: spec.Tfr, Cmp: spec.Cmp}), nil)
	}
	size := xfer.Unbounded
	if spec.Bytes > 0 {
		size = spec.Bytes
	}
	if resume != nil {
		// The simulated transfer died with the old process; a fresh one
		// covering exactly the checkpoint's remaining bytes keeps the
		// job's byte accounting exact: checkpointed acked + new total =
		// the spec's volume.
		size = resume.Transfer.Remaining
		if resume.Transfer.Remaining < 0 {
			size = xfer.Unbounded
		}
	}
	tcfg := xfer.TransferConfig{Name: id, Bytes: size}
	if spec.Dataset != "" {
		// Simulated dataset jobs use the disk-to-disk model under the
		// shared workload constants. A resumed simulated dataset
		// restarts the dataset (file-level progress lives only in the
		// dead process); socket jobs resume at file/offset granularity.
		ds, err := dataset.ParseSpec(spec.Dataset, spec.Seed)
		if err != nil {
			return nil, err
		}
		tcfg.Files = ds
		tcfg.DiskRate = dataset.DefaultDiskRate
		tcfg.FileOverhead = dataset.DefaultFileOverhead
	}
	return fabric.NewTransfer(tcfg)
}

// historyKey derives the job's identity in the shared knowledge plane,
// mirroring the CLI's fleet keying: the transfer target joined with the
// job ID, classed by volume and configured load.
func historyKey(spec JobSpec, id string) history.Key {
	target := spec.Testbed
	volume := 0.0
	if spec.Addr != "" {
		target = spec.Addr
		volume = spec.Bytes
	}
	return history.Key{
		Endpoint:  target + "/" + id,
		SizeClass: history.SizeClass(volume),
		LoadClass: history.LoadClass(spec.Tfr + spec.Cmp),
	}
}
