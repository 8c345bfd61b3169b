package service

import (
	"os"

	"dstune/internal/dataset"
	"dstune/internal/experiment"
	"dstune/internal/faultnet"
	"dstune/internal/gridftp"
	"dstune/internal/load"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

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

	// The same search space and the same cold/warm/resumed strategy the
	// dstune CLI would pick for this spec: tuner.Space and
	// tuner.ResolveStrategy decide both, once.
	cfg := tuner.Space{
		Two: spec.Two, Files: spec.Dataset != "", PP: spec.PP,
		NP: spec.NP, MaxNC: spec.MaxNC, MaxNP: spec.MaxNP,
	}.Apply(tuner.Config{
		Epoch:     spec.Epoch,
		Tolerance: spec.Tolerance,
		Budget:    spec.Budget,
		Seed:      spec.Seed,
		Resume:    resume,
		Obs:       sv.obs.Session(j.id),
	})
	key := tuner.SessionHistoryKey(j.id, spec.Testbed, spec.Addr, spec.Bytes, spec.Tfr, spec.Cmp)
	strat, err := tuner.ResolveStrategy(spec.Tuner, cfg, sv.hist, key)
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
			// Exhausted (0 would mean unlimited): the session ends in its
			// first Step without running an epoch.
			budget = 1e-9
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
		Maps:       []tuner.ParamMap{cfg.Map},
		Seed:       spec.Seed,
		Checkpoint: tuner.NewFileCheckpoint(ckPath),
		Resume:     resume,
	}
	if sv.hist != nil {
		sess.HistoryKey = key
	}
	return tuner.NewSessionRuntime(fcfg, sess)
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
