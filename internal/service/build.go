package service

import (
	"os"

	"dstune/internal/dataset"
	"dstune/internal/experiment"
	"dstune/internal/faultnet"
	"dstune/internal/gridftp"
	"dstune/internal/history"
	"dstune/internal/load"
	"dstune/internal/obs"
	"dstune/internal/tuner"
	"dstune/internal/xfer"
)

// Door is what a front door holds when it asks Build for a session:
// the planes it owns and the seams it wants to fill itself. Every field
// is optional.
type Door struct {
	// Obs observes the session under its ID.
	Obs *obs.Observer
	// History warm-starts the strategy and receives the session's best
	// epoch on a clean end.
	History *history.Store
	// Checkpoint receives the session's durable state after every epoch.
	Checkpoint tuner.CheckpointWriter
	// Resume continues the checkpointed run instead of starting fresh.
	Resume *tuner.Checkpoint
	// Fabric is the simulation fabric a simulated session's transfer
	// joins — one fabric shared by a fleet's sessions, or one its owner
	// put a load schedule on. Nil gives the session a private fabric
	// (NewFabric), so one daemon tenant's transfer never stalls
	// another's conservative-time barrier.
	Fabric *xfer.Fabric
	// NewTransfer overrides transfer construction; nil builds the
	// spec's own transfer, a gridftp client (ClientConfig) or a
	// simulated one.
	NewTransfer TransferFactory
}

// Session is one spec built into the parts every front door runs:
// dstune and dstune -fleet hand the FleetSession to a tuner.Fleet,
// dstuned steps it in a tuner.SessionRuntime.
type Session struct {
	// ID is the session's label: the id Build was given, or the
	// strategy's name for the one session of a single run.
	ID string
	// Config is the applied tuner configuration: the spec's epoch,
	// tolerance, budget and seed, its search space's Box, Start and Map,
	// and the door's checkpoint, resume, observation and history wiring.
	Config tuner.Config
	// Strategy is the cold, warm-started or resumed strategy
	// tuner.ResolveStrategy picked for the spec, and Start the starting
	// vector it adopted for it in place of Config.Start (nil: none).
	Strategy tuner.Strategy
	Start    []int
	// Transfer is the transfer the strategy tunes.
	Transfer xfer.Transferer
	// Dataset is the spec's parsed dataset; empty without one.
	Dataset dataset.Dataset
}

// FleetSession returns the session in the two halves tuner.Fleet and
// tuner.NewSessionRuntime take: the FleetConfig its Config asks for and
// the FleetSession that runs it.
func (s *Session) FleetSession() (tuner.FleetConfig, tuner.FleetSession) {
	return s.Config.Session(s.ID, s.Strategy, s.Start, s.Transfer)
}

// Build turns one validated, defaulted spec (Validate, WithDefaults)
// into a session: the one constructor behind dstune, dstune -fleet and
// dstuned, so the same spec is the same transfer under the same
// strategy at every door. id names the session among its door's others
// — it labels observation and transfer and suffixes the history key —
// and is empty for the only session of a single run.
func Build(spec JobSpec, id string, door Door) (*Session, error) {
	s := &Session{ID: id}
	if id == "" {
		s.ID = spec.Tuner
	}
	var err error
	if s.Dataset, err = spec.files(); err != nil {
		return nil, err
	}
	s.Config = spec.space().Apply(tuner.Config{
		Epoch:                spec.Epoch,
		Tolerance:            spec.Tolerance,
		Budget:               spec.Budget,
		Seed:                 spec.Seed,
		MaxTransientFailures: spec.MaxTransient,
		Checkpoint:           door.Checkpoint,
		Resume:               door.Resume,
		Obs:                  door.Obs.Session(s.ID),
		History:              door.History,
		HistoryKey:           spec.sessionKey(id, s.Dataset),
	})
	if s.Strategy, s.Start, err = tuner.ResolveStrategy(spec.Tuner, s.Config); err != nil {
		return nil, err
	}
	switch {
	case door.NewTransfer != nil:
		s.Transfer, err = door.NewTransfer(s.ID, spec, door.Resume)
	case spec.Addr != "":
		s.Transfer, err = gridftp.NewClient(clientConfig(door.Obs, s.ID, spec, s.Dataset, door.Resume))
	default:
		s.Transfer, err = fabricTransfer(door.Fabric, s.ID, spec, s.Dataset, door.Resume)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// files parses the spec's dataset; it is empty without one.
func (s JobSpec) files() (dataset.Dataset, error) {
	if s.Dataset == "" {
		return dataset.Dataset{}, nil
	}
	return dataset.ParseSpec(s.Dataset, s.Seed)
}

// space is the spec's search space: {nc}, {nc, np} or {nc, np, pp} by
// Two, Dataset and PP, inside the spec's bounds.
func (s JobSpec) space() tuner.Space {
	return tuner.Space{
		Two: s.Two, Files: s.Dataset != "", PP: s.PP,
		NP: s.NP, MaxNC: s.MaxNC, MaxNP: s.MaxNP,
	}
}

// sessionKey is the session's identity in a history store. The
// endpoint is the transfer's target — the server address of a socket
// session, the testbed of a simulated one — alone for a single run and
// joined with the session's deduplicated id for one among many, so
// identically named sessions ("bulk", "bulk-2") never alias one
// another's best-known vector. The size class is that of the volume
// the job moves — its dataset's bytes, else Bytes (0 = unbounded) —
// and the load class fingerprints the configured external load.
func (s JobSpec) sessionKey(id string, files dataset.Dataset) history.Key {
	endpoint := s.Testbed
	if s.Addr != "" {
		endpoint = s.Addr
	}
	if id != "" {
		endpoint += "/" + id
	}
	volume := s.Bytes
	if s.Dataset != "" {
		volume = float64(files.TotalBytes())
	}
	return history.Key{
		Endpoint:  endpoint,
		SizeClass: history.SizeClass(volume),
		LoadClass: history.LoadClass(s.Tfr + s.Cmp),
	}
}

// ClientConfig derives the gridftp client configuration of socket job
// id from its spec and, on a re-adoption, its checkpoint. It is what
// Build's own socket transfer is made from; a TransferFactory that
// shapes the local client (dstune's socket flags: shaper, retries,
// buffers, source directory) starts from it, so those host-local
// settings never have to travel in a JobSpec.
func ClientConfig(o *obs.Observer, id string, spec JobSpec, resume *tuner.Checkpoint) (ccfg gridftp.ClientConfig, err error) {
	files, err := spec.files()
	if err != nil {
		return ccfg, err
	}
	return clientConfig(o, id, spec, files, resume), nil
}

// clientConfig is ClientConfig over the spec's already parsed dataset.
func clientConfig(o *obs.Observer, id string, spec JobSpec, files dataset.Dataset, resume *tuner.Checkpoint) gridftp.ClientConfig {
	ccfg := gridftp.ClientConfig{
		Addr:    spec.Addr,
		Bytes:   volumeOf(spec.Bytes),
		Dataset: files,
		Seed:    spec.Seed,
		Obs:     o.Session(id),
		TCPInfo: tuner.ReadsKernel(spec.Tuner),
	}
	if spec.Dataset != "" {
		ccfg.Bytes = 0 // derived from the dataset
	}
	if resume != nil {
		// The server still holds the transfer: continue it under its
		// token, from its acknowledged bytes, on its cumulative clock.
		ccfg.Bytes = unfinite(resume.Transfer.Total)
		ccfg.Token = resume.Transfer.Token
		ccfg.AckedBytes = resume.Transfer.Acked
		ccfg.ClockOffset = resume.Transfer.Clock
	}
	if spec.DialFailProb > 0 {
		ccfg.Dialer = faultnet.New(faultnet.Config{
			Seed:         spec.Seed,
			DialFailProb: spec.DialFailProb,
			Obs:          o,
		}).Dial
	}
	return ccfg
}

// volumeOf maps a spec's byte count to a transfer size: zero asks for
// an unbounded transfer.
func volumeOf(bytes float64) float64 {
	if bytes <= 0 {
		return xfer.Unbounded
	}
	return bytes
}

// unfinite undoes xfer.Finite on a checkpointed byte count: the -1
// "unbounded" sentinel is xfer.Unbounded again. Zero stays zero — a
// checkpoint with nothing left must not grow into an endless transfer.
func unfinite(bytes float64) float64 {
	if bytes < 0 {
		return xfer.Unbounded
	}
	return bytes
}

// NewFabric builds the simulation fabric of the spec's testbed under
// the spec's seed, with no load on it.
func NewFabric(spec JobSpec) (*xfer.Fabric, error) {
	tb, err := experiment.TestbedByName(spec.Testbed)
	if err != nil {
		return nil, err
	}
	fabric, _, err := tb.NewFabric(spec.Seed)
	return fabric, err
}

// fabricTransfer builds the spec's simulated transfer on fabric (nil: a
// private one) and puts the spec's external load on it. A dataset makes
// it the disk-to-disk model under the shared workload constants; the
// strategy's name decides whether its processes restart every epoch.
func fabricTransfer(fabric *xfer.Fabric, id string, spec JobSpec, files dataset.Dataset, resume *tuner.Checkpoint) (xfer.Transferer, error) {
	if fabric == nil {
		var err error
		if fabric, err = NewFabric(spec); err != nil {
			return nil, err
		}
	}
	if spec.Tfr != 0 || spec.Cmp != 0 {
		fabric.SetLoad(load.Constant(load.Load{Tfr: spec.Tfr, Cmp: spec.Cmp}), nil)
	}
	tcfg := xfer.TransferConfig{
		Name:   id,
		Bytes:  volumeOf(spec.Bytes),
		Policy: tuner.RestartPolicyFor(spec.Tuner),
	}
	if resume != nil {
		// The simulated transfer died with the old process; a fresh one
		// covering exactly the checkpoint's remaining bytes keeps the
		// job's byte accounting exact: checkpointed acked + new total =
		// the spec's volume.
		tcfg.Bytes = unfinite(resume.Transfer.Remaining)
	}
	if spec.Dataset != "" {
		// A resumed simulated dataset restarts the dataset (file-level
		// progress lives only in the dead process); socket jobs resume
		// at file/offset granularity.
		tcfg.Files = files
	}
	return fabric.NewTransfer(tcfg)
}

// buildRuntime turns one admitted job into a stepping session: Build's
// session over the job's checkpoint file — resumed mid-trajectory when
// a readable checkpoint exists — wrapped in a tuner.SessionRuntime. It
// runs as Config.Session maps it, transfers preserved on cancel: a
// daemon shutdown must leave the session resumable, not stopped.
func (sv *Supervisor) buildRuntime(j *job) (*tuner.SessionRuntime, error) {
	ckPath := sv.checkpointPath(j.id)
	var resume *tuner.Checkpoint
	if _, err := os.Stat(ckPath); err == nil {
		ck, err := tuner.LoadCheckpoint(ckPath)
		if err != nil {
			// An unreadable checkpoint — a damaged header, a record
			// that fails its check before the last line, another
			// format's version — loses the trajectory, not the job:
			// the journal entry still owes a completion, so cold-start
			// rather than fail. The new session's first Save replaces
			// the damaged file.
			sv.logf("service: job %s: checkpoint unreadable, cold-starting: %v", j.id, err)
		} else {
			resume = ck
		}
	}
	sess, err := Build(j.spec, j.id, Door{
		Obs:         sv.obs,
		History:     sv.hist,
		Checkpoint:  tuner.NewFileCheckpoint(ckPath),
		Resume:      resume,
		NewTransfer: sv.cfg.NewTransfer,
	})
	if err != nil {
		return nil, err
	}

	fcfg, fs := sess.FleetSession()
	if fcfg.Budget > 0 && resume != nil && j.spec.Addr == "" {
		// A rebuilt simulated transfer restarts its clock at zero, so
		// carry only the unspent budget forward. Socket clients carry
		// the cumulative clock themselves (ClockOffset), so their
		// budget stays as specified.
		fcfg.Budget -= resume.Transfer.Clock
		if fcfg.Budget <= 0 {
			// Exhausted (0 would mean unlimited): the session ends in its
			// first Step without running an epoch.
			fcfg.Budget = 1e-9
		}
	}
	return tuner.NewSessionRuntime(fcfg, fs)
}
