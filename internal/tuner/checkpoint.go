package tuner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"time"

	"dstune/internal/fsx"
	"dstune/internal/ivec"
	"dstune/internal/obs"
	"dstune/internal/xfer"
)

// CheckpointVersion is the checkpoint format version this build
// writes, and the Version of every Checkpoint LoadCheckpoint returns.
// Version 3 splits the file into a fixed-size head at the checkpoint
// path and an append-only epoch log beside it (see FileCheckpoint), so
// writing a checkpoint costs the same at epoch 10 and at epoch 10 000.
// A resume replays the log; the head's Strategy snapshot is written
// for inspection and never read back, and a version-3 head that still
// carries the "transients" key an earlier build wrote loads and
// resumes the same. LoadCheckpoint and Config.Resume reject every
// other version rather than guess at its layout.
const CheckpointVersion = 3

// ErrInterrupted is returned by Run when the run was stopped by the
// Config.Drain channel: the in-flight epoch completed, the final
// checkpoint (when configured) was written, and the transfer was left
// running so a later run can resume it.
var ErrInterrupted = errors.New("tuner: tuning interrupted")

// EpochRecord is one recorded control epoch of a checkpointed run.
type EpochRecord struct {
	// X is the tuned vector the epoch ran with.
	X []int `json:"x"`
	// Report is the transfer's account of the epoch.
	Report xfer.Report `json:"report"`
	// Transient marks a tolerated transient-failure epoch (recorded
	// as zero throughput); a resume recounts the consecutive failure
	// counter from it.
	Transient bool `json:"transient,omitempty"`
}

// Checkpoint is the durable state of a tuned transfer, written after
// every control epoch. Trace is the record a resume reads: a strategy
// freshly built under Seed and Start is fed the recorded reports, and
// every proposal it makes is verified against the recorded vector, so
// the resumed state is the one the original run reached — or the
// resume is refused. A tuner's state after k epochs is a function of
// its configuration, its seed and the k reports it observed, so the
// log is all there is to restore.
type Checkpoint struct {
	// Version is the format version; see CheckpointVersion.
	Version int `json:"version"`
	// Tuner is the name of the tuner that wrote the checkpoint; a
	// resume with a different tuner is rejected.
	Tuner string `json:"tuner"`
	// Seed is the run's RNG seed; resume adopts it.
	Seed uint64 `json:"seed"`
	// Start is the starting vector the run adopted from its history
	// store in place of the configured one; absent for a cold run.
	// Resume adopts it as it adopts Seed, and consults no store.
	Start []int `json:"start,omitempty"`
	// Epochs counts the recorded control epochs (== len(Trace)).
	Epochs int `json:"epochs"`
	// Transfer is the transfer's durable state: bytes acked by the
	// receiver, bytes remaining, and the cumulative transfer clock.
	Transfer xfer.TransferState `json:"transfer"`
	// Strategy is the tuner's serialized state machine — phase,
	// incumbents, compass queue and step size, Nelder–Mead simplex,
	// stall rotation, ε-monitor, RNG stream position — taken after the
	// last recorded epoch was observed. It is written for inspection; a
	// resume rebuilds the state from Trace instead.
	Strategy json.RawMessage `json:"strategy,omitempty"`
	// Trace holds every recorded epoch in order. On disk it lives in
	// the epoch log, not in the head.
	Trace []EpochRecord `json:"trace,omitempty"`
}

// CheckpointWriter persists checkpoints. Save is called after every
// control epoch with the complete current state (not a delta); an
// error ends the session, and Run returns it. Trace is a
// read-only view that shares the engine's backing array — do not mutate
// it; retaining it is safe because the engine only appends. A writer
// that also implements io.Closer is closed when its session ends.
type CheckpointWriter interface {
	Save(ck *Checkpoint) error
}

// CheckpointFunc adapts a function to the CheckpointWriter interface.
type CheckpointFunc func(ck *Checkpoint) error

// Save implements CheckpointWriter.
func (f CheckpointFunc) Save(ck *Checkpoint) error { return f(ck) }

// FileCheckpoint writes checkpoints as two files: a fixed-size head at
// Path() — everything but the trace, one line of JSON, replaced
// atomically on every Save — and an append-only epoch log at
// Path()+".log", one EpochRecord per line. A Save appends and fsyncs
// the records the log lacks before it renames the head that counts
// them into place, so the head is the single commit point: a reader
// takes exactly the first head.Epochs lines of the log, and a torn or
// surplus tail is never seen. Move or copy a checkpoint as the pair.
//
// The first Save of a FileCheckpoint rewrites the log whole, which
// brings whatever is at the path — an earlier run's files, a torn
// tail, garbage — to a clean state; every later Save appends only the
// records added since and costs the same however long the trace has
// grown. Saves must therefore carry an append-only trace, as the
// engine's do. A FileCheckpoint is not safe for
// concurrent use; Close releases the log handle (the engine calls it
// when the session ends), after which a Save starts over with a whole
// rewrite.
type FileCheckpoint struct {
	path string
	// log is the open epoch log; nil until the first Save and after
	// Close.
	log *os.File
	// written counts the records the log holds.
	written int
	// buf is the marshalling buffer, reused across Saves.
	buf bytes.Buffer
}

// NewFileCheckpoint returns a writer targeting path.
func NewFileCheckpoint(path string) *FileCheckpoint {
	return &FileCheckpoint{path: path}
}

// Path returns the target path: the head's. The epoch log is beside it
// at Path()+".log".
func (f *FileCheckpoint) Path() string { return f.path }

// logPath returns the epoch log of the checkpoint whose head is at
// path.
func logPath(path string) string { return path + ".log" }

// Save implements CheckpointWriter.
func (f *FileCheckpoint) Save(ck *Checkpoint) error {
	if ck.Epochs != len(ck.Trace) {
		return fmt.Errorf("tuner: checkpoint counts %d epochs but carries %d trace records", ck.Epochs, len(ck.Trace))
	}
	if f.log == nil || len(ck.Trace) < f.written {
		if err := f.rewriteLog(ck.Trace); err != nil {
			return err
		}
	} else if err := f.appendLog(ck.Trace[f.written:]); err != nil {
		// The log may end in a torn record: start over on the next Save.
		f.Close()
		return err
	}
	f.written = len(ck.Trace)

	// The file is in this build's layout whatever the caller stamped.
	head := *ck
	head.Version = CheckpointVersion
	head.Trace = nil
	if err := f.encoder().Encode(&head); err != nil {
		return err
	}
	// WriteAtomic syncs the temp file and then the directory entry:
	// without the latter a crash can roll the head back to the previous
	// checkpoint — or to nothing — despite the fsynced data. The same
	// directory sync covers a log the first Save has just created.
	return fsx.WriteAtomic(f.path, f.buf.Bytes(), 0o644)
}

// encoder empties the marshalling buffer and returns an encoder that
// fills it, one JSON value per line.
func (f *FileCheckpoint) encoder() *json.Encoder {
	f.buf.Reset()
	return json.NewEncoder(&f.buf)
}

// rewriteLog replaces the epoch log with exactly trace and leaves it
// open for appending. A log that does not exist yet is created and
// written in place — no head counts its records until the caller
// writes one; an existing log is replaced atomically, because the head
// on disk may still count on it.
func (f *FileCheckpoint) rewriteLog(trace []EpochRecord) error {
	f.Close()
	if err := encodeRecords(f.encoder(), trace); err != nil {
		return err
	}
	path := logPath(f.path)
	lf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
	switch {
	case err == nil:
		if err := fsx.WriteSync(lf, f.buf.Bytes()); err != nil {
			lf.Close()
			return err
		}
	case errors.Is(err, fs.ErrExist):
		if err := fsx.WriteAtomic(path, f.buf.Bytes(), 0o644); err != nil {
			return err
		}
		if lf, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0); err != nil {
			return err
		}
	default:
		return err
	}
	f.log = lf
	return nil
}

// appendLog appends recs to the open epoch log and syncs it. With
// nothing to append (a checkpoint-on-interrupt straight after an
// epoch's own) the log is left alone.
func (f *FileCheckpoint) appendLog(recs []EpochRecord) error {
	if len(recs) == 0 {
		return nil
	}
	if err := encodeRecords(f.encoder(), recs); err != nil {
		return err
	}
	return fsx.WriteSync(f.log, f.buf.Bytes())
}

// encodeRecords writes recs in the epoch log's form: one JSON object
// per line.
func encodeRecords(enc *json.Encoder, recs []EpochRecord) error {
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return nil
}

// Close releases the epoch log's handle. Every record was synced by
// the Save that appended it, so nothing is flushed here; closing an
// unopened or already closed writer is a no-op.
func (f *FileCheckpoint) Close() error {
	if f.log == nil {
		return nil
	}
	err := f.log.Close()
	f.log, f.written = nil, 0
	return err
}

// LoadCheckpoint reads and validates a checkpoint written by
// FileCheckpoint: the head at path and the first head.Epochs records
// of the epoch log beside it. Records past that count — a torn or
// uncommitted tail — are ignored; a log shorter than the head counts
// is corruption.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	ck, err := LoadCheckpointHead(path)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(logPath(path))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		// A missing log reads as an empty one.
		return nil, err
	}
	if n := bytes.Count(data, []byte{'\n'}); n < ck.Epochs {
		return nil, fmt.Errorf("tuner: checkpoint %s is corrupt: head counts %d epochs but its log %s holds %d", path, ck.Epochs, logPath(path), n)
	}
	ck.Trace = make([]EpochRecord, ck.Epochs)
	for i := range ck.Trace {
		nl := bytes.IndexByte(data, '\n')
		if err := json.Unmarshal(data[:nl], &ck.Trace[i]); err != nil {
			return nil, fmt.Errorf("tuner: checkpoint %s: log record %d: %w", path, i, err)
		}
		data = data[nl+1:]
	}
	return ck, nil
}

// LoadCheckpointHead reads and validates only the head of the
// checkpoint at path — everything but Trace, which is left nil — at a
// cost independent of the number of recorded epochs. It does not open
// the epoch log, so it cannot tell whether LoadCheckpoint would find
// the log intact.
func LoadCheckpointHead(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ck := new(Checkpoint)
	if err := json.Unmarshal(data, ck); err != nil {
		return nil, fmt.Errorf("tuner: checkpoint %s: %w", path, err)
	}
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("tuner: checkpoint %s has version %d, this build reads %d", path, ck.Version, CheckpointVersion)
	}
	if ck.Epochs < 0 || len(ck.Trace) != 0 {
		return nil, fmt.Errorf("tuner: checkpoint %s is corrupt: head counts %d epochs and carries %d trace records", path, ck.Epochs, len(ck.Trace))
	}
	return ck, nil
}

// checkpointer assembles and writes a session's checkpoints: it owns
// the recorded epochs, the strategy snapshot, the transfer state
// capture, the CheckpointWritten emission, and the writer's lifetime.
// Without a writer every method is a no-op and nothing is recorded.
type checkpointer struct {
	w     CheckpointWriter
	obs   *obs.SessionObs
	s     Strategy
	t     xfer.Transferer
	tuner string
	seed  uint64
	start []int
	// records is the trace the checkpoints carry; the engine only ever
	// appends to it.
	records []EpochRecord
}

// newCheckpointer returns the checkpointer of a session running
// strategy s, built under seed from start (nil: the configured one),
// against transfer t; w may be nil.
func newCheckpointer(w CheckpointWriter, o *obs.SessionObs, s Strategy, t xfer.Transferer, seed uint64, start []int) *checkpointer {
	return &checkpointer{w: w, obs: o, s: s, t: t, tuner: s.Name(), seed: seed, start: start}
}

// record appends one settled epoch to the trace the next save carries.
func (c *checkpointer) record(x []int, rep xfer.Report, transient bool) {
	if c.w == nil {
		return
	}
	c.records = append(c.records, EpochRecord{X: ivec.Clone(x), Report: rep, Transient: transient})
}

// save snapshots the session's durable state — the strategy's
// serialized state machine and the transfer state — and hands it to
// the writer with a view of the records: capped at its length, so a
// writer that appends to it cannot reach the engine's next record.
func (c *checkpointer) save() error {
	if c.w == nil {
		return nil
	}
	raw, err := c.s.Snapshot()
	if err != nil {
		return fmt.Errorf("checkpoint: strategy snapshot: %w", err)
	}
	n := len(c.records)
	ck := &Checkpoint{
		Version:  CheckpointVersion,
		Tuner:    c.tuner,
		Seed:     c.seed,
		Start:    c.start,
		Epochs:   n,
		Transfer: xfer.CaptureState(c.t),
		Strategy: raw,
		Trace:    c.records[:n:n],
	}
	t0 := time.Now()
	if err := c.w.Save(ck); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	// The write latency is wall time and lands in metrics only; the
	// event carries the transfer clock, keeping Sim traces
	// deterministic.
	c.obs.CheckpointWritten(c.t.Now(), n, time.Since(t0).Seconds())
	return nil
}

// close ends the writer's lifetime with the session's: a writer that
// holds a resource (FileCheckpoint's log handle) releases it.
func (c *checkpointer) close() {
	if cl, ok := c.w.(io.Closer); ok {
		// Nothing is buffered — every Save synced what it wrote — so a
		// close error has nothing to report.
		_ = cl.Close()
	}
}
