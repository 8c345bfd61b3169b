package tuner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"

	"dstune/internal/fsx"
	"dstune/internal/ivec"
	"dstune/internal/obs"
	"dstune/internal/xfer"
)

// CheckpointVersion is the checkpoint format version this build
// writes, and the Version of every Checkpoint LoadCheckpoint returns.
// Version 4 is one self-checking append-only file (see FileCheckpoint),
// so writing a checkpoint costs the same at epoch 10 and at epoch
// 10 000. LoadCheckpoint and Config.Resume reject every other version
// rather than guess at its layout.
const CheckpointVersion = 4

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
	// Transfer is the transfer's cumulative durable state after the
	// epoch.
	Transfer xfer.TransferState `json:"transfer"`
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
	Epochs int `json:"-"`
	// Transfer is the transfer's durable state: bytes acked by the
	// receiver, bytes remaining, and the cumulative transfer clock. On
	// disk it is the last record's, or the header's when no epoch is
	// recorded.
	Transfer xfer.TransferState `json:"transfer"`
	// Trace holds every recorded epoch in order. On disk each is a
	// line of its own after the header.
	Trace []EpochRecord `json:"-"`
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

// FileCheckpoint writes a checkpoint as one append-only file at Path():
// a header line of plain JSON — everything but Epochs and Trace — then
// one line per recorded epoch, its EpochRecord framed as "<CRC-32C of
// the JSON in 8 hex digits> <JSON>".
//
// The first Save of a FileCheckpoint writes the header and every record
// to a temporary file and renames it over the path, which brings
// whatever was there — an earlier run's file, a torn tail, garbage — to
// a clean state, so the header is never torn. Every later Save appends
// and syncs only the records added since, and costs the same however
// long the trace has grown; one that adds no record writes nothing. A
// crash mid-append leaves at most a torn last line, which the reader
// drops. Saves must therefore carry an append-only trace, as the
// engine's do. A FileCheckpoint is not safe for concurrent use; Close
// releases the file handle (the engine calls it when the session ends),
// after which a Save starts over with a whole rewrite.
type FileCheckpoint struct {
	path string
	// file is the checkpoint open for appending; nil until the first
	// Save and after Close.
	file *os.File
	// written counts the records the file holds.
	written int
	// buf is the marshalling buffer, reused across Saves.
	buf bytes.Buffer
}

// NewFileCheckpoint returns a writer targeting path.
func NewFileCheckpoint(path string) *FileCheckpoint {
	return &FileCheckpoint{path: path}
}

// Path returns the checkpoint file's path.
func (f *FileCheckpoint) Path() string { return f.path }

// Save implements CheckpointWriter.
func (f *FileCheckpoint) Save(ck *Checkpoint) error {
	if ck.Epochs != len(ck.Trace) {
		return fmt.Errorf("tuner: checkpoint counts %d epochs but carries %d trace records", ck.Epochs, len(ck.Trace))
	}
	if f.file == nil || len(ck.Trace) < f.written {
		return f.rewrite(ck)
	}
	if len(ck.Trace) == f.written {
		// A checkpoint-on-interrupt straight after an epoch's own.
		return nil
	}
	f.buf.Reset()
	if err := f.frame(ck.Trace[f.written:]); err != nil {
		return err
	}
	if err := fsx.WriteSync(f.file, f.buf.Bytes()); err != nil {
		// The file may end in a torn record: start over on the next Save.
		f.Close()
		return err
	}
	f.written = len(ck.Trace)
	return nil
}

// rewrite replaces the file with ck's header and every record of its
// trace, and leaves it open for appending.
func (f *FileCheckpoint) rewrite(ck *Checkpoint) error {
	f.Close()
	f.buf.Reset()
	// The file is in this build's layout whatever the caller stamped.
	head := *ck
	head.Version = CheckpointVersion
	if err := json.NewEncoder(&f.buf).Encode(&head); err != nil {
		return err
	}
	if err := f.frame(ck.Trace); err != nil {
		return err
	}
	if err := fsx.WriteAtomic(f.path, f.buf.Bytes(), 0o644); err != nil {
		return err
	}
	file, err := os.OpenFile(f.path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	f.file, f.written = file, len(ck.Trace)
	return nil
}

// frame appends recs to the marshalling buffer, one framed line each.
func (f *FileCheckpoint) frame(recs []EpochRecord) error {
	for i := range recs {
		js, err := json.Marshal(&recs[i])
		if err != nil {
			return err
		}
		fmt.Fprintf(&f.buf, "%08x %s\n", crc32.Checksum(js, castagnoli), js)
	}
	return nil
}

// castagnoli is the CRC-32C table the record frames are checked with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// unframe returns the JSON a record line (without its newline) frames,
// and whether the line is a frame whose CRC matches it.
func unframe(line []byte) ([]byte, bool) {
	if len(line) < 9 || line[8] != ' ' {
		return nil, false
	}
	return line[9:], string(line[:8]) == fmt.Sprintf("%08x", crc32.Checksum(line[9:], castagnoli))
}

// Close releases the file handle. Every record was synced by the Save
// that appended it, so nothing is flushed here; closing an unopened or
// already closed writer is a no-op.
func (f *FileCheckpoint) Close() error {
	if f.file == nil {
		return nil
	}
	err := f.file.Close()
	f.file, f.written = nil, 0
	return err
}

// LoadCheckpoint reads and validates the checkpoint file a
// FileCheckpoint wrote at path, decoding every record.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	return readCheckpoint(path, true)
}

// LoadCheckpointHead reads and validates the checkpoint at path as
// LoadCheckpoint does — every record's frame is checked, so the two
// count the same epochs and refuse the same torn or corrupt files — but
// decodes only the header and the last record, and leaves Trace nil.
func LoadCheckpointHead(path string) (*Checkpoint, error) {
	return readCheckpoint(path, false)
}

// readCheckpoint is the one checkpoint reader. A last line that is
// unterminated or fails its CRC is an append a crash cut short, and is
// dropped; a bad line with lines after it is corruption. With all
// false only the header and the last record are decoded.
func readCheckpoint(path string, all bool) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	head, recs, whole := bytes.Cut(data, []byte{'\n'})
	ck := new(Checkpoint)
	if err := json.Unmarshal(head, ck); err != nil {
		return nil, fmt.Errorf("tuner: checkpoint %s: header: %w", path, err)
	}
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("tuner: checkpoint %s has version %d, this build reads %d", path, ck.Version, CheckpointVersion)
	}
	if !whole {
		return nil, fmt.Errorf("tuner: checkpoint %s is corrupt: its header line is unterminated", path)
	}
	var frames [][]byte
	for len(recs) > 0 {
		line, next, whole := bytes.Cut(recs, []byte{'\n'})
		js, good := unframe(line)
		if !good || !whole {
			if len(next) == 0 {
				break
			}
			return nil, fmt.Errorf("tuner: checkpoint %s is corrupt: record %d fails its check", path, len(frames))
		}
		frames, recs = append(frames, js), next
	}
	ck.Epochs = len(frames)
	if !all && ck.Epochs > 0 {
		frames = frames[ck.Epochs-1:]
	}
	trace := make([]EpochRecord, len(frames))
	for i := range trace {
		if err := json.Unmarshal(frames[i], &trace[i]); err != nil {
			return nil, fmt.Errorf("tuner: checkpoint %s: record %d: %w", path, ck.Epochs-len(trace)+i, err)
		}
		ck.Transfer = trace[i].Transfer
	}
	if all {
		ck.Trace = trace
	}
	return ck, nil
}

// checkpointer assembles and writes a session's checkpoints: it owns
// the recorded epochs, the transfer state capture, the
// CheckpointWritten emission, and the writer's lifetime. Without a
// writer every method is a no-op and no settled epoch is recorded.
type checkpointer struct {
	w     CheckpointWriter
	obs   *obs.SessionObs
	t     xfer.Transferer
	tuner string
	seed  uint64
	start []int
	// records is the trace the checkpoints carry; the engine only ever
	// appends to it.
	records []EpochRecord
}

// newCheckpointer returns the checkpointer of a session running the
// strategy named tuner, built under seed from start (nil: the
// configured one), against transfer t; w may be nil.
func newCheckpointer(w CheckpointWriter, o *obs.SessionObs, tuner string, t xfer.Transferer, seed uint64, start []int) *checkpointer {
	return &checkpointer{w: w, obs: o, t: t, tuner: tuner, seed: seed, start: start}
}

// record appends one settled epoch, with the transfer state it left,
// to the trace the next save carries.
func (c *checkpointer) record(x []int, rep xfer.Report, transient bool) {
	if c.w == nil {
		return
	}
	c.records = append(c.records, EpochRecord{X: ivec.Clone(x), Report: rep, Transient: transient, Transfer: xfer.CaptureState(c.t)})
}

// save captures the transfer state and hands it to the writer with a
// view of the records: capped at its length, so a writer that appends
// to it cannot reach the engine's next record.
func (c *checkpointer) save() error {
	if c.w == nil {
		return nil
	}
	n := len(c.records)
	ck := &Checkpoint{
		Version:  CheckpointVersion,
		Tuner:    c.tuner,
		Seed:     c.seed,
		Start:    c.start,
		Epochs:   n,
		Transfer: xfer.CaptureState(c.t),
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
// holds a resource (FileCheckpoint's file handle) releases it.
func (c *checkpointer) close() {
	if cl, ok := c.w.(io.Closer); ok {
		// Nothing is buffered — every Save synced what it wrote — so a
		// close error has nothing to report.
		_ = cl.Close()
	}
}
