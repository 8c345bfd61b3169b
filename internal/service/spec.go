// Package service is the dstuned service plane: a long-running,
// multi-tenant tuning daemon assembled from the stack's existing
// parts. It runs each tuner session (tuner.SessionRuntime) on its own
// goroutine, admits work through one bounded queue and per-tenant
// quotas, journals every accepted job durably before acknowledging it,
// checkpoints each session through tuner.Checkpoint after every epoch,
// and re-adopts every in-flight job mid-trajectory after a crash or
// restart. The HTTP/JSON control
// API (Supervisor.Handler) exposes POST /jobs, GET /jobs, GET
// /jobs/{id}, and DELETE /jobs/{id} alongside the observation plane's
// /metrics, /status, and /debug endpoints.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"dstune/internal/dataset"
	"dstune/internal/experiment"
	"dstune/internal/tuner"
)

// JobSpec is the one declarative description of a tuned session: the
// transfer to tune (a simulated testbed or a gridftpd server address),
// the strategy, and the search-box knobs. It is the body of POST /jobs,
// the struct dstune's flags bind onto, and — with a name beside it —
// each session of a dstune -fleet file; Build turns it into
// the same session at all three. The zero value of every optional field
// selects the default WithDefaults documents.
type JobSpec struct {
	// ID names the job; empty lets the daemon assign one. IDs are
	// restricted to letters, digits, '.', '_', and '-' (they become
	// journal and checkpoint filenames) and must be unique among live
	// jobs.
	ID string `json:"id,omitempty"`
	// Tenant attributes the job for quotas and fault budgets; empty
	// selects "default". Same character set as ID.
	Tenant string `json:"tenant,omitempty"`
	// Tuner is the strategy name (default "cs-tuner"): any name
	// tuner.StrategyUsage lists — a row of the strategy registry
	// (STRATEGIES.md), or one behind "kernel-aware:".
	Tuner string `json:"tuner,omitempty"`
	// Testbed selects the simulated testbed ("uchicago" or "tacc")
	// for simulator jobs. Ignored when Addr is set.
	Testbed string `json:"testbed,omitempty"`
	// Addr, when set, makes this a real-socket job against a gridftpd
	// server.
	Addr string `json:"addr,omitempty"`
	// Bytes is the transfer volume; 0 means unbounded, which requires
	// a Budget so the job can end.
	Bytes float64 `json:"bytes,omitempty"`
	// Seed drives the job's randomness (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// Epoch is the control-epoch length in seconds (default 30 — use
	// sub-second epochs for fast socket jobs).
	Epoch float64 `json:"epoch,omitempty"`
	// Budget limits tuning to this many transfer-clock seconds,
	// cumulative across daemon restarts; 0 means until the transfer
	// completes.
	Budget float64 `json:"budget,omitempty"`
	// Two tunes parallelism as well as concurrency.
	Two bool `json:"two,omitempty"`
	// NP is the fixed parallelism when not tuning it (default 8).
	NP int `json:"np,omitempty"`
	// PP fixes the pipelining depth of a dataset job; 0 tunes it as a
	// third dimension when Two is set (otherwise depth 4). Requires
	// Dataset.
	PP int `json:"pp,omitempty"`
	// Dataset, when set, makes the job move a multi-file dataset
	// instead of an anonymous byte volume (see dataset.ParseSpec for
	// the syntax, e.g. "10000x1MiB" or "lognormal:2000:8MiB:1.5").
	// Socket jobs use the framed per-file data plane; simulated jobs
	// use the disk-to-disk model. The dataset bounds the transfer, so
	// Bytes must stay zero.
	Dataset string `json:"dataset,omitempty"`
	// MaxNC and MaxNP bound the search box (defaults 128 and 16).
	MaxNC int `json:"max_nc,omitempty"`
	MaxNP int `json:"max_np,omitempty"`
	// Tolerance is the significance threshold in percent (default 5).
	Tolerance float64 `json:"tolerance,omitempty"`
	// MaxTransient is the consecutive transient-failure tolerance
	// (default 3).
	MaxTransient int `json:"max_transient,omitempty"`
	// Tfr and Cmp are the external load on a simulated job's source.
	Tfr int `json:"tfr,omitempty"`
	Cmp int `json:"cmp,omitempty"`
	// DialFailProb injects seeded dial failures into a socket job's
	// connection setup (chaos testing; 0 disables).
	DialFailProb float64 `json:"dial_fail_prob,omitempty"`
}

// maxSpecBytes bounds one encoded JobSpec; the HTTP handler also
// enforces it on request bodies.
const maxSpecBytes = 1 << 20

// DecodeJobSpec parses one JSON-encoded JobSpec strictly (DecodeStrict)
// and validates it. Hostile input yields an error — never a panic and
// never a partially usable spec.
func DecodeJobSpec(data []byte) (JobSpec, error) {
	var spec JobSpec
	if err := DecodeStrict(data, &spec); err != nil {
		return JobSpec{}, err
	}
	if err := spec.Validate(); err != nil {
		return JobSpec{}, err
	}
	return spec, nil
}

// DecodeStrict decodes one JSON document holding job specs into v —
// over whatever v already holds, so a spec decoded onto shared defaults
// overrides only the keys it names. Unknown fields, trailing data,
// oversized documents, and type mismatches are all errors.
func DecodeStrict(data []byte, v any) error {
	if len(data) > maxSpecBytes {
		return fmt.Errorf("service: job spec exceeds %d bytes", maxSpecBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("service: job spec: %w", err)
	}
	if dec.More() {
		return errors.New("service: job spec: trailing data after JSON document")
	}
	return nil
}

// Validate reports whether the spec is runnable: names well-formed,
// strategy and testbed known, numbers finite and in range, and the job
// guaranteed to terminate (finite bytes or a budget).
func (s JobSpec) Validate() error {
	if err := validName("id", s.ID); err != nil {
		return err
	}
	if err := validName("tenant", s.Tenant); err != nil {
		return err
	}
	if s.Tuner != "" && !tuner.KnownStrategy(s.Tuner) {
		return fmt.Errorf("service: unknown tuner %q", s.Tuner)
	}
	if s.Addr == "" && s.Testbed != "" {
		if _, err := experiment.TestbedByName(s.Testbed); err != nil {
			return fmt.Errorf("service: %w", err)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"bytes", s.Bytes}, {"epoch", s.Epoch}, {"budget", s.Budget},
		{"tolerance", s.Tolerance}, {"dial_fail_prob", s.DialFailProb},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("service: %s %v is not a finite non-negative number", f.name, f.v)
		}
	}
	if s.DialFailProb >= 1 {
		return fmt.Errorf("service: dial_fail_prob %v must be below 1", s.DialFailProb)
	}
	if s.DialFailProb > 0 && s.Addr == "" {
		return errors.New("service: dial_fail_prob applies only to socket jobs (set addr)")
	}
	for _, f := range []struct {
		name    string
		v, ceil int
	}{
		{"np", s.NP, 4096}, {"pp", s.PP, 4096}, {"max_nc", s.MaxNC, 4096}, {"max_np", s.MaxNP, 4096},
		{"max_transient", s.MaxTransient, 1 << 20}, {"tfr", s.Tfr, 1 << 20}, {"cmp", s.Cmp, 1 << 20},
	} {
		if f.v < 0 || f.v > f.ceil {
			return fmt.Errorf("service: %s %d outside [0, %d]", f.name, f.v, f.ceil)
		}
	}
	if s.Dataset != "" {
		if _, err := dataset.ParseSpec(s.Dataset, 1); err != nil {
			return fmt.Errorf("service: %w", err)
		}
		if s.Bytes != 0 {
			return errors.New("service: dataset jobs derive their volume from the dataset; leave bytes zero")
		}
	} else if s.PP != 0 {
		return errors.New("service: pp applies only to dataset jobs (set dataset)")
	}
	if s.Bytes == 0 && s.Budget == 0 && s.Dataset == "" {
		return errors.New("service: unbounded job (bytes 0) needs a budget to terminate")
	}
	return nil
}

// WithDefaults returns s with zero fields replaced by the documented
// defaults — the one place they are written.
func (s JobSpec) WithDefaults() JobSpec {
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if s.Tuner == "" {
		s.Tuner = "cs-tuner"
	}
	if s.Testbed == "" {
		s.Testbed = "uchicago"
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Epoch == 0 {
		s.Epoch = 30
	}
	if s.NP == 0 {
		s.NP = 8
	}
	if s.MaxNC == 0 {
		s.MaxNC = 128
	}
	if s.MaxNP == 0 {
		s.MaxNP = 16
	}
	return s
}

// validName admits the characters that are safe in a journal or
// checkpoint filename: letters, digits, '.', '_', '-'. Empty is
// allowed (it selects a default); "." and ".." are not.
func validName(field, v string) error {
	if v == "" {
		return nil
	}
	if len(v) > 64 {
		return fmt.Errorf("service: %s %q longer than 64 characters", field, v)
	}
	if v == "." || v == ".." {
		return fmt.Errorf("service: %s %q is not a valid name", field, v)
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("service: %s %q contains %q; use letters, digits, '.', '_', '-'", field, v, c)
		}
	}
	return nil
}
