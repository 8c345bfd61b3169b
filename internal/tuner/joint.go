package tuner

import (
	"context"
	"errors"
	"fmt"

	"dstune/internal/directsearch"
	"dstune/internal/xfer"
)

// JointConfig parameterizes a Joint tuner. The Box and Start span the
// concatenation of all transfers' vectors; Dims gives each transfer's
// slice width and Maps its ParamMap over that slice. Weights scale
// each transfer's contribution to the aggregate objective (transfer
// priorities in the sense of Kettimuthu et al. [16]); nil means equal
// weights.
type JointConfig struct {
	// Epoch, Tolerance, Lambda, NM, Budget, Seed, Restart, and
	// ObserveBestCase mean the same as in Config.
	Epoch     float64               // control-epoch length in seconds
	Tolerance float64               // significance threshold in percent
	Lambda    float64               // forgetting factor for the smoothed objective
	NM        directsearch.NMConfig // Nelder-Mead knobs
	Box       directsearch.Box      // bounds over the concatenated vector
	Start     []int                 // initial concatenated vector
	Budget    float64               // tuning time budget in seconds; 0 = unlimited
	Seed      uint64                // drives all randomness
	Restart   RestartFrom           // where a monitor retrigger restarts the search
	// ObserveBestCase selects the best-case (loss-free) throughput as
	// the objective, as in Config.
	ObserveBestCase bool

	// Dims is the vector width per transfer (e.g. [2, 2] for two
	// transfers each tuning nc and np).
	Dims []int
	// Maps converts each transfer's slice to its parameters.
	Maps []ParamMap
	// Weights are the per-transfer priorities; nil = all ones.
	Weights []float64
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (c JointConfig) withDefaults() JointConfig {
	if c.Epoch == 0 {
		c.Epoch = 30
	}
	c.Tolerance = resolveSentinel(c.Tolerance, 5)
	c.Lambda = resolveSentinel(c.Lambda, 8)
	if c.Weights == nil {
		c.Weights = make([]float64, len(c.Dims))
		for i := range c.Weights {
			c.Weights[i] = 1
		}
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c JointConfig) Validate() error {
	if len(c.Dims) == 0 {
		return errors.New("tuner: joint config needs at least one transfer")
	}
	if len(c.Maps) != len(c.Dims) {
		return fmt.Errorf("tuner: %d maps for %d transfers", len(c.Maps), len(c.Dims))
	}
	if c.Weights != nil && len(c.Weights) != len(c.Dims) {
		return fmt.Errorf("tuner: %d weights for %d transfers", len(c.Weights), len(c.Dims))
	}
	total := 0
	for i, d := range c.Dims {
		if d < 1 {
			return fmt.Errorf("tuner: transfer %d has dim %d", i, d)
		}
		if c.Maps[i] == nil {
			return fmt.Errorf("tuner: transfer %d has nil map", i)
		}
		total += d
	}
	if c.Box.Dim() != total || len(c.Start) != total {
		return fmt.Errorf("tuner: box dim %d / start %d, want %d", c.Box.Dim(), len(c.Start), total)
	}
	return nil
}

// Joint tunes several transfers on a shared endpoint as one
// optimization problem: one direct search over the concatenated
// parameter vector, maximizing the weighted aggregate throughput.
// This is the endpoint-level tuning the paper's §IV-D discussion and
// future-work item (4) call for, in contrast to Figure 11's
// independent tuners that treat each other as external load.
//
// All transfers run their control epochs concurrently (the simulation
// fabric keeps them in lockstep virtual time), so one evaluation of
// the joint vector costs one epoch of wall/virtual time regardless of
// the number of transfers.
//
// Joint is a single-session Fleet: one SearchStrategy over the
// concatenated vector, observing the weighted aggregate report.
type Joint struct {
	cfg  JointConfig
	name string
	kind string
}

// NewJointCS returns a joint tuner driven by compass search.
func NewJointCS(cfg JointConfig) *Joint {
	return &Joint{cfg: cfg, name: "joint-cs", kind: searchKindCompass}
}

// NewJointNM returns a joint tuner driven by Nelder–Mead.
func NewJointNM(cfg JointConfig) *Joint {
	return &Joint{cfg: cfg, name: "joint-nm", kind: searchKindNM}
}

// Name returns the tuner's name.
func (j *Joint) Name() string { return j.name }

// Tune drives the transfers until any of them completes or the budget
// is reached, then stops them all and returns one trace per transfer
// (in input order). Each trace's epochs record that transfer's own
// slice of the joint vector.
//
// Cancelling ctx aborts the in-flight epoch and returns the traces so
// far. Joint tuning has no checkpoint/resume support: the transfers
// are always stopped on return.
func (j *Joint) Tune(ctx context.Context, ts []xfer.Transferer) ([]*Trace, error) {
	if err := j.cfg.Validate(); err != nil {
		return nil, err
	}
	if len(ts) != len(j.cfg.Dims) {
		return nil, fmt.Errorf("tuner: %d transfers for %d configured slots", len(ts), len(j.cfg.Dims))
	}
	cfg := j.cfg.withDefaults()
	// The strategy config keeps the raw sentinels (NoTolerance,
	// NoLambda) so its own defaulting resolves them exactly once.
	strat := newSearchStrategy(j.name, j.kind, Config{
		Epoch:           j.cfg.Epoch,
		Tolerance:       j.cfg.Tolerance,
		Lambda:          j.cfg.Lambda,
		NM:              j.cfg.NM,
		Box:             j.cfg.Box,
		Start:           j.cfg.Start,
		Seed:            j.cfg.Seed,
		Restart:         j.cfg.Restart,
		ObserveBestCase: j.cfg.ObserveBestCase,
	})
	fleet := NewFleet(
		// MaxTransientFailures 1: the first failed epoch of any kind
		// ends joint tuning, as there is no checkpoint to resume from.
		FleetConfig{Epoch: cfg.Epoch, Budget: cfg.Budget, MaxTransientFailures: 1},
		FleetSession{
			Name:      j.name,
			Strategy:  strat,
			Transfers: ts,
			Dims:      cfg.Dims,
			Maps:      cfg.Maps,
			Weights:   cfg.Weights,
			bestCase:  cfg.ObserveBestCase,
		},
	)
	results, err := fleet.Run(ctx)
	if err != nil {
		return nil, err
	}
	return results[0].Traces, results[0].Err
}
