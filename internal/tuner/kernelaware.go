package tuner

import (
	"encoding/json"

	"dstune/internal/xfer"
)

// kernelDampCap bounds how many consecutive epochs the kernel-aware
// wrapper may damp. A loss burst that outlives the cap is a real
// network regression and the inner strategy gets to see it.
const kernelDampCap = 2

// KernelAwareState is the serializable state of a kernel-aware
// strategy: the wrapper's own ε-baseline, the consecutive-damp count,
// and the inner strategy's complete state.
type KernelAwareState struct {
	// Last is the wrapper's fitness baseline (the last reading it let
	// through to the inner strategy).
	Last float64 `json:"last"`
	// Armed reports whether Last holds a valid baseline.
	Armed bool `json:"armed"`
	// Damped counts consecutive damped epochs (0..kernelDampCap).
	Damped int `json:"damped"`
	// Inner is the inner strategy's serialized state.
	Inner json.RawMessage `json:"inner"`
}

// KernelAwareStrategy wraps any built-in strategy with kernel-informed
// damping of the ε-monitor: when an epoch's fitness dips beyond the
// tolerance and the kernel's TCP_INFO samples show retransmissions in
// the same epoch (Report.Kernel.RetransDelta > 0), the dip is
// attributed to transient network loss rather than a parameter-induced
// endpoint regression, and the inner strategy observes a report whose
// fitness is pinned at the pre-dip baseline — so its own ε-monitor does
// not retrigger a full search over a loss burst. At most kernelDampCap
// consecutive epochs are damped; a longer-lived dip, a dip without
// retransmissions (CPU contention, the paper's case for retriggering),
// or a run without kernel samples (Report.Kernel == nil: Sim fabric,
// fault-wrapped conns, non-Linux) passes through untouched.
type KernelAwareStrategy struct {
	cfg   Config
	inner Strategy
	st    KernelAwareState
}

// NewKernelAware wraps inner, a strategy built from cfg, with
// kernel-informed damping. NewStrategy builds "kernel-aware:<inner>"
// here from the registry's <inner>, so the wrapper never nests.
func NewKernelAware(inner Strategy, cfg Config) *KernelAwareStrategy {
	return &KernelAwareStrategy{cfg: cfg, inner: inner}
}

// Name implements Strategy. The name carries the inner strategy
// ("kernel-aware:cs-tuner") so checkpoints resume through NewStrategy
// by name.
func (s *KernelAwareStrategy) Name() string { return kernelAwarePrefix + s.inner.Name() }

// Propose implements Strategy.
func (s *KernelAwareStrategy) Propose() ([]int, bool) { return s.inner.Propose() }

// Damped reports how many consecutive epochs are currently being
// damped (0 when the last report passed through).
func (s *KernelAwareStrategy) Damped() int { return s.st.Damped }

// Observe implements Strategy.
func (s *KernelAwareStrategy) Observe(rep xfer.Report) {
	f := fitnessOf(s.cfg, rep)
	if !s.st.Armed {
		s.st.Armed = true
		s.st.Last = f
		s.inner.Observe(rep)
		return
	}
	dip := delta(s.st.Last, f) < -s.cfg.Tolerance
	lossy := rep.Kernel != nil && rep.Kernel.RetransDelta > 0
	if dip && lossy && s.st.Damped < kernelDampCap {
		// Loss explains the dip: hold the baseline and feed the inner
		// strategy a report pinned at it. Both fitness fields are
		// overwritten because the inner reads exactly one of them
		// (per cfg.ObserveBestCase), and everything else is kept.
		s.st.Damped++
		damped := rep
		damped.Throughput = s.st.Last
		damped.BestCase = s.st.Last
		s.inner.Observe(damped)
		return
	}
	s.st.Damped = 0
	s.st.Last = f
	s.inner.Observe(rep)
}

// Snapshot implements Strategy.
func (s *KernelAwareStrategy) Snapshot() (json.RawMessage, error) {
	raw, err := s.inner.Snapshot()
	if err != nil {
		return nil, err
	}
	st := s.st
	st.Inner = raw
	return json.Marshal(st)
}
