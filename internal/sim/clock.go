package sim

import "fmt"

// Clock is a fixed-step virtual clock. Time is measured in seconds from
// the start of the simulation. The zero value is a clock at t=0 with an
// unset step; construct with NewClock to choose the step.
type Clock struct {
	now  float64
	dt   float64
	step uint64
}

// DefaultDT is the default simulation step in virtual seconds. 50 ms is
// fine enough to resolve per-RTT window dynamics on WAN paths (RTT of a
// few to tens of milliseconds are accumulated across steps) while
// keeping an 1800 s experiment cheap.
const DefaultDT = 0.05

// NewClock returns a clock that advances dt virtual seconds per Tick.
// A non-positive dt selects DefaultDT.
func NewClock(dt float64) *Clock {
	if dt <= 0 {
		dt = DefaultDT
	}
	return &Clock{dt: dt}
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// DT returns the step size in seconds.
func (c *Clock) DT() float64 { return c.dt }

// Tick advances the clock by one step and returns the new time.
func (c *Clock) Tick() float64 {
	c.step++
	// Recompute from the step count rather than accumulating so that
	// long runs do not drift from floating-point summation.
	c.now = float64(c.step) * c.dt
	return c.now
}

// String implements fmt.Stringer.
func (c *Clock) String() string {
	return fmt.Sprintf("t=%.3fs (step %d, dt=%gs)", c.now, c.step, c.dt)
}
