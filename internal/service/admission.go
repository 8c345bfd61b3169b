package service

import (
	"fmt"
	"time"
)

// Limits is the daemon's admission-control policy: global and
// per-tenant caps on concurrent work plus per-tenant transient-fault
// budgets. The zero value of each field selects a permissive default.
type Limits struct {
	// MaxActive caps the sessions running at once, and with them the
	// daemon's session goroutines; admitted jobs beyond it wait in the
	// queue (default 1024).
	MaxActive int
	// MaxQueued caps the jobs waiting for a running slot; submissions
	// beyond it are rejected with 429 + Retry-After (default 4096).
	MaxQueued int
	// TenantMaxActive caps one tenant's admitted jobs — queued plus
	// running (default: MaxActive, i.e. no per-tenant cap beyond the
	// global one).
	TenantMaxActive int
	// TenantFaultBudget caps one tenant's cumulative transient-failure
	// epochs across all its jobs. When exhausted, the tenant's running
	// jobs are evicted and new submissions rejected until the daemon
	// restarts. 0 disables the budget.
	TenantFaultBudget int
	// RetryAfter is the backpressure hint returned with 429 responses
	// (default 1s).
	RetryAfter time.Duration
}

// withDefaults returns l with zero fields replaced by defaults.
func (l Limits) withDefaults() Limits {
	if l.MaxActive == 0 {
		l.MaxActive = 1024
	}
	if l.MaxQueued == 0 {
		l.MaxQueued = 4096
	}
	if l.TenantMaxActive == 0 {
		l.TenantMaxActive = l.MaxActive
	}
	if l.RetryAfter == 0 {
		l.RetryAfter = time.Second
	}
	return l
}

// RejectError is an admission refusal: the reason labels the rejection
// metric, and RetryAfter is the client backoff hint (zero when
// retrying cannot help, e.g. a duplicate ID). The HTTP layer maps it
// to 429 (or 409 for duplicates) with a Retry-After header.
type RejectError struct {
	// Reason is the stable rejection label: "queue-full",
	// "tenant-quota", "fault-budget", "duplicate", or "draining".
	Reason string
	// RetryAfter is the suggested client backoff; zero means the
	// condition will not clear by waiting.
	RetryAfter time.Duration
}

// Error implements error.
func (e *RejectError) Error() string {
	return fmt.Sprintf("service: job rejected: %s", e.Reason)
}
