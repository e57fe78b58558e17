package xipc

import (
	"math/rand"
	"time"

	"xorp/internal/xrl"
)

// Transient-failure retry for idempotent XRLs. A crashed protocol process
// leaves a window — death observed, respawn not yet re-registered — where
// calls fail with CodeResolveFailed; a torn connection surfaces as
// CodeSendFailed. For calls whose re-delivery is harmless (marked
// Idempotent in their internal/xif spec), riding out that window with a
// few jittered retries turns a restart into a non-event for callers.
// Non-idempotent calls must keep failing fast: re-delivering them can
// double-apply.

// RetryPolicy bounds the retries of an idempotent SendArgs.
type RetryPolicy struct {
	Attempts int           // total tries, including the first (min 1)
	Base     time.Duration // backoff before the first retry
	Max      time.Duration // backoff cap
}

// DefaultRetryPolicy retries three times over roughly a third of a
// second — enough to ride out a Finder re-registration, short enough
// that a genuinely missing target still fails promptly.
var DefaultRetryPolicy = RetryPolicy{
	Attempts: 4,
	Base:     50 * time.Millisecond,
	Max:      2 * time.Second,
}

// retryable reports whether a failure is transient at the transport
// layer: the target did not (and cannot have) executed the call.
func retryable(code xrl.ErrorCode) bool {
	return code == xrl.CodeResolveFailed || code == xrl.CodeSendFailed
}

// backoff returns the jittered delay before retry number attempt (1 = the
// first retry): exponential from Base, capped at Max, drawn uniformly
// from [d/2, d] so synchronized callers (every client noticing the same
// death) do not retry in lockstep.
func backoff(p RetryPolicy, attempt int) time.Duration {
	d := p.Base
	for i := 1; i < attempt && d < p.Max; i++ {
		d *= 2
	}
	if d > p.Max {
		d = p.Max
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}
