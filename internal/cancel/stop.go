package cancel

import (
	"errors"
	"sync/atomic"
)

// ErrStopped is the default cause recorded by Stop.Trigger. The solver
// portfolio uses it to tear down race losers: it means "another strategy
// answered first", not "the query failed".
var ErrStopped = errors.New("cancel: stopped")

// Stop is a manually-triggered cancellation source with first-cause
// semantics: the first Trigger wins and later calls are no-ops. It is
// safe for concurrent use. Racing strategies each derive their Check
// from a private Stop merged with the caller's context Check, so the
// race coordinator can cancel losers without touching the winner or the
// caller's deadline.
type Stop struct {
	cause atomic.Pointer[error]
}

// Trigger stops the computation with the given cause (ErrStopped when
// nil). Only the first call records its cause.
func (s *Stop) Trigger(cause error) {
	if cause == nil {
		cause = ErrStopped
	}
	s.cause.CompareAndSwap(nil, &cause)
}

// Err returns the recorded cause, or nil while the Stop is untriggered.
func (s *Stop) Err() error {
	if p := s.cause.Load(); p != nil {
		return *p
	}
	return nil
}

// Check adapts the Stop into the solver poll-point protocol.
func (s *Stop) Check() Check { return s.Err }

// Merge combines checks into one that reports the first failure among
// them, preserving the nil-means-free convention: nil inputs are
// skipped, and an all-nil merge is itself nil.
func Merge(checks ...Check) Check {
	live := make([]Check, 0, len(checks))
	for _, c := range checks {
		if c != nil {
			live = append(live, c)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func() error {
		for _, c := range live {
			if err := c(); err != nil {
				return err
			}
		}
		return nil
	}
}
