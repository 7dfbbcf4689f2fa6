package cliutil

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Retry is a capped-exponential-backoff policy for transient failures:
// worker→coordinator RPCs in the campaign fabric, and any other call
// that should survive a flaky network or a restarting peer. The zero
// value is usable and retries 8 attempts from a 100ms base up to a 5s
// cap with ±20% jitter.
//
// Jitter is drawn from a private RNG seeded by Seed, so a fixed seed
// produces a fixed delay sequence — tests and reproducible campaign
// runs can pin the exact retry schedule while production callers vary
// Seed (e.g. by worker id) to decorrelate thundering herds.
type Retry struct {
	// Attempts is the maximum number of calls including the first;
	// <= 0 means 8.
	Attempts int

	// Base is the delay after the first failure; <= 0 means 100ms.
	// Each subsequent delay doubles, up to Cap.
	Base time.Duration

	// Cap bounds any single delay; <= 0 means 5s.
	Cap time.Duration

	// Jitter spreads each delay uniformly over ±Jitter fraction of its
	// nominal value. Negative means the default 0.2; 0 disables jitter
	// (set NoJitter for clarity).
	Jitter float64

	// Seed seeds the jitter RNG: the same Seed yields the same delay
	// sequence.
	Seed int64

	// Sleep, when set, replaces the context-aware wait between
	// attempts — the test seam that keeps retry tests off the wall
	// clock. It must return ctx.Err() if the context ends first.
	Sleep func(ctx context.Context, d time.Duration) error
}

// NoJitter is the Jitter value that disables jitter entirely (the
// field's zero value means "default", not "none").
const NoJitter = -1.0

func (r Retry) attempts() int {
	if r.Attempts <= 0 {
		return 8
	}
	return r.Attempts
}

func (r Retry) base() time.Duration {
	if r.Base <= 0 {
		return 100 * time.Millisecond
	}
	return r.Base
}

func (r Retry) cap() time.Duration {
	if r.Cap <= 0 {
		return 5 * time.Second
	}
	return r.Cap
}

func (r Retry) jitter() float64 {
	switch {
	case r.Jitter < 0:
		return 0
	case r.Jitter == 0:
		return 0.2
	default:
		return r.Jitter
	}
}

// Delay returns the backoff before attempt i+2 (i is the zero-based
// index of the attempt that just failed), without jitter: Base<<i
// capped at Cap.
func (r Retry) Delay(i int) time.Duration {
	d := r.base()
	cap := r.cap()
	for ; i > 0 && d < cap; i-- {
		d *= 2
	}
	return min(d, cap)
}

// Do calls op until it succeeds, permanently fails, runs out of
// attempts, or ctx ends. A transient error schedules another attempt
// after the next backoff delay; an error wrapped by Permanent returns
// immediately, unwrapped. Context cancellation wins over any pending
// sleep and returns ctx.Err.
func (r Retry) Do(ctx context.Context, op func() error) error {
	attempts := r.attempts()
	jitter := r.jitter()
	// The jitter source is ~5 KB of state, built on the first failure:
	// most calls succeed at once and never draw from it.
	var rng *rand.Rand
	sleep := r.Sleep
	if sleep == nil {
		sleep = sleepCtx
	}
	var err error
	for i := 0; i < attempts; i++ {
		if e := ctx.Err(); e != nil {
			return e
		}
		if err = op(); err == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		if i == attempts-1 {
			break
		}
		d := r.Delay(i)
		if jitter > 0 {
			if rng == nil {
				rng = rand.New(rand.NewSource(r.Seed))
			}
			// ±jitter, uniformly: factor in [1-jitter, 1+jitter).
			d = time.Duration(float64(d) * (1 + jitter*(2*rng.Float64()-1)))
		}
		if e := sleep(ctx, d); e != nil {
			return e
		}
	}
	return fmt.Errorf("after %d attempts: %w", attempts, err)
}

// sleepCtx waits for d or until ctx ends, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

// Permanent marks err as not worth retrying: Retry.Do returns the
// wrapped error immediately. A nil err stays nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err}
}
