package cliutil

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// recordSleep returns a Sleep seam that records every delay and never
// touches the wall clock.
func recordSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return ctx.Err()
	}
}

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	var delays []time.Duration
	calls := 0
	err := Retry{Attempts: 5, Base: time.Millisecond, Jitter: NoJitter, Sleep: recordSleep(&delays)}.
		Do(context.Background(), func() error {
			calls++
			if calls < 3 {
				return errors.New("transient")
			}
			return nil
		})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	want := []time.Duration{time.Millisecond, 2 * time.Millisecond}
	if !reflect.DeepEqual(delays, want) {
		t.Fatalf("delays = %v, want %v", delays, want)
	}
}

func TestRetryBackoffDoublesAndCaps(t *testing.T) {
	r := Retry{Base: 100 * time.Millisecond, Cap: 450 * time.Millisecond}
	want := []time.Duration{100, 200, 400, 450, 450}
	for i, w := range want {
		if got := r.Delay(i); got != w*time.Millisecond {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	var delays []time.Duration
	calls := 0
	base := errors.New("still down")
	err := Retry{Attempts: 3, Jitter: NoJitter, Sleep: recordSleep(&delays)}.
		Do(context.Background(), func() error { calls++; return base })
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if !errors.Is(err, base) {
		t.Fatalf("err = %v, want wrapped %v", err, base)
	}
	if len(delays) != 2 {
		t.Fatalf("slept %d times, want 2 (no sleep after the last attempt)", len(delays))
	}
}

func TestRetryPermanentStopsImmediately(t *testing.T) {
	calls := 0
	base := errors.New("bad request")
	err := Retry{Attempts: 5, Jitter: NoJitter, Sleep: recordSleep(new([]time.Duration))}.
		Do(context.Background(), func() error { calls++; return Permanent(base) })
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	if err != base {
		t.Fatalf("err = %v, want the unwrapped %v", err, base)
	}
	if Permanent(nil) != nil {
		t.Fatal("Permanent(nil) != nil")
	}
}

func TestRetryJitterIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []time.Duration {
		var delays []time.Duration
		_ = Retry{Attempts: 6, Base: time.Second, Seed: seed, Sleep: recordSleep(&delays)}.
			Do(context.Background(), func() error { return errors.New("x") })
		return delays
	}
	a, b, c := run(1), run(1), run(2)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different delays: %v vs %v", a, b)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds, identical delays: %v", a)
	}
	// Default jitter is ±20% of the nominal doubling schedule.
	nominal := Retry{Base: time.Second}
	for i, d := range a {
		n := float64(nominal.Delay(i))
		if f := float64(d); f < 0.8*n || f >= 1.2*n {
			t.Errorf("delay %d = %v outside ±20%% of %v", i, d, nominal.Delay(i))
		}
	}
}

// TestRetryJitterPinned pins the first delays of one seed, so building
// the jitter source later, or differently, cannot move a schedule a
// campaign run has already recorded.
func TestRetryJitterPinned(t *testing.T) {
	var delays []time.Duration
	_ = Retry{Attempts: 4, Base: 100 * time.Millisecond, Seed: 7, Sleep: recordSleep(&delays)}.
		Do(context.Background(), func() error { return errors.New("x") })
	want := []time.Duration{116755686, 178520573, 358622010}
	if !reflect.DeepEqual(delays, want) {
		t.Fatalf("seed 7 delays = %v, want %v", delays, want)
	}
}

// TestRetryFirstTrySuccessAllocatesNothing: a call that succeeds at once
// never draws jitter, so it must not build the jitter source.
func TestRetryFirstTrySuccessAllocatesNothing(t *testing.T) {
	ctx := context.Background()
	r := Retry{Seed: 1}
	op := func() error { return nil }
	if allocs := testing.AllocsPerRun(100, func() {
		if err := r.Do(ctx, op); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("a first-try success allocates %.0f times, want 0", allocs)
	}
}

func TestRetryContextCancellation(t *testing.T) {
	t.Run("mid-sleep", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		err := Retry{Attempts: 5, Sleep: func(ctx context.Context, d time.Duration) error {
			cancel() // the context ends while the retry is waiting
			return ctx.Err()
		}}.Do(ctx, func() error { return errors.New("x") })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		calls := 0
		err := Retry{Sleep: recordSleep(new([]time.Duration))}.Do(ctx, func() error { calls++; return nil })
		if !errors.Is(err, context.Canceled) || calls != 0 {
			t.Fatalf("err = %v, calls = %d; want context.Canceled and 0 calls", err, calls)
		}
	})
}

func TestRetryRealSleepHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- Retry{Attempts: 2, Base: time.Hour}.Do(ctx, func() error { return errors.New("x") })
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Do did not return after cancellation (sleep ignores ctx)")
	}
}

func ExampleRetry_Do() {
	calls := 0
	err := Retry{Attempts: 3, Base: time.Microsecond, Jitter: NoJitter}.
		Do(context.Background(), func() error {
			calls++
			if calls < 2 {
				return fmt.Errorf("connection refused")
			}
			return nil
		})
	fmt.Println(err, calls)
	// Output: <nil> 2
}
