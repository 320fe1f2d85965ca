package main

import (
	"context"
	"time"
)

// checkFunc runs check req of item i and returns the verdict; err is an
// infrastructure failure, not a rejected proof.
type checkFunc func(ctx context.Context, req, i int) (valid bool, err error)

// runPhase is a closed loop of one caller: it checks the items of order in
// turn, starting a new check only when its previous one returned, until
// window has passed and it made at least one pass over order. reqs numbers
// the checks. A non-nil after is called after each check, outside its
// timing.
//
// One caller keeps the load within the two cores of the reference machine:
// the caller and the checking process take turns on one core, and the
// collector has the other. With two callers against zcheckd the median
// request of service-direct spread twice as widely over ten runs.
func runPhase(ctx context.Context, c *corpus, order []int, window time.Duration, phase int, check checkFunc, reqs *int, after func(phase, item int)) []sample {
	start := time.Now()
	var out []sample
	for n := 0; ctx.Err() == nil && (n < len(order) || time.Since(start) < window); n++ {
		i := order[n%len(order)]
		*reqs++
		t0 := time.Now()
		valid, err := check(ctx, *reqs, i)
		s := sample{Item: i, MS: ms(time.Since(t0)), Phase: phase}
		if err != nil {
			s.Err = err.Error()
		} else {
			s.Wrong = valid != c.Items[i].Valid
		}
		out = append(out, s)
		if after != nil {
			after(phase, i)
		}
	}
	return out
}

// measure runs the warm-up pass over the distinct items, then the measured
// window; a traced run splits the window into an untraced and a traced
// half, back to back. A non-nil after runs after each check.
func measure(ctx context.Context, c *corpus, window time.Duration, traced bool, plain, withSpans checkFunc, after func(phase, item int)) *measurement {
	reqs := 0
	distinct := make([]int, len(c.Items))
	for i := range distinct {
		distinct[i] = i
	}
	m := &measurement{}
	warm := runPhase(ctx, c, distinct, 0, phaseWarmup, plain, &reqs, after)
	untraced := window
	if traced {
		untraced = window / 2
	}
	meas := runPhase(ctx, c, c.order(), untraced, phaseMeasured, plain, &reqs, after)
	m.Samples = append(warm, meas...)
	if traced {
		tr := runPhase(ctx, c, c.order(), window-untraced, phaseTraced, withSpans, &reqs, after)
		m.Samples = append(m.Samples, tr...)
	}
	return m
}
