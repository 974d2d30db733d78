package core

// The engine stage model: Dimension is a two-stage pipeline. Stage one fans
// the per-application work (CQLF certification, switching-profile
// computation) out over a bounded worker pool; stage two maps the profiles
// onto slots with admission verdicts memoized through a cache and the
// verifier's own frontier parallelism. Results keep the input application
// order regardless of worker count, and the first per-app error cancels the
// remaining work.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tightcps/internal/control"
	"tightcps/internal/switching"
)

// forEachApp runs fn(i) for every index in [0, n) on a pool of at most
// workers goroutines (0 = GOMAXPROCS). fn writes its result into
// caller-owned, index-addressed slots, so result ordering is deterministic.
// The first error cancels ctx for the remaining work; among the errors that
// do occur, the lowest-index one is returned.
func forEachApp(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				if err := fn(ctx, i); err != nil {
					errs[i] = err
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// profileStage certifies (optionally) and profiles every application
// concurrently, returning profiles — and CQLF results when the stability
// check ran — in application order.
func (d *Dimensioner) profileStage(ctx context.Context) ([]*switching.Profile, []control.CQLFResult, error) {
	n := len(d.Apps)
	profiles := make([]*switching.Profile, n)
	stability := make([]control.CQLFResult, n)
	err := forEachApp(ctx, n, d.Opts.Workers, func(ctx context.Context, i int) error {
		a := d.Apps[i]
		if d.Opts.CheckSwitchingStability {
			res, err := control.SwitchingStable(a.Plant, a.KT, a.KE)
			if err != nil || !res.Found {
				return fmt.Errorf("%w: %s", ErrNotSwitchingStable, a.Name)
			}
			stability[i] = res
		}
		p, err := switching.Compute(plantOf(a), switching.Config{})
		if err != nil {
			return fmt.Errorf("core: profiling %s: %w", a.Name, err)
		}
		profiles[i] = p
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if !d.Opts.CheckSwitchingStability {
		stability = nil
	}
	return profiles, stability, nil
}
