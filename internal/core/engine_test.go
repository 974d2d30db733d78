package core

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"tightcps/internal/mapping"
	"tightcps/internal/sched"
)

// TestDimensionDeterministicAcrossWorkers: the engine's fan-out must not
// change the result — a fully serial run (Workers=1) and a wide run
// (Workers=8) return identical allocations, profiles included. Run under
// -race this also exercises the profiling pool, the parallel BFS lanes and the
// admission cache for data races.
func TestDimensionDeterministicAcrossWorkers(t *testing.T) {
	apps := caseApps()
	serial := &Dimensioner{Apps: apps, Opts: Options{Workers: 1}}
	wide := &Dimensioner{Apps: apps, Opts: Options{Workers: 8}}
	a1, err := serial.Dimension()
	if err != nil {
		t.Fatal(err)
	}
	a8, err := wide.Dimension()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a1, a8) {
		t.Fatalf("allocations differ:\nWorkers=1: %+v\nWorkers=8: %+v", a1, a8)
	}
	want := [][]string{{"C1", "C5", "C4", "C3"}, {"C6", "C2"}}
	if got := a8.SlotNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("allocation %v, want %v", got, want)
	}
}

// TestDimensionSharedCacheReuse: a cache supplied via Options survives
// across Dimension calls — the second run answers every admission check
// from the cache.
func TestDimensionSharedCacheReuse(t *testing.T) {
	cache := mapping.NewCache()
	d := &Dimensioner{Apps: caseApps(), Opts: Options{Cache: cache}}
	first, err := d.Dimension()
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheMisses != first.Verifications || first.CacheHits != 0 {
		t.Fatalf("cold run: hits=%d misses=%d verifications=%d",
			first.CacheHits, first.CacheMisses, first.Verifications)
	}
	second, err := d.Dimension()
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheMisses != 0 || second.CacheHits != second.Verifications {
		t.Fatalf("warm run: hits=%d misses=%d verifications=%d",
			second.CacheHits, second.CacheMisses, second.Verifications)
	}
	if !reflect.DeepEqual(first.Slots, second.Slots) {
		t.Fatalf("warm slots %v, cold %v", second.Slots, first.Slots)
	}
}

// TestDimensionRefusesAForeignCache: a cache salted for another admission
// is refused before any work; one salted for this admission is used.
func TestDimensionRefusesAForeignCache(t *testing.T) {
	eager := Options{}.Admission().Salt()
	lazy := &Dimensioner{Apps: caseApps(), Opts: Options{Policy: sched.PreemptLazy, Cache: mapping.NewCacheFor(eager)}}
	if _, err := lazy.Dimension(); !errors.Is(err, mapping.ErrCacheConfig) {
		t.Fatalf("lazy run on the eager store: %v, want ErrCacheConfig", err)
	}
	cache := mapping.NewCacheFor(eager)
	d := &Dimensioner{Apps: caseApps()[:2], Opts: Options{Cache: cache}}
	alloc, err := d.Dimension()
	if err != nil {
		t.Fatal(err)
	}
	if cache.Len() != alloc.CacheMisses || alloc.CacheMisses == 0 {
		t.Fatalf("the salted cache holds %d verdicts after %d misses", cache.Len(), alloc.CacheMisses)
	}
}

// TestForEachAppOrderingAndCancellation: results land in input order for
// any worker count, and an error cancels the remaining work.
func TestForEachAppOrderingAndCancellation(t *testing.T) {
	const n = 64
	for _, workers := range []int{1, 3, 16} {
		out := make([]int, n)
		err := forEachApp(context.Background(), n, workers, func(_ context.Context, i int) error {
			out[i] = i * i
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d", workers, i, v)
			}
		}
	}

	sentinel := errors.New("boom")
	var ran atomic.Int64
	err := forEachApp(context.Background(), n, 4, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 5 {
			return sentinel
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if ran.Load() >= n {
		t.Fatal("error did not cancel remaining work")
	}
}
