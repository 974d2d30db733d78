package mapping

import (
	"bytes"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"tightcps/internal/sched"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// waitForCoalesced parks the calling test until n callers are blocked on
// the cache's in-flight verification.
func waitForCoalesced(t *testing.T, c *Cache, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, _, coalesced := c.Stats(); coalesced >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("callers never coalesced onto the in-flight verification")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheSingleflight: concurrent misses on one key run the verifier
// once; the rest wait and share the verdict, counted as coalesced.
func TestCacheSingleflight(t *testing.T) {
	a, b := mkProfile("A", 3, 2), mkProfile("B", 5, 1)
	const waiters = 7

	gate := make(chan struct{})
	started := make(chan struct{})
	calls := 0
	vf := func([]*switching.Profile) (bool, error) {
		calls++ // the singleflight guarantees this never runs concurrently
		if calls == 1 {
			close(started)
		}
		<-gate
		return true, nil
	}

	c := NewCache()
	set := []*switching.Profile{a, b}
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		if ok, err := c.Do(set, vf); !ok || err != nil {
			t.Errorf("leader: verdict=%v err=%v", ok, err)
		}
	}()
	<-started // the leader is parked inside vf; everyone else must coalesce

	var wg sync.WaitGroup
	results := make([]bool, waiters)
	errs := make([]error, waiters)
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Do(set, vf)
		}(i)
	}
	waitForCoalesced(t, c, waiters)
	close(gate)
	wg.Wait()
	<-leaderDone

	for i := 0; i < waiters; i++ {
		if !results[i] || errs[i] != nil {
			t.Fatalf("waiter %d: verdict=%v err=%v", i, results[i], errs[i])
		}
	}
	if calls != 1 {
		t.Fatalf("verifier ran %d times under concurrent misses, want 1", calls)
	}
	hits, misses, coalesced := c.Stats()
	if hits != 0 || misses != 1 || coalesced != waiters {
		t.Fatalf("hits=%d misses=%d coalesced=%d, want 0/1/%d", hits, misses, coalesced, waiters)
	}
}

// TestCacheSingleflightError: waiters coalesced onto a failing run receive
// its error, and the failure is not memoized.
func TestCacheSingleflightError(t *testing.T) {
	a := mkProfile("A", 3, 2)
	gate := make(chan struct{})
	started := make(chan struct{})
	vf := func([]*switching.Profile) (bool, error) {
		close(started)
		<-gate
		return false, errTest
	}
	c := NewCache()
	done := make(chan error, 1)
	go func() {
		_, err := c.Do([]*switching.Profile{a}, vf)
		done <- err
	}()
	<-started
	waiterErr := make(chan error, 1)
	go func() {
		_, err := c.Do([]*switching.Profile{a}, vf)
		waiterErr <- err
	}()
	// The waiter must be parked on the in-flight call before it resolves.
	waitForCoalesced(t, c, 1)
	close(gate)
	if err := <-done; !errors.Is(err, errTest) {
		t.Fatalf("leader error = %v", err)
	}
	if err := <-waiterErr; !errors.Is(err, errTest) {
		t.Fatalf("coalesced waiter error = %v", err)
	}
	if c.Len() != 0 {
		t.Fatal("failed verification was memoized")
	}
}

// TestCacheDoPanicDoesNotPoisonKey: a verifier that panics under a caller
// that recovers (a test harness, an HTTP handler) must release its key — the
// coalesced waiter gets an error instead of waiting on a channel nobody will
// close, and the next call runs the verifier again and is cached.
func TestCacheDoPanicDoesNotPoisonKey(t *testing.T) {
	set := []*switching.Profile{mkProfile("A", 3, 2)}
	gate := make(chan struct{})
	started := make(chan struct{})
	c := NewCache()
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Do(set, func([]*switching.Profile) (bool, error) {
			close(started)
			<-gate
			panic("verifier bug")
		})
	}()
	<-started
	waiterErr := make(chan error, 1)
	go func() {
		_, err := c.Do(set, mustNotVerify(t))
		waiterErr <- err
	}()
	waitForCoalesced(t, c, 1)
	close(gate)
	if r := <-recovered; r != "verifier bug" {
		t.Fatalf("leader recovered %v, want the verifier's panic", r)
	}
	select {
	case err := <-waiterErr:
		if err == nil {
			t.Fatal("coalesced waiter got a verdict from a run that panicked")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("coalesced waiter still blocked after the leader panicked")
	}
	if c.Len() != 0 {
		t.Fatal("a panicked run left a verdict")
	}

	calls := 0
	vf := func([]*switching.Profile) (bool, error) { calls++; return true, nil }
	for i := 0; i < 2; i++ {
		if ok, err := c.Do(set, vf); !ok || err != nil {
			t.Fatalf("call %d after the panic: verdict=%v err=%v", i, ok, err)
		}
	}
	if hits, misses, _ := c.Stats(); calls != 1 || hits != 1 || misses != 1 {
		t.Fatalf("after the panic: verifier ran %d times, hits=%d misses=%d; want 1/1/1", calls, hits, misses)
	}
}

// TestCacheSaveLoadRoundTrip: verdicts survive serialization, a warm
// loaded cache answers without running the verifier, and mismatched config
// salts are rejected.
func TestCacheSaveLoadRoundTrip(t *testing.T) {
	a, b, c := mkProfile("A", 3, 2), mkProfile("B", 5, 1), mkProfile("C", 7, 4)
	cfgKey := VerifyConfigKey(verify.Config{NondetTies: true, MaxStates: 1000})
	src := NewCacheFor(cfgKey)
	verdicts := map[string]bool{"ab": true, "abc": false, "c": true}
	sets := map[string][]*switching.Profile{
		"ab": {a, b}, "abc": {a, b, c}, "c": {c},
	}
	for name, ps := range sets {
		want := verdicts[name]
		got, err := src.Do(ps, func([]*switching.Profile) (bool, error) { return want, nil })
		if err != nil || got != want {
			t.Fatalf("seeding %s: %v %v", name, got, err)
		}
	}

	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}

	dst := NewCacheFor(cfgKey)
	if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != 3 {
		t.Fatalf("loaded %d verdicts, want 3", dst.Len())
	}
	for name, ps := range sets {
		got, err := dst.Do(ps, func([]*switching.Profile) (bool, error) {
			t.Fatalf("verifier ran on the warm cache for %s", name)
			return false, nil
		})
		if err != nil || got != verdicts[name] {
			t.Fatalf("warm %s: %v %v", name, got, err)
		}
	}
	if hits, _, _ := dst.Stats(); hits != 3 {
		t.Fatalf("warm cache served %d hits, want 3", hits)
	}

	// A differently-configured cache must refuse the file.
	other := NewCacheFor(VerifyConfigKey(verify.Config{NondetTies: true, MaxStates: 2000}))
	if err := other.Load(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCacheConfig) {
		t.Fatalf("mismatched salt: want ErrCacheConfig, got %v", err)
	}
	if other.Len() != 0 {
		t.Fatal("mismatched load still imported verdicts")
	}

	// Corruption: bad magic and truncation both fail loudly.
	if err := NewCacheFor(cfgKey).Load(bytes.NewReader([]byte("not a cache file at all"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if err := NewCacheFor(cfgKey).Load(bytes.NewReader(buf.Bytes()[:buf.Len()-1])); err == nil {
		t.Fatal("truncated file accepted")
	}
}

// TestCacheFileRoundTrip covers the file convenience wrappers, including
// the missing-file cold start.
func TestCacheFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "warm.bin")
	c := NewCacheFor(7)
	if loaded, err := c.LoadFile(path); err != nil || loaded {
		t.Fatalf("missing file: loaded=%v err=%v", loaded, err)
	}
	a := mkProfile("A", 3, 2)
	if _, err := c.Do([]*switching.Profile{a}, func([]*switching.Profile) (bool, error) { return true, nil }); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	warm := NewCacheFor(7)
	if loaded, err := warm.LoadFile(path); err != nil || !loaded {
		t.Fatalf("loaded=%v err=%v", loaded, err)
	}
	if warm.Len() != 1 {
		t.Fatalf("loaded %d verdicts, want 1", warm.Len())
	}
}

// TestVerifyConfigKey: verdict-relevant knobs change the key, concurrency
// and reduction knobs do not, and extra salts fold in.
func TestVerifyConfigKey(t *testing.T) {
	base := verify.Config{NondetTies: true, MaxStates: 1000}
	key := VerifyConfigKey(base)
	same := []verify.Config{
		{NondetTies: true, MaxStates: 1000, Workers: 8},
		{NondetTies: true, MaxStates: 1000, SymmetryReduction: true},
	}
	for i, cfg := range same {
		if VerifyConfigKey(cfg) != key {
			t.Errorf("verdict-neutral knob %d changed the key", i)
		}
	}
	different := []verify.Config{
		{NondetTies: true, MaxStates: 2000},
		{NondetTies: false, MaxStates: 1000},
		{NondetTies: true, MaxStates: 1000, MaxDisturbances: 2},
		{NondetTies: true, MaxStates: 1000, Policy: sched.PreemptLazy},
	}
	seen := map[uint64]int{key: -1}
	for i, cfg := range different {
		k := VerifyConfigKey(cfg)
		if prev, clash := seen[k]; clash {
			t.Errorf("configs %d and %d share a key", i, prev)
		}
		seen[k] = i
	}
	if VerifyConfigKey(base, 2) == key || VerifyConfigKey(base, 2) == VerifyConfigKey(base, 3) {
		t.Error("extra salts do not separate keys")
	}
}
