package mapping

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"tightcps/internal/sched"
	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// TestCacheDoPanicDoesNotPoisonKey: a verifier that panics under a caller
// that recovers (a test harness, an HTTP handler) stores nothing, and the
// next call runs the verifier again and is cached.
func TestCacheDoPanicDoesNotPoisonKey(t *testing.T) {
	set := []*switching.Profile{mkProfile("A", 3, 2)}
	c := NewCache()
	func() {
		defer func() {
			if r := recover(); r != "verifier bug" {
				t.Fatalf("recovered %v, want the verifier's panic", r)
			}
		}()
		ask(c, set, func([]*switching.Profile) (bool, error) { panic("verifier bug") })
	}()
	if c.Len() != 0 {
		t.Fatal("a panicked run left a verdict")
	}

	calls := 0
	vf := func([]*switching.Profile) (bool, error) { calls++; return true, nil }
	for i := 0; i < 2; i++ {
		if ok, err := ask(c, set, vf); !ok || err != nil {
			t.Fatalf("call %d after the panic: verdict=%v err=%v", i, ok, err)
		}
	}
	if hits, _ := c.Stats(); calls != 1 || hits != 1 {
		t.Fatalf("after the panic: verifier ran %d times, hits=%d; want 1/1", calls, hits)
	}
}

// TestCacheSaveLoadRoundTrip: verdicts survive serialization as bits, a
// warm loaded cache answers without running the verifier, and mismatched
// config salts are rejected.
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
		got, err := ask(src, ps, func([]*switching.Profile) (bool, error) { return want, nil })
		if err != nil || got != want {
			t.Fatalf("seeding %s: %v %v", name, got, err)
		}
	}
	// A full record persists as its bit: Load yields it bit-only.
	full := Record{Depth: 12, RunID: "0123456789abcdef", Violator: 2, ViolatorKey: ProfileKey(c)}
	src.Put(Fingerprint(sets["abc"]), full)

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
		got, err := ask(dst, ps, func([]*switching.Profile) (bool, error) {
			t.Fatalf("verifier ran on the warm cache for %s", name)
			return false, nil
		})
		if err != nil || got != verdicts[name] {
			t.Fatalf("warm %s: %v %v", name, got, err)
		}
	}
	if hits, _ := dst.Stats(); hits != 3 {
		t.Fatalf("warm cache served %d hits, want 3", hits)
	}
	if rec, ok := dst.Get(Fingerprint(sets["abc"])); !ok || rec != (Record{}) {
		t.Fatalf("a loaded record is not bit-only: %+v", rec)
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

// FuzzCacheLoad: Load reads bytes another process left on a disk. Whatever
// they hold, it ends in an error or in verdicts that survive Save → Load
// with the same length and the same record under every key — never a
// panic, and never an allocation sized by a record count it has not read.
func FuzzCacheLoad(f *testing.F) {
	pr26, err := os.ReadFile("testdata/firstfit-pr26.cache")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(pr26)
	f.Add(pr26[:len(pr26)-5])
	badMagic := append([]byte(nil), pr26...)
	badMagic[0] = 'X'
	f.Add(badMagic)
	huge := append([]byte(nil), pr26...)
	binary.LittleEndian.PutUint64(huge[16:24], 1<<62)
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Salt the cache as the file claims, so the body is what gets read.
		var salt uint64
		if len(data) >= 16 {
			salt = binary.LittleEndian.Uint64(data[8:16])
		}
		c := NewCacheFor(salt)
		if err := c.Load(bytes.NewReader(data)); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		again := NewCacheFor(salt)
		if err := again.Load(&buf); err != nil {
			t.Fatalf("a saved cache does not load: %v", err)
		}
		if again.Len() != c.Len() {
			t.Fatalf("round trip holds %d verdicts, loaded %d", again.Len(), c.Len())
		}
		for key, rec := range c.verdicts {
			if got, ok := again.verdicts[key]; !ok || got != rec {
				t.Fatalf("key %#x: round trip holds %+v (present %v), loaded %+v", key, got, ok, rec)
			}
		}
	})
}
