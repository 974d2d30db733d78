package mapping

// Sharded cache persistence: the admission service checkpoints its
// verdict map incrementally, so the shard layout (root/cfg-<salt>/
// admit-XX.shard) must partition by fingerprint prefix, round-trip
// losslessly, refuse mismatched config salts, and — the point — rewrite
// only dirty shards.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tightcps/internal/switching"
)

// shardProfiles builds a distinct single-profile set per index; distinct
// R values give distinct fingerprints.
func shardProfiles(i int) []*switching.Profile {
	return []*switching.Profile{{
		Name: fmt.Sprintf("P%d", i), TwStar: 4, R: 20 + i, Granularity: 1,
		TdwMinus: []int{2, 2, 2, 2, 2}, TdwPlus: []int{4, 4, 4, 4, 4},
	}}
}

// fill answers n distinct admission questions through the cache, with a
// deterministic verdict per index.
func fill(t *testing.T, c *Cache, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		verdict := i%3 == 0
		ok, err := ask(c, shardProfiles(i), func([]*switching.Profile) (bool, error) { return verdict, nil })
		if err != nil || ok != verdict {
			t.Fatalf("fill %d: got (%v, %v)", i, ok, err)
		}
	}
}

func TestCacheShardRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c := NewCacheFor(0xfeed)
	fill(t, c, 0, 200)

	written, err := c.SaveDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if written == 0 {
		t.Fatal("no shard files written for 200 verdicts")
	}
	// The layout verifyd -cachedir has always written: a root written by an
	// older build warm-starts this one.
	if matches, _ := filepath.Glob(filepath.Join(dir, "cfg-000000000000feed", "admit-*.shard")); len(matches) != written {
		t.Fatalf("%d shard files under cfg-000000000000feed/, wrote %d", len(matches), written)
	}

	warm := NewCacheFor(0xfeed)
	loaded, err := warm.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != written {
		t.Fatalf("loaded %d shard files, saved %d", loaded, written)
	}
	if warm.Len() != c.Len() {
		t.Fatalf("round trip lost verdicts: %d, want %d", warm.Len(), c.Len())
	}
	// Every question must now hit — the fallback must never run.
	for i := 0; i < 200; i++ {
		want := i%3 == 0
		ok, err := ask(warm, shardProfiles(i), func([]*switching.Profile) (bool, error) {
			t.Fatalf("question %d missed a warm cache", i)
			return false, nil
		})
		if err != nil || ok != want {
			t.Fatalf("warm verdict %d: got (%v, %v), want %v", i, ok, err, want)
		}
	}
	// Loaded verdicts are already on disk: nothing to rewrite.
	if n, err := warm.SaveDir(dir); err != nil || n != 0 {
		t.Fatalf("shard-loaded verdicts were dirty: wrote %d shards (err %v), want 0", n, err)
	}
}

// TestCacheShardIncrementalCheckpoint is the hot-service property: a
// checkpoint after no new verdicts writes nothing, and a checkpoint after
// one new verdict rewrites exactly the shard that verdict landed in.
func TestCacheShardIncrementalCheckpoint(t *testing.T) {
	dir := t.TempDir()
	c := NewCacheFor(0xfeed)
	fill(t, c, 0, 200)
	if _, err := c.SaveDir(dir); err != nil {
		t.Fatal(err)
	}

	if n, err := c.SaveDir(dir); err != nil || n != 0 {
		t.Fatalf("clean checkpoint wrote %d shards (err %v), want 0", n, err)
	}

	fill(t, c, 200, 201)
	n, err := c.SaveDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("one fresh verdict rewrote %d shards, want exactly 1", n)
	}
	if n, err = c.SaveDir(dir); err != nil || n != 0 {
		t.Fatalf("checkpoint after checkpoint wrote %d shards (err %v), want 0", n, err)
	}
}

// TestCacheShardPrefixPartition opens each shard file raw and checks that
// every key in it carries the shard's fingerprint prefix.
func TestCacheShardPrefixPartition(t *testing.T) {
	dir := t.TempDir()
	c := NewCacheFor(0xfeed)
	fill(t, c, 0, 300)
	if _, err := c.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for s := 0; s < SaveShards; s++ {
		raw, err := os.ReadFile(shardPath(c.dir(dir), s))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		count := binary.LittleEndian.Uint64(raw[16:24])
		for i := uint64(0); i < count; i++ {
			key := binary.LittleEndian.Uint64(raw[24+9*i:])
			if shardOf(key) != s {
				t.Fatalf("shard %02x holds key %#x (prefix %02x)", s, key, shardOf(key))
			}
			seen++
		}
	}
	if seen != c.Len() {
		t.Fatalf("shard files hold %d entries, cache %d", seen, c.Len())
	}
}

// TestCacheShardConfigMismatch: caches of two verification configs share a
// root, each in its own cfg-<salt> directory, and a shard whose salt does
// not match its directory's name (a copied or renamed directory) is refused.
func TestCacheShardConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	c := NewCacheFor(0xfeed)
	fill(t, c, 0, 50)
	if _, err := c.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	other := NewCacheFor(0xbeef)
	if n, err := other.LoadDir(dir); n != 0 || err != nil {
		t.Fatalf("another config's directory: got (%d, %v), want a cold start", n, err)
	}
	if err := os.Rename(c.dir(dir), other.dir(dir)); err != nil {
		t.Fatal(err)
	}
	if _, err := other.LoadDir(dir); !errors.Is(err, ErrCacheConfig) {
		t.Fatalf("mismatched salt load: got %v, want ErrCacheConfig", err)
	}
	if other.Len() != 0 {
		t.Fatal("mismatched load still imported verdicts")
	}
}

// TestCacheShardColdStart: a missing directory is a cold start, not an
// error.
func TestCacheShardColdStart(t *testing.T) {
	c := NewCacheFor(1)
	if n, err := c.LoadDir(t.TempDir() + "/nonexistent"); err != nil || n != 0 {
		t.Fatalf("cold start: got (%d, %v), want (0, nil)", n, err)
	}
}

// TestCacheShardCorruptSkipped: one unreadable shard must not cost the
// warm start — the healthy shards load, the error names the bad one, and
// the lost verdicts are simply re-earned through the fallback.
func TestCacheShardCorruptSkipped(t *testing.T) {
	dir := t.TempDir()
	c := NewCacheFor(0xfeed)
	fill(t, c, 0, 200)
	written, err := c.SaveDir(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Scribble over the first shard file present.
	corrupted := -1
	for s := 0; s < SaveShards; s++ {
		path := shardPath(c.dir(dir), s)
		if _, err := os.Stat(path); err == nil {
			if err := os.WriteFile(path, []byte("not a cache shard"), 0o644); err != nil {
				t.Fatal(err)
			}
			corrupted = s
			break
		}
	}
	if corrupted < 0 {
		t.Fatal("no shard files written")
	}

	warm := NewCacheFor(0xfeed)
	loaded, err := warm.LoadDir(dir)
	if err == nil {
		t.Fatal("corrupt shard load reported no error")
	}
	if want := fmt.Sprintf("shard %02x", corrupted); !strings.Contains(err.Error(), want) {
		t.Fatalf("error does not name the bad shard: %v", err)
	}
	if loaded != written-1 {
		t.Fatalf("loaded %d healthy shards, want %d", loaded, written-1)
	}
	if warm.Len() >= c.Len() || warm.Len() == 0 {
		t.Fatalf("partial load holds %d verdicts (full cache %d)", warm.Len(), c.Len())
	}

	// Correctness: every question still answers — hits from the healthy
	// shards, the corrupted shard's keys re-verified through the fallback.
	reverified := 0
	for i := 0; i < 200; i++ {
		want := i%3 == 0
		ok, err := ask(warm, shardProfiles(i), func([]*switching.Profile) (bool, error) {
			reverified++
			return want, nil
		})
		if err != nil || ok != want {
			t.Fatalf("verdict %d after partial load: got (%v, %v), want %v", i, ok, err, want)
		}
	}
	if reverified == 0 {
		t.Fatal("corrupted shard lost no verdicts, so the test corrupted nothing")
	}
	if warm.Len() != c.Len() {
		t.Fatalf("after re-verification the cache holds %d verdicts, want %d", warm.Len(), c.Len())
	}
}
