package mapping

// Admission memoization: slot-sharing verification is by far the most
// expensive step of dimensioning, and both the first-fit heuristic and the
// exact DP partitioner — let alone repeated experiment sweeps and the
// admission service's repeat submits — keep asking the verifier about
// profile sets they have asked about before. The cache keys each admission
// question by a canonical, order-independent fingerprint of the profile
// set, salted with a fingerprint of the verification configuration, so any
// permutation of the same profiles (and any recomputation of identical
// profiles) reuses the stored verdict while runs that verify differently
// never cross-contaminate.
//
// The cache is the one verdict store: the mappers keep the bit in it, the
// admission service keeps the full verdict of its searches (Record). Save
// and Load move the bits through a versioned, length-prefixed binary
// format, and SaveDir/LoadDir shard them under one directory layout, so
// repeated CLI invocations, CI sweeps and restarted services start warm.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"sync"

	"tightcps/internal/switching"
	"tightcps/internal/verify"
)

// mix64 is the splitmix64 finalizer, used to scatter fingerprint words.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ProfileKey hashes the admission-relevant content of one profile: timing
// parameters and the full T*w/Tdw tables. The name is deliberately
// excluded — admission verdicts depend only on profile content, so fleet
// instances of one design (identical tables, distinct names) share cache
// entries. A fleet's k-th admission check then hits the verdict computed
// for the first k instances regardless of which instances fill the slot,
// which collapses the dimensioning of large synthetic workloads from
// O(instances × slots) verifications to one per distinct slot shape.
// Fingerprint combines these keys, so they must not change.
func ProfileKey(p *switching.Profile) uint64 {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	word := func(v int) {
		h = mix64(h ^ uint64(int64(v))*0x9e3779b97f4a7c15)
	}
	word(p.R)
	word(p.JStar)
	word(p.TwStar)
	word(p.Granularity)
	word(len(p.TdwMinus))
	for _, v := range p.TdwMinus {
		word(v)
	}
	word(len(p.TdwPlus))
	for _, v := range p.TdwPlus {
		word(v)
	}
	return h
}

// setKey is the commutative part of a profile-set fingerprint: what the set's
// per-profile hashes add up to before the final scatter. Adding a profile is
// O(1), so a caller that grows sets one profile at a time (first-fit's
// slots, the DP partitioner's masks) keeps a running key per set instead of
// re-hashing every dwell table for every question it asks.
type setKey struct{ sum, xor, n uint64 }

// with returns the key of the set plus one profile whose hash is h.
func (k setKey) with(h uint64) setKey {
	return setKey{k.sum + h, k.xor ^ bits.RotateLeft64(h, 17), k.n + 1}
}

// fingerprint scatters the accumulated key into the set's fingerprint.
func (k setKey) fingerprint() uint64 {
	return mix64(k.sum ^ bits.RotateLeft64(k.xor, 32) ^ k.n*0x9e3779b97f4a7c15)
}

// profileHashes returns ProfileKey of every profile, in order.
func profileHashes(profiles []*switching.Profile) []uint64 {
	h := make([]uint64, len(profiles))
	for i, p := range profiles {
		h[i] = ProfileKey(p)
	}
	return h
}

// Fingerprint returns a canonical fingerprint of a profile set: per-profile
// hashes combined commutatively (sum and rotated xor), so every permutation
// of the same profiles yields the same key while sets differing in any
// profile's tables or timing parameters yield different keys (modulo 64-bit
// collisions). Names do not participate: sets that differ only in which
// fleet instances of a design they contain share one key. Persisted cache
// files and SaveDir's shard prefixes hold values of this function, so it
// must not change.
func Fingerprint(profiles []*switching.Profile) uint64 {
	var k setKey
	for _, p := range profiles {
		k = k.with(ProfileKey(p))
	}
	return k.fingerprint()
}

// VerifyConfigKey fingerprints the verdict-relevant fields of a
// verification config — policy, tie exploration and the state budget —
// plus any extra salts the caller folds in (a budgeted store's marker, the
// service's symmetry salt).
// Workers, SymmetryReduction and Distributed do not change an exact verdict
// and are excluded, so warm caches carry across those knobs. A
// conservative reject of a busted budget is not a verdict: Admission.Salt
// folds a marker into the key of a store that can hold them.
func VerifyConfigKey(cfg verify.Config, extra ...uint64) uint64 {
	h := uint64(0x5107ad3415510c4e) // arbitrary nonzero seed
	word := func(v uint64) {
		h = mix64(h ^ v*0x9e3779b97f4a7c15)
	}
	word(0) // where the removed disturbance bound was: persisted keys stay put
	word(uint64(cfg.Policy))
	if cfg.NondetTies {
		word(1)
	} else {
		word(2)
	}
	word(uint64(cfg.MaxStates))
	for _, e := range extra {
		word(e)
	}
	return h
}

// Record is one stored admission verdict. The mappers, and Load, store the
// bit alone; a verdict the admission service's search produced also carries
// that search's statistics, its run ID and its violator. RunID is empty on
// a bit-only record, and only the bit is persisted.
type Record struct {
	Schedulable bool
	// States, Transitions and Depth are the search's counts.
	States, Transitions, Depth int
	// RunID is the telemetry run ID of the search.
	RunID string
	// On a search's record, Violator is the minimal violator's position in
	// the set as the search was handed it (-1 when schedulable), and
	// ViolatorKey its ProfileKey: a permutation of the set holds the same
	// profile somewhere else.
	Violator    int
	ViolatorKey uint64
}

// Cache memoizes admission verdicts across FirstFitCached attempts, the DP
// partitioner's subset enumeration, repeated dimensioning runs and the
// admission service's submits. It is safe for concurrent use. Callers ask
// with Get and, on a miss, verify and Put; verification errors are never
// stored. A nil *Cache stores nothing and answers every Get with a miss.
//
// Keys cover the profile set and the config salt the cache was built with
// (NewCacheFor); the zero salt of NewCache means "unspecified config" and
// must not be mixed with differently-configured runs.
type Cache struct {
	mu       sync.Mutex
	cfgKey   uint64
	verdicts map[uint64]Record

	// dirty marks the fingerprint-prefix shards whose verdicts changed
	// since the last SaveDir, so a hot service checkpoints incrementally:
	// only the shard files behind new verdicts are rewritten.
	dirty [SaveShards]bool

	hits, misses int
}

// NewCache returns an empty admission cache with no config salt.
func NewCache() *Cache { return NewCacheFor(0) }

// NewCacheFor returns an empty admission cache whose keys are salted with
// cfgKey (see VerifyConfigKey), making serialized caches safe across runs:
// a cache file produced under one verification config never answers for
// another.
func NewCacheFor(cfgKey uint64) *Cache {
	return &Cache{cfgKey: cfgKey, verdicts: map[uint64]Record{}}
}

// key salts a set fingerprint with the cache's config.
func (c *Cache) key(fingerprint uint64) uint64 {
	if c.cfgKey == 0 {
		return fingerprint
	}
	return mix64(fingerprint ^ c.cfgKey)
}

// Get returns the record stored for the profile set whose Fingerprint is
// fingerprint, counting the lookup as a hit or a miss.
func (c *Cache) Get(fingerprint uint64) (Record, bool) {
	if c == nil {
		return Record{}, false
	}
	key := c.key(fingerprint)
	c.mu.Lock()
	rec, ok := c.verdicts[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	c.mu.Unlock()
	return rec, ok
}

// Put stores rec for the profile set whose Fingerprint is fingerprint,
// replacing any record there.
func (c *Cache) Put(fingerprint uint64, rec Record) {
	if c == nil {
		return
	}
	key := c.key(fingerprint)
	c.mu.Lock()
	c.verdicts[key] = rec
	c.dirty[shardOf(key)] = true
	c.mu.Unlock()
}

// do answers one question of a mapper: Get, else vf, whose verdict is then
// Put. The lookup is Get's written out, so a hit — the warm mappers' whole
// cost per check — is one lock and one map lookup with no call and no
// record copied out (through Get, BenchmarkMappingWarm read 55 against
// 40 ns per check on a 2-vCPU x86-64 host). The profile list is
// materialised only on a miss, for the verifier.
func (c *Cache) do(fingerprint uint64, materialise func() []*switching.Profile, vf VerifyFunc) (bool, error) {
	if c != nil {
		key := c.key(fingerprint)
		c.mu.Lock()
		rec, ok := c.verdicts[key]
		if ok {
			c.hits++
		} else {
			c.misses++
		}
		c.mu.Unlock()
		if ok {
			return rec.Schedulable, nil
		}
	}
	ok, err := vf(materialise())
	if err != nil {
		return false, err
	}
	c.Put(fingerprint, Record{Schedulable: ok})
	return ok, nil
}

// Stats returns the cumulative hit and miss counts of the cache's lookups.
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of cached verdicts.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.verdicts)
}

// Serialization format (little-endian throughout):
//
//	magic   [8]byte  "TCPSADM\x01"   (format version in the last byte)
//	cfgKey  uint64   config salt the cache was built with
//	count   uint64   length prefix of the entry block
//	entry   count × { key uint64, verdict uint8 }
var cacheMagic = [8]byte{'T', 'C', 'P', 'S', 'A', 'D', 'M', 1}

// ErrCacheConfig is returned by Load when the file was produced under a
// different verification config (mismatched salt): its verdicts would be
// unsound to reuse, so none are loaded. Admission.CheckCache returns it for
// a cache salted for another admission.
var ErrCacheConfig = errors.New("mapping: cache file was produced under a different verification config")

// Save writes every cached verdict's bit to w in the versioned binary
// format. Search statistics and hit/miss counts are not persisted.
func (c *Cache) Save(w io.Writer) error { return c.save(w, -1) }

// save writes the verdicts of one fingerprint-prefix shard (or all of
// them, shard < 0) to w.
func (c *Cache) save(w io.Writer, shard int) error {
	c.mu.Lock()
	cfgKey := c.cfgKey
	entries := make([]uint64, 0, 2*len(c.verdicts))
	for k, rec := range c.verdicts {
		if shard >= 0 && shardOf(k) != shard {
			continue
		}
		v := uint64(0)
		if rec.Schedulable {
			v = 1
		}
		entries = append(entries, k, v)
	}
	c.mu.Unlock()

	buf := make([]byte, 0, 24+9*len(entries)/2)
	buf = append(buf, cacheMagic[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, cfgKey)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(entries)/2))
	for i := 0; i < len(entries); i += 2 {
		buf = binary.LittleEndian.AppendUint64(buf, entries[i])
		buf = append(buf, byte(entries[i+1]))
	}
	_, err := w.Write(buf)
	return err
}

// Load merges the verdicts serialized in r into the cache as bit-only
// records. The file's config salt must match the cache's (ErrCacheConfig
// otherwise); existing entries win over file entries with the same key, so
// loading after a few fresh verifications never regresses them. Loaded
// entries are clean: they are already on disk.
func (c *Cache) Load(r io.Reader) error {
	var header [24]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return fmt.Errorf("mapping: reading cache header: %w", err)
	}
	if [8]byte(header[:8]) != cacheMagic {
		return fmt.Errorf("mapping: not an admission cache file (bad magic %q)", header[:8])
	}
	cfgKey := binary.LittleEndian.Uint64(header[8:16])
	count := binary.LittleEndian.Uint64(header[16:24])
	if cfgKey != c.cfgKey {
		return fmt.Errorf("%w: file salt %#x, cache salt %#x", ErrCacheConfig, cfgKey, c.cfgKey)
	}
	// The count is untrusted until the records behind it materialize: read
	// in fixed-size chunks so a corrupt header fails with a read error
	// instead of a giant up-front allocation.
	const chunkRecords = 4096
	var body [9 * chunkRecords]byte
	c.mu.Lock()
	defer c.mu.Unlock()
	for read := uint64(0); read < count; {
		n := count - read
		if n > chunkRecords {
			n = chunkRecords
		}
		chunk := body[:9*n]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return fmt.Errorf("mapping: reading cache entries %d..%d of %d: %w", read, read+n, count, err)
		}
		for i := uint64(0); i < n; i++ {
			rec := chunk[9*i:]
			key := binary.LittleEndian.Uint64(rec)
			if _, exists := c.verdicts[key]; !exists {
				c.verdicts[key] = Record{Schedulable: rec[8] != 0}
			}
		}
		read += n
	}
	return nil
}

// Sharded persistence: a long-running admission service cannot afford to
// rewrite one monolithic cache file on every checkpoint, so SaveDir
// partitions the verdict map into SaveShards files by fingerprint prefix
// (the top bits of the salted key) and rewrites only the shards dirtied
// since the previous checkpoint. Each shard file is a complete,
// independently-loadable cache file in the versioned format above. Caches
// of different configs share one root, one subdirectory per salt:
//
//	root/cfg-<salt as 16 hex digits>/admit-<shard as 2 hex digits>.shard

// SaveShards is the fingerprint-prefix fan-out of SaveDir: keys land in
// shard key>>60, so one shard holds ~1/16 of the verdicts and a checkpoint
// after a handful of fresh admissions rewrites a few small files instead
// of the whole cache.
const SaveShards = 16

func shardOf(key uint64) int { return int(key >> 60) }

// dir is the cache's own directory under root.
func (c *Cache) dir(root string) string {
	return filepath.Join(root, fmt.Sprintf("cfg-%016x", c.cfgKey))
}

// shardPath names shard files so LoadDir can enumerate them without
// globbing: admit-00.shard .. admit-0f.shard.
func shardPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("admit-%02x.shard", shard))
}

// SaveDir checkpoints the cache under root (created if missing), rewriting
// only the shards with verdicts added since the last SaveDir. Each shard
// file is written atomically via a sibling temp file. It returns how many
// shard files were rewritten — 0 means the checkpoint was free.
func (c *Cache) SaveDir(root string) (written int, err error) {
	c.mu.Lock()
	var todo []int
	for s, d := range c.dirty {
		if d {
			todo = append(todo, s)
			c.dirty[s] = false
		}
	}
	c.mu.Unlock()
	if len(todo) == 0 {
		return 0, nil
	}
	dir := c.dir(root)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		c.remarkDirty(todo)
		return 0, err
	}
	for _, s := range todo {
		if err := c.saveShardFile(dir, s); err != nil {
			c.remarkDirty(todo[written:])
			return written, err
		}
		written++
	}
	return written, nil
}

// remarkDirty restores dirty flags after a failed checkpoint so the next
// SaveDir retries the unwritten shards.
func (c *Cache) remarkDirty(shards []int) {
	c.mu.Lock()
	for _, s := range shards {
		c.dirty[s] = true
	}
	c.mu.Unlock()
}

func (c *Cache) saveShardFile(dir string, shard int) error {
	path := shardPath(dir, shard)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := c.save(f, shard); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadDir merges every shard file of the cache's config under root into
// the cache, returning how many files were read. A missing directory (or
// one with no shard files) is the cold-start case and reports 0 without
// error. A corrupt or config-mismatched shard does not abort the load: the
// healthy shards still warm-start the service — losing one shard's
// verdicts only costs re-verification, never correctness — and the joined
// error names every bad shard so the operator sees the damage. A corrupt
// shard file is left in place until its entries are re-earned and
// re-saved.
func (c *Cache) LoadDir(root string) (loaded int, err error) {
	dir := c.dir(root)
	var bad []error
	for s := 0; s < SaveShards; s++ {
		f, ferr := os.Open(shardPath(dir, s))
		if errors.Is(ferr, os.ErrNotExist) {
			continue
		}
		if ferr != nil {
			bad = append(bad, ferr)
			continue
		}
		ferr = c.Load(f)
		f.Close()
		if ferr != nil {
			bad = append(bad, fmt.Errorf("mapping: cache shard %02x: %w", s, ferr))
			continue
		}
		loaded++
	}
	return loaded, errors.Join(bad...)
}
