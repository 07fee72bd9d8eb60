package server

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"darwin/internal/core"
	"darwin/internal/dna"
	"darwin/internal/shard"
)

// testEntry builds a real (tiny) index entry for cache and batcher
// tests.
func testEntry(t *testing.T, key string, seed int64, n int) *IndexEntry {
	t.Helper()
	ref := dna.Random(rand.New(rand.NewSource(seed)), n, 0.5)
	entry, err := BuildEntry(key, []dna.Record{{Name: "chr1", Seq: ref}}, testCoreConfig(), shard.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	return entry
}

func testCoreConfig() core.Config {
	return core.DefaultConfig(11, 400, 18)
}

func TestIndexCacheSingleflight(t *testing.T) {
	cache := NewIndexCache(4)
	var builds atomic.Int64
	build := func() (*IndexEntry, error) {
		builds.Add(1)
		return testEntry(t, "k", 41, 20000), nil
	}
	const goroutines = 16
	var wg sync.WaitGroup
	entries := make([]*IndexEntry, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, _, err := cache.Get(context.Background(), "k", build)
			if err != nil {
				t.Error(err)
				return
			}
			entries[i] = e
		}(i)
	}
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Errorf("build ran %d times for 16 concurrent Gets, want 1 (singleflight)", got)
	}
	for i := 1; i < goroutines; i++ {
		if entries[i] != entries[0] {
			t.Fatalf("goroutine %d got a different entry instance", i)
		}
	}
}

func TestIndexCacheLRUEviction(t *testing.T) {
	cache := NewIndexCache(2)
	mk := func(key string) func() (*IndexEntry, error) {
		return func() (*IndexEntry, error) { return testEntry(t, key, 43, 20000), nil }
	}
	for _, k := range []string{"a", "b"} {
		if _, hit, err := cache.Get(context.Background(), k, mk(k)); err != nil || hit {
			t.Fatalf("Get(%s) = hit=%v err=%v, want fresh build", k, hit, err)
		}
	}
	// Touch "a" so "b" becomes least recently used, then insert "c".
	if _, hit, err := cache.Get(context.Background(), "a", mk("a")); err != nil || !hit {
		t.Fatalf("Get(a) again = hit=%v err=%v, want cache hit", hit, err)
	}
	if _, hit, err := cache.Get(context.Background(), "c", mk("c")); err != nil || hit {
		t.Fatalf("Get(c) = hit=%v err=%v, want fresh build", hit, err)
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", cache.Len())
	}
	keys := make([]string, 0, 2)
	for _, e := range cache.Entries() {
		keys = append(keys, e.Key)
	}
	if keys[0] != "c" || keys[1] != "a" {
		t.Errorf("resident keys (MRU first) = %v, want [c a] — b should have been evicted", keys)
	}
	// "b" must rebuild.
	var rebuilt bool
	if _, hit, err := cache.Get(context.Background(), "b", func() (*IndexEntry, error) {
		rebuilt = true
		return testEntry(t, "b", 44, 20000), nil
	}); err != nil || hit || !rebuilt {
		t.Errorf("Get(b) after eviction: hit=%v rebuilt=%v err=%v, want rebuild", hit, rebuilt, err)
	}
}

func TestIndexCacheBuildErrorNotCached(t *testing.T) {
	cache := NewIndexCache(2)
	boom := errors.New("boom")
	if _, _, err := cache.Get(context.Background(), "k", func() (*IndexEntry, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("Get with failing build = %v, want boom", err)
	}
	if cache.Len() != 0 {
		t.Fatal("failed build left a cache entry")
	}
	// A later Get retries the build.
	e, hit, err := cache.Get(context.Background(), "k", func() (*IndexEntry, error) { return testEntry(t, "k", 45, 20000), nil })
	if err != nil || hit || e == nil {
		t.Fatalf("retry after failed build: entry=%v hit=%v err=%v", e, hit, err)
	}
}

func TestIndexKeyDistinguishesConfigs(t *testing.T) {
	base := testCoreConfig()
	other := base
	other.SeedK = 12
	keys := map[string]bool{
		IndexKey("ref.fa", base, shard.Config{}):  true,
		IndexKey("ref.fa", other, shard.Config{}): true,
		IndexKey("ref2.fa", base, shard.Config{}): true,
	}
	if len(keys) != 3 {
		t.Errorf("expected 3 distinct keys, got %d", len(keys))
	}
	if IndexKey("ref.fa", base, shard.Config{}) != IndexKey("ref.fa", testCoreConfig(), shard.Config{}) {
		t.Error("identical source+config must produce identical keys")
	}
}

// TestIndexKeyDistinguishesShardGeometry: every sharding knob —
// count/size, overlap, and the residency budget — must produce a
// distinct cache key, or two deployments with different budgets would
// alias to one resident index.
func TestIndexKeyDistinguishesShardGeometry(t *testing.T) {
	base := testCoreConfig()
	variants := []shard.Config{
		{},
		{Shards: 4},
		{Shards: 8},
		{ShardSize: 1 << 20},
		{Shards: 4, Overlap: 4096},
		{Shards: 4, MaxResidentBytes: 64 << 20},
	}
	keys := map[string]bool{}
	for _, v := range variants {
		keys[IndexKey("ref.fa", base, v)] = true
	}
	if len(keys) != len(variants) {
		t.Errorf("expected %d distinct keys, got %d", len(variants), len(keys))
	}
}

// TestBuildEntrySharded checks a sharded entry serves the same
// alignments as a monolithic one and exposes its residency snapshot.
func TestBuildEntrySharded(t *testing.T) {
	ref := dna.Random(rand.New(rand.NewSource(47)), 60000, 0.5)
	recs := []dna.Record{{Name: "chr1", Seq: ref}}
	mono, err := BuildEntry("m", recs, testCoreConfig(), shard.Config{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := BuildEntry("s", recs, testCoreConfig(), shard.Config{Shards: 3, MaxResidentBytes: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if mono.Shards != nil {
		t.Error("monolithic entry reports a shard set")
	}
	if sharded.Shards == nil {
		t.Fatal("sharded entry has no shard set")
	}
	reads := []dna.Seq{ref[1000:3500].Clone(), ref[30000:32500].Clone(), dna.RevComp(ref[45000:47500])}
	want, err := mono.Engine.Map(context.Background(), reads, core.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sharded.Engine.Map(context.Background(), reads, core.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if len(got[i].Alignments) != len(want[i].Alignments) {
			t.Fatalf("read %d: %d alignments sharded vs %d monolithic", i, len(got[i].Alignments), len(want[i].Alignments))
		}
		if !reflect.DeepEqual(got[i].Alignments, want[i].Alignments) {
			t.Fatalf("read %d: alignments differ between engines", i)
		}
	}
	st, detail := sharded.Shards.Snapshot()
	if st.Shards != 3 || st.Resident != 1 || len(detail) != 3 {
		t.Errorf("snapshot = %+v with %d detail rows, want 3 shards / 1 resident", st, len(detail))
	}
	// Clones must share the set (and thus the budget).
	c, err := sharded.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Release(c)
	if c.(*shard.ScatterMapper).Set() != sharded.Shards {
		t.Error("acquired clone does not share the entry's shard set")
	}
}
