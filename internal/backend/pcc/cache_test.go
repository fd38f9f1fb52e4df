package pcc

import (
	"fmt"
	"testing"

	"qcc/internal/backend"
)

func mkUnit(name string, bytes int) *backend.Unit {
	return &backend.Unit{Name: name, Bytes: bytes, Payload: name}
}

func TestCacheHitMissCounting(t *testing.T) {
	c := NewCache(0) // unbounded
	if _, ok := c.get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.put("a", mkUnit("fa", 10))
	u, ok := c.get("a")
	if !ok || u.Name != "fa" || u.Bytes != 10 || u.Payload.(string) != "fa" {
		t.Fatalf("bad hit: %+v ok=%v", u, ok)
	}
	hits, misses := c.Counters()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

// TestCacheHitReturnsFreshUnit: hits must hand out fresh Unit headers so the
// driver can stamp per-module indices without corrupting the cache.
func TestCacheHitReturnsFreshUnit(t *testing.T) {
	c := NewCache(0)
	c.put("a", mkUnit("fa", 10))
	u1, _ := c.get("a")
	u1.Index = 99
	u2, _ := c.get("a")
	if u2.Index == 99 {
		t.Fatal("cache returned an aliased Unit header")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(100)
	for i := 0; i < 4; i++ {
		c.put(fmt.Sprintf("k%d", i), mkUnit(fmt.Sprintf("f%d", i), 40))
	}
	// Budget 100 with 40-byte units keeps at most 2 entries; the two oldest
	// were evicted.
	if n := c.Len(); n != 2 {
		t.Fatalf("Len=%d, want 2", n)
	}
	if s := c.SizeBytes(); s != 80 {
		t.Fatalf("SizeBytes=%d, want 80", s)
	}
	if _, ok := c.get("k0"); ok {
		t.Fatal("k0 should have been evicted")
	}
	if _, ok := c.get("k3"); !ok {
		t.Fatal("k3 should be resident")
	}
	// Touching k2 makes it most recent, so a new insert evicts nothing
	// before it.
	if _, ok := c.get("k2"); !ok {
		t.Fatal("k2 should be resident")
	}
	c.put("k4", mkUnit("f4", 40))
	if _, ok := c.get("k2"); !ok {
		t.Fatal("recently-used k2 evicted before older entries")
	}
}

// TestCacheKeepsOneOversizedEntry: an entry larger than the whole budget is
// still admitted (Link needs it this compile), but stays the only resident.
func TestCacheKeepsOneOversizedEntry(t *testing.T) {
	c := NewCache(10)
	c.put("big", mkUnit("f", 1000))
	if c.Len() != 1 {
		t.Fatalf("Len=%d, want 1", c.Len())
	}
	c.put("big2", mkUnit("g", 2000))
	if c.Len() != 1 {
		t.Fatalf("Len=%d after second oversized put, want 1", c.Len())
	}
	if _, ok := c.get("big2"); !ok {
		t.Fatal("newest oversized entry should be the survivor")
	}
}

// evictee records that the cache told it it was pushed out.
type evictee struct{ evicted *[]string }

func (e evictee) Evicted() { *e.evicted = append(*e.evicted, "evicted") }

// TestCacheProgramsShareTheLRU: programs and units live in one recency order
// under one budget, their keys never meet, a program is replaced in place
// and told only when the budget evicts it.
func TestCacheProgramsShareTheLRU(t *testing.T) {
	var notices []string
	c := NewCache(100)
	key := []byte("k")
	c.put("k", mkUnit("unit", 30)) // the same bytes as the program key
	c.PutProgram(key, evictee{&notices}, 30)
	if u, ok := c.get("k"); !ok || u.Name != "unit" {
		t.Fatalf("unit under the program's key bytes: %+v %v", u, ok)
	}
	if _, ok := c.GetProgram(key); !ok {
		t.Fatal("program not found")
	}
	if _, ok := c.GetProgram([]byte("nope")); ok {
		t.Fatal("hit on a key never stored")
	}
	if hits, misses := c.Counters(); hits != 1 || misses != 0 {
		t.Errorf("unit counters %d/%d after one unit hit and program lookups, want 1/0", hits, misses)
	}

	c.PutProgram(key, evictee{&notices}, 40) // replaces, no notice
	if c.Len() != 2 || c.SizeBytes() != 70 || len(notices) != 0 {
		t.Fatalf("after replacing: %d entries, %d bytes, notices %v; want 2, 70, none", c.Len(), c.SizeBytes(), notices)
	}

	// The unit is now least recently used: a unit put evicts it first, the
	// next one the program.
	c.put("a", mkUnit("a", 40))
	if _, ok := c.get("k"); ok || len(notices) != 0 {
		t.Fatalf("the older unit should have gone first (notices %v)", notices)
	}
	c.put("b", mkUnit("b", 40))
	if _, ok := c.GetProgram(key); ok || len(notices) != 1 {
		t.Fatalf("the program should have been evicted and told (notices %v)", notices)
	}
	if testing.AllocsPerRun(100, func() { c.GetProgram(key) }) != 0 {
		t.Error("GetProgram allocates")
	}
}
