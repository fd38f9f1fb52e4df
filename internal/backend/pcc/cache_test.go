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

// TestCacheProgramsShareTheLRU: programs and units live in one recency order
// under one budget, their keys never meet, a program is replaced in place
// and counted as evicted only when the budget pushes it out.
func TestCacheProgramsShareTheLRU(t *testing.T) {
	c := NewCache(100)
	evicted0 := globalProgramEvictions.Load()
	evictions := func() int64 { return globalProgramEvictions.Load() - evicted0 }
	key := []byte("k")
	c.put("k", mkUnit("unit", 30)) // the same bytes as the program key
	c.PutProgram("k", "program", 30)
	if u, ok := c.get("k"); !ok || u.Name != "unit" {
		t.Fatalf("unit under the program's key bytes: %+v %v", u, ok)
	}
	if v, ok := c.GetProgram(key); !ok || v != "program" {
		t.Fatalf("GetProgram = %v, %v", v, ok)
	}
	if _, ok := c.GetProgram([]byte("nope")); ok {
		t.Fatal("hit on a key never stored")
	}
	if hits, misses := c.Counters(); hits != 1 || misses != 0 {
		t.Errorf("unit counters %d/%d after one unit hit and program lookups, want 1/0", hits, misses)
	}

	c.PutProgram("k", "program 2", 35) // replaces; not an eviction
	if v, _ := c.GetProgram(key); v != "program 2" || c.Len() != 2 || c.SizeBytes() != 65 || evictions() != 0 {
		t.Fatalf("after replacing: %v, %d entries, %d bytes, %d evictions; want program 2, 2, 65, 0",
			v, c.Len(), c.SizeBytes(), evictions())
	}
	// A program that grew is charged again; one that was replaced, or whose
	// key is gone, is not.
	c.ChargeProgram("k", "program 2", 40)
	c.ChargeProgram("k", "program", 1000)
	c.ChargeProgram("nope", "program 2", 1000)
	if c.Len() != 2 || c.SizeBytes() != 70 {
		t.Fatalf("after re-charging: %d entries, %d bytes; want 2, 70", c.Len(), c.SizeBytes())
	}

	// The unit is now least recently used: a unit put evicts it first, the
	// next one the program.
	c.put("a", mkUnit("a", 40))
	if _, ok := c.get("k"); ok || evictions() != 0 {
		t.Fatalf("the older unit should have gone first (%d program evictions)", evictions())
	}
	c.put("b", mkUnit("b", 40))
	if _, ok := c.GetProgram(key); ok || evictions() != 1 {
		t.Fatalf("the program should have been evicted and counted (%d program evictions)", evictions())
	}
	// Growth evicts like an insert does, the least recently used first.
	c.PutProgram("k", "program", 10)
	c.get("a")
	c.ChargeProgram("k", "program", 50)
	if _, ok := c.get("b"); ok || c.SizeBytes() != 90 || evictions() != 1 {
		t.Fatalf("after growth: %d bytes, %d program evictions; want unit b gone, 90, 1", c.SizeBytes(), evictions())
	}
	if testing.AllocsPerRun(100, func() { c.GetProgram(key) }) != 0 {
		t.Error("GetProgram allocates")
	}
}
