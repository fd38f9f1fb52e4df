package pcc

import (
	"container/list"
	"sync"

	"qcc/internal/backend"
)

// Cache is the content-addressed code cache. It holds two kinds of entry
// under one byte budget and one least-recently-used order:
//
//   - compiled units, keyed by the canonical fingerprint of (function body,
//     target architecture, back-end variant). They are position-independent
//     payloads, so a hit skips the whole per-function pipeline and goes
//     straight to Link. Charged Unit.Bytes (machine-code size; the IR-side
//     footprint is proportional).
//   - whole programs (GetProgram/PutProgram), opaque to this package: the
//     query path stores what it compiled for a plan shape, linked and loaded,
//     and charges what that retains.
//
// All methods are safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	budget int64
	size   int64
	lru    *list.List // front = most recent; values are *entry
	// units and programs index the one list; the two kinds of key are never
	// compared with each other.
	units    map[string]*list.Element
	programs map[string]*list.Element

	hits   int64
	misses int64
}

type entry struct {
	key     string
	program bool // indexed by c.programs, else by c.units
	value   any  // *cachedUnit, or whatever PutProgram was given
	bytes   int64
}

// cachedUnit stores the shareable parts of a backend.Unit (everything but
// the module-local index).
type cachedUnit struct {
	name    string
	bytes   int
	payload any
}

// NewCache returns a cache that evicts past budgetBytes of cached machine
// code. budgetBytes <= 0 selects an effectively unbounded cache.
func NewCache(budgetBytes int64) *Cache {
	if budgetBytes <= 0 {
		budgetBytes = 1 << 62
	}
	return &Cache{budget: budgetBytes, lru: list.New(),
		units: map[string]*list.Element{}, programs: map[string]*list.Element{}}
}

// get returns the cached unit for key, marking it most recently used.
func (c *Cache) get(key string) (*backend.Unit, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.units[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	u := el.Value.(*entry).value.(*cachedUnit)
	return &backend.Unit{Name: u.name, Bytes: u.bytes, Payload: u.payload}, true
}

// put inserts a unit (a unit already cached under the key stays: equal keys
// mean interchangeable units) and evicts down to the budget.
func (c *Cache) put(key string, u *backend.Unit) {
	if u == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.units[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.insert(false, key, &cachedUnit{name: u.Name, bytes: u.Bytes, payload: u.Payload}, int64(u.Bytes))
}

// GetProgram returns the program stored under key, marking it most recently
// used. The lookup does not allocate.
func (c *Cache) GetProgram(key []byte) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.programs[string(key)]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry).value, true
}

// PutProgram stores program under key, replacing what the key held, charges
// it bytes and evicts down to the budget.
func (c *Cache) PutProgram(key string, program any, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.programs[key]; ok {
		c.remove(el)
	}
	c.insert(true, key, program, bytes)
}

// ChargeProgram sets what program, stored under key, is charged — a program
// may come to retain more than it did when it was stored — and evicts down to
// the budget. It does nothing when key no longer holds program, and does not
// allocate.
func (c *Cache) ChargeProgram(key string, program any, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.programs[key]
	if !ok || el.Value.(*entry).value != program {
		return
	}
	ent := el.Value.(*entry)
	c.size += bytes - ent.bytes
	ent.bytes = bytes
	c.evict()
}

// insert adds an entry as most recently used and evicts the least recently
// used ones until the byte budget holds again (the new entry itself stays).
func (c *Cache) insert(program bool, key string, value any, bytes int64) {
	c.index(program)[key] = c.lru.PushFront(&entry{key: key, program: program, value: value, bytes: bytes})
	c.size += bytes
	c.evict()
}

// evict removes least recently used entries until the byte budget holds
// again or one entry is left, and counts the programs among them.
func (c *Cache) evict() {
	for c.size > c.budget && c.lru.Len() > 1 {
		if c.remove(c.lru.Back()).program {
			globalProgramEvictions.Inc()
		}
	}
}

func (c *Cache) remove(el *list.Element) *entry {
	ent := c.lru.Remove(el).(*entry)
	delete(c.index(ent.program), ent.key)
	c.size -= ent.bytes
	return ent
}

func (c *Cache) index(program bool) map[string]*list.Element {
	if program {
		return c.programs
	}
	return c.units
}

// Len returns the number of cached entries, units and programs.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// SizeBytes returns the bytes the cached entries are charged.
func (c *Cache) SizeBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}

// Counters returns the lifetime hit and miss counts of unit lookups.
func (c *Cache) Counters() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
