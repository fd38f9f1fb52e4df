package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a process-wide, concurrent-safe event counter. Counters live
// in hot paths (IR slab growth, B-tree inserts), so the increment is a
// single atomic add with no map lookup; the registry is only walked when a
// report is exported.
type Counter struct {
	name string
	v    atomic.Int64
}

// Add accumulates n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Name returns the registered name.
func (c *Counter) Name() string { return c.name }

var (
	regMu    sync.Mutex
	registry []*Counter
)

// NewCounter registers (or retrieves) the process-wide counter with the
// given name. Intended for package-level variables; registration is
// idempotent by name.
func NewCounter(name string) *Counter {
	regMu.Lock()
	defer regMu.Unlock()
	for _, c := range registry {
		if c.name == name {
			return c
		}
	}
	c := &Counter{name: name}
	registry = append(registry, c)
	return c
}

// GlobalCounters snapshots all registered counters with non-zero values,
// keyed by name.
func GlobalCounters() map[string]int64 {
	regMu.Lock()
	defer regMu.Unlock()
	out := map[string]int64{}
	for _, c := range registry {
		if v := c.v.Load(); v != 0 {
			out[c.name] = v
		}
	}
	return out
}

// Vector is a fixed-size set of concurrent counters indexed by a small
// integer id — e.g. per-function call counts feeding tier-promotion
// decisions in the adaptive back-end.
type Vector struct {
	name string
	v    []atomic.Int64
}

// NewVector creates a vector of n counters. Vectors are per-use (sized to
// one module) and are not registered globally.
func NewVector(name string, n int) *Vector {
	return &Vector{name: name, v: make([]atomic.Int64, n)}
}

// Inc increments counter i and returns the new value.
func (v *Vector) Inc(i int) int64 { return v.v[i].Add(1) }

// Add accumulates d into counter i and returns the new value — used for
// weighted signals such as executed-instruction hotness, where one call
// contributes many units.
func (v *Vector) Add(i int, d int64) int64 { return v.v[i].Add(d) }

// Load returns counter i.
func (v *Vector) Load(i int) int64 { return v.v[i].Load() }

// Len returns the number of counters.
func (v *Vector) Len() int { return len(v.v) }

// Name returns the vector's name.
func (v *Vector) Name() string { return v.name }

// Total sums all counters.
func (v *Vector) Total() int64 {
	var t int64
	for i := range v.v {
		t += v.v[i].Load()
	}
	return t
}
