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
