// Package obs is the compile-time observability layer: nested trace spans
// with per-function and per-pass attribution, concurrent-safe counters,
// optional allocation accounting, and exporters (Chrome trace-event JSON for
// Perfetto, Prometheus text exposition, and a stable JSON report schema).
//
// The package is designed around a nil-is-disabled convention: a nil *Tracer
// is the disabled state, every method is nil-safe, and the disabled span
// fast path performs no heap allocation. Call sites therefore never branch
// on an enabled flag; they simply thread the (possibly nil) tracer through.
package obs

import (
	"runtime"
	"sync"
	"time"
)

// Options configures a Tracer.
type Options struct {
	// Allocs enables per-span heap-allocation deltas (bytes and object
	// counts) captured with runtime.ReadMemStats at span begin/end. The
	// deltas are only meaningful for single-goroutine spans and the
	// capture is expensive; reserve it for dedicated tracing runs.
	Allocs bool
}

// Span is one trace span. Dur is zero while the span is open. Spans form a
// tree through Parent indices into the tracer's span slice.
type Span struct {
	Name   string
	Cat    string // category: "phase", "pass", "func", "group", ...
	Parent int32  // index of the enclosing span; -1 for roots
	Depth  int32
	// Tid identifies the logical thread (worker) the span ran on: 0/1 is
	// the main compilation goroutine; spans merged from forked per-worker
	// tracers carry the worker's id (see Adopt). Exporters render it as
	// the Chrome trace thread id.
	Tid   int32
	Start time.Duration // offset from the tracer epoch
	Dur   time.Duration
	// AllocBytes/AllocObjs hold the heap-allocation delta over the span
	// (self plus children) when Options.Allocs is set.
	AllocBytes int64
	AllocObjs  int64
}

// Tracer collects spans and counters for one compilation or tool run.
// Counter and span recording are safe for concurrent use. The open-span
// stack is NOT: it belongs to one goroutine at a time. Ownership is claimed
// by the first Begin on an empty stack and released when the stack empties;
// a Begin or End from a different goroutine while spans are open panics
// (before this check, such misuse silently corrupted parent attribution).
// Concurrent compilation therefore gives each worker its own tracer via
// Fork and merges the span forests with Adopt.
type Tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	spans    []Span
	stack    []int32
	counters map[string]int64
	allocs   bool
	owner    int64 // goroutine id owning the open-span stack; 0 when empty
}

// New creates an enabled tracer. The zero moment of all span timestamps is
// the call to New.
func New(opts Options) *Tracer {
	return &Tracer{
		epoch:    time.Now(),
		counters: map[string]int64{},
		allocs:   opts.Allocs,
	}
}

// Enabled reports whether the tracer records anything (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// ReadAllocs returns the cumulative heap allocation totals of the Go
// runtime (bytes, objects). Deltas of successive calls give the allocation
// volume of the enclosed code on a single-goroutine path.
func ReadAllocs() (bytes, objs int64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.TotalAlloc), int64(ms.Mallocs)
}

// SpanRef is a handle to an open span. The zero value (returned by a nil
// tracer) is inert: End is a no-op and performs no allocation.
type SpanRef struct {
	t  *Tracer
	id int32
}

// Begin opens a span in the default "phase" category.
func (t *Tracer) Begin(name string) SpanRef { return t.BeginCat(name, "phase") }

// BeginCat opens a span named name in category cat, nested under the
// innermost open span. Nil-safe.
func (t *Tracer) BeginCat(name, cat string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	var ab, ao int64
	if t.allocs {
		ab, ao = ReadAllocs()
	}
	t.mu.Lock()
	t.claimStack("Begin")
	id := int32(len(t.spans))
	parent, depth := int32(-1), int32(0)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
		depth = t.spans[parent].Depth + 1
	}
	t.spans = append(t.spans, Span{
		Name: name, Cat: cat, Parent: parent, Depth: depth,
		Start: time.Since(t.epoch), AllocBytes: ab, AllocObjs: ao,
	})
	t.stack = append(t.stack, id)
	t.mu.Unlock()
	flightRec.Record(FlightSpanBegin, name, int64(id))
	return SpanRef{t: t, id: id}
}

// claimStack enforces single-goroutine ownership of the open-span stack.
// Caller holds t.mu; on misuse the lock is released before panicking so a
// recovering caller (e.g. a test) does not deadlock the tracer.
func (t *Tracer) claimStack(op string) {
	g := goid()
	if len(t.stack) == 0 {
		t.owner = g
		return
	}
	if t.owner != g {
		t.mu.Unlock()
		panic("obs: Tracer span " + op + " from goroutine not owning the open-span stack; use Fork/Adopt for concurrent tracing")
	}
}

// goid returns the current goroutine's id, parsed from the runtime stack
// header ("goroutine N [running]:"). Only taken on traced span paths.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// End closes the span. Spans may end out of order (interleaved phases):
// only this span is removed from the open stack, so an outer span ending
// before an inner one does not corrupt attribution of the survivor.
func (s SpanRef) End() {
	t := s.t
	if t == nil {
		return
	}
	var ab, ao int64
	if t.allocs {
		ab, ao = ReadAllocs()
	}
	t.mu.Lock()
	t.claimStack("End")
	sp := &t.spans[s.id]
	sp.Dur = time.Since(t.epoch) - sp.Start
	if t.allocs {
		sp.AllocBytes = ab - sp.AllocBytes
		sp.AllocObjs = ao - sp.AllocObjs
	}
	for i := len(t.stack) - 1; i >= 0; i-- {
		if t.stack[i] == s.id {
			t.stack = append(t.stack[:i], t.stack[i+1:]...)
			break
		}
	}
	if len(t.stack) == 0 {
		t.owner = 0
	}
	name, dur := sp.Name, sp.Dur
	t.mu.Unlock()
	flightRec.Record(FlightSpanEnd, name, dur.Microseconds())
}

// Fork returns a fresh tracer for a worker goroutine that shares this
// tracer's epoch (so span timestamps of parent and children line up) and
// allocation setting but has its own span forest, open stack, and counters.
// Merge it back with Adopt once the worker is done.
func (t *Tracer) Fork() *Tracer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &Tracer{epoch: t.epoch, counters: map[string]int64{}, allocs: t.allocs}
}

// Adopt merges a forked tracer's spans and counters into t. The child's
// root spans are re-parented under t's innermost open span, depths shift
// accordingly, and every adopted span without a thread id is tagged with
// tid (its worker id, for per-thread rendering in Chrome traces). The
// child must be quiescent: no goroutine may still be recording into it.
func (t *Tracer) Adopt(child *Tracer, tid int32) {
	if t == nil || child == nil {
		return
	}
	child.mu.Lock()
	spans := append([]Span(nil), child.spans...)
	counters := make(map[string]int64, len(child.counters))
	for k, v := range child.counters {
		counters[k] = v
	}
	child.mu.Unlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	base := int32(len(t.spans))
	parent, pdepth := int32(-1), int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
		pdepth = t.spans[parent].Depth
	}
	for _, sp := range spans {
		if sp.Parent < 0 {
			sp.Parent = parent
		} else {
			sp.Parent += base
		}
		sp.Depth += pdepth + 1
		if sp.Tid == 0 {
			sp.Tid = tid
		}
		t.spans = append(t.spans, sp)
	}
	for k, v := range counters {
		t.counters[k] += v
	}
}

// Add accumulates delta into the named tracer counter. Nil-safe and safe
// for concurrent use.
func (t *Tracer) Add(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counters[name] += delta
	t.mu.Unlock()
}

// Trace is an immutable snapshot of a tracer, suitable for export. Process
// names the traced entity (typically the engine).
type Trace struct {
	Process  string
	Spans    []Span
	Counters map[string]int64
}

// Snapshot copies the tracer state. Safe on a nil tracer (returns an empty
// trace).
func (t *Tracer) Snapshot(process string) *Trace {
	tr := &Trace{Process: process, Counters: map[string]int64{}}
	if t == nil {
		return tr
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr.Spans = append([]Span(nil), t.spans...)
	for k, v := range t.counters {
		tr.Counters[k] = v
	}
	return tr
}

// TotalByName sums span durations grouped by span name (for flat rollups
// of a snapshot).
func (tr *Trace) TotalByName() map[string]time.Duration {
	out := map[string]time.Duration{}
	for i := range tr.Spans {
		out[tr.Spans[i].Name] += tr.Spans[i].Dur
	}
	return out
}
