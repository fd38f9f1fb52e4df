// Package backend defines the execution-engine interface shared by all
// compilation back-ends (interpreter, DirectEmit, Cranelift-like, LLVM-like,
// GCC/C-like) plus the per-compilation statistics used by the benchmark
// harness to reproduce the paper's compile-time breakdowns.
package backend

import (
	"fmt"
	"time"

	"qcc/internal/mcv"
	"qcc/internal/obs"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// Options toggles optional compilation behavior shared by all back-ends.
type Options struct {
	// Check runs the machine-code verifier (internal/mcv) over the
	// compiled output: the symbolic register-allocation checker, the
	// machine-code lint, and the per-function structural summary used by
	// the cross-backend differential. Verification failures turn into
	// Compile errors; the checker's cost appears as its own "Check.*"
	// phases in Stats.
	Check bool
}

// Env is the compilation environment: the runtime the generated code will
// execute against (string constants are interned into its machine memory at
// compile time, JIT-style) and the target architecture.
type Env struct {
	DB   *rt.DB
	Arch vt.Arch
	// Trace, when non-nil, receives nested compile-time spans and counters
	// from the back-end. Nil (the default) disables tracing with zero
	// overhead beyond the per-phase clock reads Stats always needs.
	Trace *obs.Tracer
	// Options carries optional behavior toggles (verification, ...).
	Options Options
}

// Exec is a compiled query module ready to run.
type Exec interface {
	// Call invokes function fn of the compiled module.
	Call(fn int, args ...uint64) ([2]uint64, error)
}

// ModuleOf returns the vm module behind a compiled query, or nil for
// executables that do not run on the vm dispatch loops (the QIR interpreter,
// the adaptive tier driver). The morsel-parallel executor, the dispatch
// toggles and the profiler all need the module; this is the one accessor.
func ModuleOf(ex Exec) *vm.Module {
	if mh, ok := ex.(interface{ Module() *vm.Module }); ok {
		return mh.Module()
	}
	return nil
}

// FootprintOf returns the bytes of Go heap a compiled query holds, for a cache
// that retains executables to charge: the vm module's account of itself
// (vm.Module.Footprint), or that of an executable without one, which reports
// its own through a Footprint method.
func FootprintOf(ex Exec) int64 {
	if m := ModuleOf(ex); m != nil {
		return m.Footprint()
	}
	if f, ok := ex.(interface{ Footprint() int64 }); ok {
		return f.Footprint()
	}
	return 0
}

// Stats records where one compilation spent its time, in the style of the
// paper's per-phase breakdowns (Figures 2-5, Table I).
type Stats struct {
	// Phases holds per-phase wall-clock durations, accumulated in
	// insertion order.
	Phases []Phase
	// Total is the overall compile wall-clock time.
	Total time.Duration
	// CodeBytes is the emitted machine-code size (0 for the interpreter).
	CodeBytes int
	// Funcs is the number of compiled functions.
	Funcs int
	// Counters holds back-end specific event counts (e.g. FastISel
	// fallbacks by cause).
	Counters map[string]int64
	// AllocBytes/AllocObjs are the Go heap allocation deltas over the
	// whole compilation (captured only when a tracer is attached; 0
	// otherwise).
	AllocBytes int64
	AllocObjs  int64
	// Summaries holds the per-function structural fingerprints produced
	// when Options.Check is set, for cross-backend differential checks.
	Summaries []mcv.FuncSummary
	// Wall is the elapsed wall-clock time of the compilation when it ran
	// on more than one goroutine (set by the parallel driver). Zero for
	// single-threaded compiles, where Total already is wall-clock time.
	Wall time.Duration
}

// WallClock returns the compilation's elapsed wall-clock time: Wall when a
// parallel driver recorded one, otherwise Total (single-threaded compiles
// spend their phases back to back, so the phase sum is the elapsed time).
func (s *Stats) WallClock() time.Duration {
	if s.Wall > 0 {
		return s.Wall
	}
	return s.Total
}

// Phase is one named compile phase.
type Phase struct {
	Name string
	Dur  time.Duration
}

// AddPhase accumulates dur into the named phase.
func (s *Stats) AddPhase(name string, dur time.Duration) {
	for i := range s.Phases {
		if s.Phases[i].Name == name {
			s.Phases[i].Dur += dur
			return
		}
	}
	s.Phases = append(s.Phases, Phase{Name: name, Dur: dur})
}

// Count adds delta to a named counter.
func (s *Stats) Count(name string, delta int64) {
	if s.Counters == nil {
		s.Counters = make(map[string]int64)
	}
	s.Counters[name] += delta
}

// Merge accumulates other into s (for summing per-query stats).
func (s *Stats) Merge(other *Stats) {
	for _, p := range other.Phases {
		s.AddPhase(p.Name, p.Dur)
	}
	s.Total += other.Total
	s.Wall += other.Wall
	s.CodeBytes += other.CodeBytes
	s.Funcs += other.Funcs
	s.AllocBytes += other.AllocBytes
	s.AllocObjs += other.AllocObjs
	s.Summaries = append(s.Summaries, other.Summaries...)
	for k, v := range other.Counters {
		s.Count(k, v)
	}
}

// PhaseDur returns the duration of a named phase (0 if absent).
func (s *Stats) PhaseDur(name string) time.Duration {
	for _, p := range s.Phases {
		if p.Name == name {
			return p.Dur
		}
	}
	return 0
}

// Engine is one compilation back-end.
type Engine interface {
	// Name is the display name used in benchmark tables.
	Name() string
	// Compile lowers a QIR module to executable form. The returned Stats
	// carry the phase breakdown of this compilation.
	Compile(mod *qir.Module, env *Env) (Exec, *Stats, error)
}

// Unit is one function's compiled-but-unlinked output. The payload is
// back-end specific and position independent: intra-function branches are
// already resolved PC-relative, while references to other functions remain
// symbolic (function-index relocations) until Link. Payloads must not be
// mutated after CompileFunc returns — the parallel driver shares them with
// the content-addressed code cache.
type Unit struct {
	// Index is the function's position in qir.Module.Funcs.
	Index int
	// Name is the function name (display and symbol resolution).
	Name string
	// Bytes approximates the payload's machine-code size, used by the
	// code cache's byte budget.
	Bytes int
	// Payload is the back-end specific compilation result consumed by
	// Link. Treat as immutable.
	Payload any
}

// ModuleCompiler compiles the functions of one module independently and
// links the results. Obtained from FuncEngine.BeginModule; one instance is
// tied to one (module, env) pair.
//
// CompileFunc must be safe to call concurrently from multiple goroutines
// with distinct indices, must not mutate shared state (the module, the
// runtime DB, the machine), and must produce deterministic output: the
// bytes of unit i depend only on the module content, the environment, and
// the back-end configuration — never on compilation order or timing.
// Link consumes the units in index order and must produce output
// byte-identical to a sequential CompileUnits run.
type ModuleCompiler interface {
	// Variant returns a stable string identifying the code-generation
	// configuration (back-end name plus every option that can change
	// emitted bytes). Units produced by compilers with equal Variant, for
	// equal target architectures and equal canonical function
	// fingerprints, are interchangeable — the contract behind the
	// content-addressed code cache. An empty string opts this back-end
	// out of caching.
	Variant() string
	// CompileFunc compiles function i into a position-independent unit.
	// Phase time is charged to ph (top-level spans of a fresh per-unit
	// Phaser under the parallel driver; the module Phaser when
	// sequential).
	CompileFunc(i int, ph *Phaser) (*Unit, error)
	// Link resolves inter-function references over the units (one per
	// module function, in index order) and produces the executable.
	Link(units []*Unit, ph *Phaser) (Exec, error)
}

// FuncEngine is an Engine whose compilation pipeline is split per function,
// enabling the parallel driver (internal/backend/pcc) to shard a module
// across worker goroutines. BeginModule performs all shared-state mutation
// up front — interning string constants into the runtime, importing runtime
// helper names into the module — so CompileFunc bodies are pure.
type FuncEngine interface {
	Engine
	BeginModule(mod *qir.Module, env *Env, ph *Phaser) (ModuleCompiler, error)
}

// PreIntern materializes every string constant of the module into the
// runtime's machine memory (in pool order, which is deterministic).
// FuncEngine back-ends call this in BeginModule so that string lookups in
// CompileFunc bodies hit the memoized table and never mutate the machine.
func PreIntern(mod *qir.Module, db *rt.DB) {
	for _, s := range mod.Strings {
		db.InternString(s)
	}
}

// CompileUnits is the sequential compilation driver shared by the
// FuncEngine back-ends: BeginModule, one CompileFunc per function in index
// order (each under a "func:<name>" trace group), then Link. Engine.Compile
// of every FuncEngine delegates here, so the parallel driver at jobs=1 and
// plain Compile run the exact same code path.
func CompileUnits(e FuncEngine, mod *qir.Module, env *Env) (Exec, *Stats, error) {
	stats := &Stats{Funcs: len(mod.Funcs)}
	ph := NewPhaser(stats, env.Trace)
	mc, err := e.BeginModule(mod, env, ph)
	if err != nil {
		return nil, nil, err
	}
	units := make([]*Unit, len(mod.Funcs))
	for i, f := range mod.Funcs {
		fsp := ph.BeginGroup("func:" + f.Name)
		u, err := mc.CompileFunc(i, ph)
		fsp.End()
		if err != nil {
			return nil, nil, err
		}
		units[i] = u
	}
	exec, err := mc.Link(units, ph)
	if err != nil {
		return nil, nil, err
	}
	ph.Finish()
	return exec, stats, nil
}

// Phaser measures compile phases as explicit begin/end spans, so that time
// is attributed correctly where phases nest (ISel calling into the encoder)
// or interleave.
//
// Top-level phase spans accumulate into Stats.Phases; nested phase spans
// appear only in the attached trace, so their time rolls up into the
// enclosing phase exactly once and Stats.Total stays the sum of the
// top-level phases. Group spans (BeginGroup) are trace-only containers —
// e.g. one span per compiled function — and do not affect phase accounting
// at all. A nil *Phaser is safe to call into (used by helpers shared with
// untimed paths).
type Phaser struct {
	s     *Stats
	tr    *obs.Tracer
	depth int
	// allocB/allocO baseline the compile-level allocation delta captured
	// in Finish when a tracer is attached.
	allocB, allocO int64
}

// NewPhaser starts phase measurement writing into s, mirroring spans into
// tr (which may be nil for stats-only operation).
func NewPhaser(s *Stats, tr *obs.Tracer) *Phaser {
	p := &Phaser{s: s, tr: tr}
	if tr.Enabled() {
		p.allocB, p.allocO = obs.ReadAllocs()
	}
	return p
}

// PhaseSpan is one open phase (or group) span. End must be called exactly
// once; the zero value is inert.
type PhaseSpan struct {
	p     *Phaser
	name  string
	start time.Time
	sp    obs.SpanRef
	top   bool
	group bool
}

// Begin opens a phase span. Top-level spans are charged to Stats.Phases on
// End; nested spans are trace-only detail.
func (p *Phaser) Begin(name string) PhaseSpan {
	if p == nil {
		return PhaseSpan{}
	}
	p.depth++
	return PhaseSpan{
		p: p, name: name, top: p.depth == 1,
		start: time.Now(), sp: p.tr.BeginCat(name, "phase"),
	}
}

// BeginGroup opens a trace-only grouping span (e.g. "func:<name>" around a
// function's phases, or "RegAlloc" around its sub-phases). It nests in the
// trace but leaves phase accounting untouched, so sub-phases begun inside
// it still count as top-level phases.
func (p *Phaser) BeginGroup(name string) PhaseSpan {
	if p == nil {
		return PhaseSpan{}
	}
	return PhaseSpan{p: p, group: true, sp: p.tr.BeginCat(name, "group")}
}

// End closes the span, charging top-level phases to Stats.
func (ps PhaseSpan) End() {
	if ps.p == nil {
		return
	}
	if ps.group {
		ps.sp.End()
		return
	}
	ps.p.depth--
	if ps.top {
		ps.p.s.AddPhase(ps.name, time.Since(ps.start))
	}
	ps.sp.End()
}

// Finish completes phase measurement: Stats.Total becomes the sum of the
// recorded phases, and — when a tracer is attached — the compilation's heap
// allocation delta lands in Stats.AllocBytes/AllocObjs.
func (p *Phaser) Finish() {
	if p == nil {
		return
	}
	if p.tr.Enabled() {
		b, o := obs.ReadAllocs()
		p.s.AllocBytes += b - p.allocB
		p.s.AllocObjs += o - p.allocO
	}
	var total time.Duration
	for _, ph := range p.s.Phases {
		total += ph.Dur
	}
	p.s.Total = total
}

// Tracer returns the attached tracer (nil when tracing is off), for
// call sites that want raw spans or counters.
func (p *Phaser) Tracer() *obs.Tracer {
	if p == nil {
		return nil
	}
	return p.tr
}

// Stats returns the stats the phaser charges into (nil for a nil phaser).
func (p *Phaser) Stats() *Stats {
	if p == nil {
		return nil
	}
	return p.s
}

// Count adds delta to a named counter of the phaser's stats. Nil-safe, so
// per-function pipeline code can record event counters through the phaser
// it already threads.
func (p *Phaser) Count(name string, delta int64) {
	if p == nil {
		return
	}
	p.s.Count(name, delta)
}

// ErrUnsupported reports a module using features a back-end cannot compile.
type ErrUnsupported struct {
	Backend string
	Reason  string
}

func (e *ErrUnsupported) Error() string {
	return fmt.Sprintf("%s: unsupported: %s", e.Backend, e.Reason)
}
