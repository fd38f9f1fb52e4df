package codegen

import (
	"time"

	"qcc/internal/obs"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/sa"
)

// CheckElimVersion tags the check-elimination pass for code-cache keying:
// the unchecked marks live in instruction Aux bits (hashed by unit keys
// already), and this version string lets cache consumers invalidate entries
// when the pass semantics themselves change. Bump on any change to the facts
// derivation or the safety proofs.
const CheckElimVersion = "sace2"

var (
	obsMemOps      = obs.NewCounter("sa.mem_ops")
	obsChecksElim  = obs.NewCounter("sa.checks_eliminated")
	obsLintFinds   = obs.NewCounter("sa.lint_findings")
	obsAnalysisNs  = obs.NewCounter("sa.analysis_ns")
	obsElimModules = obs.NewCounter("sa.modules_analyzed")
	// obsFuncsAnalyzed counts analyses executed; a compile runs one per
	// generated function unless a literal kept inline or a full constant pool
	// forces a second.
	obsFuncsAnalyzed = obs.NewCounter("sa.functions_analyzed")
)

// ElimStats summarizes the static check-elimination pass over one module.
type ElimStats struct {
	// Enabled records whether the pass ran at all.
	Enabled bool
	// MemOps is the number of loads and stores in the module.
	MemOps int
	// Unchecked is how many of them were proven safe and marked.
	Unchecked int
	// ByReason counts eliminations per proof kind
	// (region/absolute/redundant).
	ByReason map[string]int
	// Findings holds the lint diagnostics the analysis produced as a side
	// effect; generated code is expected to produce none.
	Findings []sa.Finding
	// AnalysisNs is wall time of the pass from its first analysis to its
	// last mark: every analysis run, the literal rewrites between them and
	// marking.
	AnalysisNs int64
}

// MaxLive returns the maximum register pressure over all functions: the
// most SSA values live at once (qir.Func.MaxLiveValues). It is a property of
// the final instruction order, so read it after Finish, when the pool loads
// have moved to the entry blocks. Computed on demand: no compile needs it.
func (c *Compiled) MaxLive() int {
	n := 0
	for _, f := range c.Module.Funcs {
		n = max(n, f.MaxLiveValues(f.LivenessAnalysis()))
	}
	return n
}

// Ratio returns the eliminated fraction of static memory checks.
func (s ElimStats) Ratio() float64 {
	if s.MemOps == 0 {
		return 0
	}
	return float64(s.Unchecked) / float64(s.MemOps)
}

// Regions collects the absolute valid regions the catalog guarantees for the
// whole query: every column array of every loaded table. The analysis reads
// them as a set; their order is the catalog map's.
func Regions(cat *rt.Catalog) []sa.Region {
	if cat == nil {
		return nil
	}
	var regs []sa.Region
	for _, t := range cat.Tables {
		for i := range t.Cols {
			col := &t.Cols[i]
			size := t.Rows * col.Type.Size()
			if size <= 0 {
				continue
			}
			regs = append(regs, sa.Region{Base: int64(col.Base), Size: size})
		}
	}
	return regs
}

// notePtrFact records a runtime pointer contract for a value the code
// generator just emitted: v points at [v-pre, v+post) valid bytes whenever
// it is non-null (maybeNull=false additionally promises it never is).
func (c *Compiler) notePtrFact(b *qir.Builder, v qir.Value, pre, post int64, maybeNull bool) {
	f := b.Func()
	if c.out.ValFacts == nil {
		c.out.ValFacts = make(map[*qir.Func]map[qir.Value]sa.PtrFact)
	}
	m := c.out.ValFacts[f]
	if m == nil {
		m = make(map[qir.Value]sa.PtrFact)
		c.out.ValFacts[f] = m
	}
	m[v] = sa.PtrFact{Pre: pre, Post: post, MaybeNull: maybeNull}
}

// factsFor derives the sa.Facts for generated function fi from the driver
// contract: setup/main/cleanup receive the query state pointer (StateSize
// valid bytes) as parameter 0, and main's morsel bounds satisfy
// 0 <= lo <= hi <= rows(source). Comparator row pointers and hash-table
// entry pointers are covered by the ValFacts the generator recorded.
func (c *Compiled) factsFor(fi int, regions []sa.Region, cat *rt.Catalog) *sa.Facts {
	facts := sa.NewFacts()
	facts.Regions = regions
	facts.ValFacts = c.ValFacts[c.Module.Funcs[fi]]
	for pi := range c.Pipelines {
		p := &c.Pipelines[pi]
		if fi != p.SetupFn && fi != p.MainFn && fi != p.CleanupFn {
			continue
		}
		facts.ParamRegion = []int64{c.StateSize}
		if fi == p.MainFn {
			bound := sa.Interval{Lo: 0, Hi: sa.PosInf}
			if p.Source == SrcTable && cat != nil {
				if t, err := cat.Table(p.Table); err == nil {
					bound = sa.Interval{Lo: 0, Hi: t.Rows}
				}
			}
			facts.ParamRange = []sa.Interval{{}, bound, bound}
		}
		break
	}
	return facts
}

// hoistAndEliminate runs the two IR-rewriting passes over every generated
// function: constant hoisting (user literals become constant-pool loads, see
// poolLiterals) and check elimination (statically proven loads/stores are
// marked qir.MemUnchecked so that every back-end and the interpreter lowers
// them without bounds or null checks). With both on they share one sa
// analysis per function.
//
// The two interact: the eliminator exploits the compile-time value of some
// literals — a filter constant can bound an index, making a bounds check
// provably redundant — and hoisting such a range-load-bearing literal would
// silently re-introduce the check, so it has to stay inline. The pass analyses
// the function once in its all-hoisted form: every candidate listed in
// sa.Facts.WideConsts, which gives an OpConst the transfer function of the
// OpConstPool that will replace it. Which literals the eliminator could have
// used is decided per candidate and without another analysis: a candidate
// stays inline iff it alone can reach a memory address
// (sa.Analysis.ReachesAddress), the rest are pooled. When none can — every
// TPC-H, TPC-DS and ad-hoc SQL plan — all are pooled and the analysis in hand
// is already the analysis of the final IR.
//
// Soundness: every SetUnchecked mark comes from an analysis whose abstract
// semantics equal those of the function as finally rewritten. The all-hoisted
// analysis qualifies only if exactly the candidates it widened were pooled;
// when a candidate stayed inline, or rewriteToPool refused a literal (pool
// full), the rewritten function is analysed again and the marks come from
// that. Nothing is lost by pooling the rest: the closure of a set is the union
// of its members' closures, so the pooled set reaches no address and every
// access has the verdict it would have with those literals inline. The
// StrictUnchecked differentials are the referee.
func (c *Compiler) hoistAndEliminate(cat *rt.Catalog) {
	hoist := HoistStats{Enabled: c.opts.Hoist}
	elim := ElimStats{Enabled: c.opts.Elim}
	start := time.Now()
	var regions []sa.Region
	if c.opts.Elim {
		elim.ByReason = map[string]int{}
		regions = Regions(cat)
	}
	var a sa.Analysis
	for fi, f := range c.mod.Funcs {
		cands := c.hoistCands[f]
		hoist.Candidates += len(cands)
		if !c.opts.Elim {
			c.poolLiterals(f, cands, cands, &hoist)
			continue
		}
		facts := c.out.factsFor(fi, regions, cat)
		facts.WideConsts = cands
		obsFuncsAnalyzed.Inc()
		a.Run(f, facts)
		var accs []sa.Access
		var finds []sa.Finding
		pool := cands
		if len(cands) > 0 && a.ReachesAddress(cands) {
			pool = nil
			for i := range cands {
				if !a.ReachesAddress(cands[i : i+1]) {
					pool = append(pool, cands[i])
				}
			}
		}
		final := len(pool) == len(cands)
		if final {
			// Read the verdicts before the rewrite moves instructions the
			// analysis has positions for.
			accs, finds = a.Accesses(), a.Lint()
		}
		if !c.poolLiterals(f, cands, pool, &hoist) || !final {
			facts.WideConsts = nil
			obsFuncsAnalyzed.Inc()
			a.Run(f, facts)
			accs, finds = a.Accesses(), a.Lint()
		}
		elim.MemOps += len(accs)
		for i := range accs {
			if acc := &accs[i]; acc.Safe {
				f.Instrs[acc.V].SetUnchecked()
				elim.Unchecked++
				elim.ByReason[acc.Reason]++
			}
		}
		elim.Findings = append(elim.Findings, finds...)
	}
	if c.opts.Hoist {
		hoist.PoolSlots = len(c.mod.Pool)
		c.out.Hoist = hoist
		obsHoistCands.Add(int64(hoist.Candidates))
		obsHoisted.Add(int64(hoist.Hoisted))
		obsKeptInline.Add(int64(hoist.KeptInline))
		obsHoistSlots.Add(int64(hoist.PoolSlots))
	}
	if c.opts.Elim {
		elim.AnalysisNs = time.Since(start).Nanoseconds()
		c.out.Elim = elim
		obsElimModules.Inc()
		obsMemOps.Add(int64(elim.MemOps))
		obsChecksElim.Add(int64(elim.Unchecked))
		obsLintFinds.Add(int64(len(elim.Findings)))
		obsAnalysisNs.Add(elim.AnalysisNs)
	}
}

// Analyses returns a fresh sa.Analysis per function under the same facts the
// check-elimination pass used — for linters and verifiers that want the raw
// findings and statistics rather than the rewrite.
func (c *Compiled) Analyses(cat *rt.Catalog) []*sa.Analysis {
	regions := Regions(cat)
	out := make([]*sa.Analysis, len(c.Module.Funcs))
	for fi, f := range c.Module.Funcs {
		obsFuncsAnalyzed.Inc()
		out[fi] = sa.Analyze(f, c.factsFor(fi, regions, cat))
	}
	return out
}

// UncheckedCount counts the loads/stores in f currently marked unchecked.
func UncheckedCount(f *qir.Func) int {
	n := 0
	for i := range f.Instrs {
		if f.Instrs[i].Unchecked() {
			n++
		}
	}
	return n
}
