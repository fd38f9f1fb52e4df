package codegen_test

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"qcc/internal/codegen"
	"qcc/internal/plan"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/sa"
	"qcc/internal/tpcds"
	"qcc/internal/tpch"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/frontend.golden from this build's output")

const goldenFile = "testdata/frontend.golden"

// goldenQuery is one plan of the output-identity corpus.
type goldenQuery struct {
	name  string
	build func() plan.Node
}

// goldenWorld is a loaded catalog and its database, plus the plans compiled
// against it.
type goldenWorld struct {
	db      *rt.DB
	cat     *rt.Catalog
	queries []goldenQuery
}

// goldenWorlds loads TPC-H (22 plans plus a 300-literal filter that overflows
// the 256-slot constant pool) and TPC-DS (103 plans) at sf 0.01. Column base
// addresses are baked into the IR, so the load order and sizes here are part
// of the golden contract.
func goldenWorlds(t testing.TB) []goldenWorld {
	t.Helper()
	load := func(memMB int, loader func(*rt.Catalog, float64) error) goldenWorld {
		db := rt.NewDB(vm.New(vm.Config{Arch: vt.VX64, MemSize: memMB << 20}))
		cat := rt.NewCatalog(db)
		if err := loader(cat, 0.01); err != nil {
			t.Fatal(err)
		}
		return goldenWorld{db: db, cat: cat}
	}
	h := load(128, tpch.Load)
	for _, q := range tpch.Queries() {
		h.queries = append(h.queries, goldenQuery{"tpch/" + q.Name, q.Build})
	}
	h.queries = append(h.queries, goldenQuery{"tpch/poolfull", func() plan.Node { return manyLiterals(t, h.cat, 300) }})
	ds := load(256, tpcds.Load)
	for _, q := range tpcds.Queries() {
		ds.queries = append(ds.queries, goldenQuery{"tpcds/" + q.Name, q.Build})
	}
	return []goldenWorld{h, ds}
}

// manyLiterals scans lineitem under a conjunction of n `l_orderkey <> k`
// terms: n distinct user literals in one function, more than the constant
// pool holds, so the hoisting pass has to leave the tail inline.
func manyLiterals(t testing.TB, cat *rt.Catalog, n int) plan.Node {
	t.Helper()
	tbl, err := cat.Table("lineitem")
	if err != nil {
		t.Fatal(err)
	}
	cols := make([]plan.ColInfo, len(tbl.Cols))
	for i := range tbl.Cols {
		cols[i] = plan.ColInfo{Name: tbl.Cols[i].Name, Type: tbl.Cols[i].Type}
	}
	var filter plan.Expr
	for k := 0; k < n; k++ {
		term, err := plan.NewCmp(plan.CmpNE, &plan.Col{Idx: 0, Ty: qir.I64}, &plan.ConstInt{Ty: qir.I64, V: int64(1000 + k)})
		if err != nil {
			t.Fatal(err)
		}
		if filter == nil {
			filter = term
		} else {
			filter = &plan.Logic{Op: plan.OpAnd, L: filter, R: term}
		}
	}
	return &plan.Scan{Table: "lineitem", Cols: cols, Filter: filter}
}

var goldenOpts = []struct {
	name string
	opts codegen.Options
}{
	{"elim", codegen.Options{Elim: true}},
	{"hoist", codegen.Options{Hoist: true}},
	{"elim+hoist", codegen.Options{Elim: true, Hoist: true}},
	{"elim+hoist+batch+parallel", codegen.Options{Elim: true, Hoist: true, Batch: true, Parallel: true}},
}

// digestCompiled fingerprints everything the front-end hands on: the printed
// module (instruction stream, pool, unchecked marks), the kernel program and
// handle offset of every batch pipeline, and the pass statistics. A tuple
// pipeline adds nothing, so tuple-mode digests do not depend on kernels.
func digestCompiled(c *codegen.Compiled) string {
	h := sha256.New()
	fmt.Fprintln(h, c.Module.String())
	for i, p := range c.Pipelines {
		if p.Kernel != nil {
			fmt.Fprintln(h, "kernel", i, p.KernelOff, kernelString(p.Kernel))
		}
	}
	e := c.Elim
	reasons := make([]string, 0, len(e.ByReason))
	for r, n := range e.ByReason {
		reasons = append(reasons, fmt.Sprintf("%s=%d", r, n))
	}
	sort.Strings(reasons)
	maxLive := 0 // measured by the pass only when it eliminates
	if e.Enabled {
		maxLive = c.MaxLive()
	}
	fmt.Fprintln(h, "elim", e.Enabled, e.MemOps, e.Unchecked, reasons, maxLive)
	for _, f := range e.Findings {
		fmt.Fprintln(h, "finding", f.String())
	}
	ho := c.Hoist
	fmt.Fprintln(h, "hoist", ho.Enabled, ho.Candidates, ho.Hoisted, ho.KeptInline, ho.PoolSlots)
	for _, f := range c.Module.Funcs {
		fmt.Fprintln(h, "prov", f.Name, f.Prov.Hoisted, f.Prov.KeptInline)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// kernelString prints a kernel program field by field, operands in prefix
// order, so that two specs print alike exactly when they are equal.
func kernelString(s *rt.BatchSpec) string {
	var sb strings.Builder
	var expr func(e *rt.BatchExpr)
	expr = func(e *rt.BatchExpr) {
		if e == nil {
			sb.WriteString(" nil")
			return
		}
		fmt.Fprintf(&sb, " (%d %d %d %d %d %d %d/%d %v %q %d", e.Kind, e.Ty, e.Op, e.Base, e.Elem, e.I, e.D.Hi, e.D.Lo, e.F, e.S, e.Slot)
		expr(e.L)
		expr(e.R)
		expr(e.H)
		sb.WriteString(")")
	}
	fmt.Fprintf(&sb, "sink %d width %d filters", s.Sink, s.Width)
	for _, f := range s.Filters {
		expr(f)
	}
	for _, ks := range []struct {
		name string
		keys []rt.BatchKey
	}{{"probe", s.Probe}, {"keys", s.Keys}} {
		sb.WriteString(" " + ks.name)
		for _, k := range ks.keys {
			fmt.Fprintf(&sb, " [%d %d", k.Off, k.Ty)
			expr(k.E)
			sb.WriteString("]")
		}
	}
	sb.WriteString(" aggs")
	for _, a := range s.Aggs {
		fmt.Fprintf(&sb, " [%d %d %d %d", a.Fn, a.Ty, a.Off, a.COff)
		expr(a.Arg)
		sb.WriteString("]")
	}
	sb.WriteString(" payload")
	for _, p := range s.Payload {
		fmt.Fprintf(&sb, " [%d", p.Off)
		expr(p.Src)
		sb.WriteString("]")
	}
	return sb.String()
}

// analysisDiff names the first result on which two analyses of one function
// disagree: a value's range, derivation or nullness, or an access's verdict.
func analysisDiff(x, y *sa.Analysis) string {
	for v := range x.F.Instrs {
		v := qir.Value(v)
		xa, xo, xok := x.Derivation(v)
		ya, yo, yok := y.Derivation(v)
		if x.Range(v) != y.Range(v) || xa != ya || xo != yo || xok != yok || x.NonNull(v) != y.NonNull(v) {
			return fmt.Sprintf("%%%d: range %s vs %s, anchor %%%d%s vs %%%d%s, non-null %v vs %v",
				v, x.Range(v), y.Range(v), xa, xo, ya, yo, x.NonNull(v), y.NonNull(v))
		}
	}
	xs, ys := x.Accesses(), y.Accesses()
	if len(xs) != len(ys) {
		return fmt.Sprintf("%d vs %d accesses", len(xs), len(ys))
	}
	for i := range xs {
		if xs[i] != ys[i] {
			return fmt.Sprintf("access %+v vs %+v", xs[i], ys[i])
		}
	}
	return ""
}

// TestFrontEndGolden pins the front-end's output: for every TPC-H and TPC-DS
// plan and the pool-overflow query, under each option set the benchmark and
// the CLIs use, the module text and the Elim/Hoist statistics must digest to
// the values committed in testdata/frontend.golden. The file was recorded
// before the single-analysis rewrite of internal/sa, so a pass here means the
// rewrite changed no instruction, mark, decision or statistic.
//
// Along the way every compiled function is analysed twice more, standalone
// and through one sa.Analysis reused for the whole corpus the way a compile
// reuses it across a module's functions; both must agree on everything. And
// every batch pipeline's kernel must prepare (rt.DB.PrepareBatch) against the
// module's constant pool, as the executor prepares it before setup runs:
// prepare rejects a kernel the generator wrote wrong, which in a query's
// default batch mode would fail at execution.
func TestFrontEndGolden(t *testing.T) {
	got := map[string]string{}
	var order []string
	var shared sa.Analysis
	for _, w := range goldenWorlds(t) {
		type compiled struct {
			key string
			c   *codegen.Compiled
		}
		var batched []compiled
		for _, q := range w.queries {
			for _, o := range goldenOpts {
				c, err := codegen.CompileOpts(q.name[strings.IndexByte(q.name, '/')+1:], q.build(), w.cat, o.opts)
				if err != nil {
					t.Fatalf("%s %s: %v", q.name, o.name, err)
				}
				if q.name == "tpch/poolfull" && o.opts.Hoist &&
					(c.Hoist.Hoisted != rt.ConstPoolSlots || c.Hoist.KeptInline != 300-rt.ConstPoolSlots) {
					t.Errorf("%s %s: hoisted %d, kept inline %d; the pool-full fallback did not run",
						q.name, o.name, c.Hoist.Hoisted, c.Hoist.KeptInline)
				}
				key := q.name + " " + o.name
				got[key] = digestCompiled(c)
				order = append(order, key)
				if o.opts.Batch {
					batched = append(batched, compiled{key, c})
				}
				if o.name == "elim+hoist" {
					for fi, alone := range c.Analyses(w.cat) {
						shared.Run(c.Module.Funcs[fi], alone.Facts)
						if diff := analysisDiff(alone, &shared); diff != "" {
							t.Errorf("%s %s: reused analysis differs from standalone: %s", key, alone.F.Name, diff)
						}
					}
				}
			}
		}
		// After the world's last compile: binding a pool interns its strings,
		// which would move the string addresses later modules bake in.
		kernels := 0
		for _, b := range batched {
			if err := w.db.BindConstPool(b.c.Module.Pool); err != nil {
				t.Fatalf("%s: %v", b.key, err)
			}
			for pi, p := range b.c.Pipelines {
				if p.Kernel == nil {
					continue
				}
				kernels++
				if _, err := w.db.PrepareBatch(p.Kernel); err != nil {
					t.Errorf("%s pipeline %d: kernel does not prepare: %v", b.key, pi, err)
				}
			}
			w.db.ResetQueryState()
		}
		if kernels == 0 {
			t.Errorf("no batch kernel among %d batch compiles", len(batched))
		}
	}
	if *updateGolden {
		var sb strings.Builder
		for _, k := range order {
			fmt.Fprintf(&sb, "%s %s\n", k, got[k])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q", goldenFile, sc.Text())
		}
		key := fields[0] + " " + fields[1]
		seen++
		if d, ok := got[key]; !ok {
			t.Errorf("%s: recorded but no longer compiled", key)
		} else if d != fields[2] {
			t.Errorf("%s: digest %s, golden %s", key, d, fields[2])
		}
	}
	if seen != len(got) {
		t.Errorf("%s holds %d entries, the corpus compiles %d", goldenFile, seen, len(got))
	}
}
