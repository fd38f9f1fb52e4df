// Command qverify runs the full verification stack over a workload:
//
//  1. the QIR verifier (SSA, CFG, type, and terminator-payload invariants)
//     on every query module;
//  2. a checked compile on every compiling back-end — the machine-code lint
//     everywhere, plus the symbolic register-allocation checker where there
//     is a pre-allocation program to check against (Cranelift, both LLVM
//     modes; DirectEmit allocates on the fly and GCC's allocator works on
//     its own TAC);
//  3. the cross-backend structural differential (per-function runtime-call
//     and trap sets must agree across back-ends, modulo the canonicalized
//     failure idiom).
//
// It exits non-zero on the first failure, printing located diagnostics.
//
// Usage:
//
//	qverify [-arch vx64|va64] [-workload tpch|tpcds] [-sf 0.01] [-mem 512]
//	        [-jobs 1]
//
// -jobs N runs every checked compile through the parallel driver
// (internal/backend/pcc) with N workers, verifying the sharded pipeline
// under the same regalloc checker, lint, and differential.
//
// Flags shared with other commands are registered by engine.ParseCommand
// (DESIGN.md, "Query path").
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"qcc/internal/backend"
	"qcc/internal/backend/cbe"
	"qcc/internal/backend/clift"
	"qcc/internal/backend/direct"
	"qcc/internal/backend/lbe"
	"qcc/internal/bench"
	"qcc/internal/codegen"
	"qcc/internal/engine"
	"qcc/internal/mcv"
	"qcc/internal/vt"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qverify: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	workload := flag.String("workload", "tpch", "workload (tpch or tpcds)")
	cfg, err := engine.ParseCommand("qverify", flag.CommandLine, os.Args[1:])
	if err != nil {
		fail("%v", err)
	}
	cfg.Check = true

	queries, err := engine.Queries(*workload)
	if err != nil {
		fail("%v", err)
	}

	engines := map[string]backend.Engine{
		"clift":      clift.New(),
		"gcc":        cbe.New(),
		"llvm-cheap": lbe.NewCheap(),
		"llvm-opt":   lbe.NewOpt(),
	}
	if cfg.Arch == vt.VX64 {
		engines["direct"] = direct.New()
	}
	names := make([]string, 0, len(engines))
	for n := range engines {
		names = append(names, n)
	}
	sort.Strings(names)

	// Stage 1: QIR verification of every query module, plus the static
	// analyzer's lint — generated code must produce zero findings.
	w, err := bench.NewWorldLoaded(cfg, *workload)
	if err != nil {
		fail("load %s: %v", *workload, err)
	}
	uncheckedQIR := map[string]int{}
	for _, q := range queries {
		c, err := w.Lower(q.Name, q.Build())
		if err != nil {
			fail("codegen %s: %v", q.Name, err)
		}
		if err := c.Module.VerifyModule(); err != nil {
			fail("qir %s: %v", q.Name, err)
		}
		if n := len(c.Elim.Findings); n > 0 {
			for _, f := range c.Elim.Findings {
				fmt.Fprintf(os.Stderr, "qverify: sa %s: %s\n", q.Name, f)
			}
			fail("sa %s: %d lint findings in generated code", q.Name, n)
		}
		for _, f := range c.Module.Funcs {
			uncheckedQIR[q.Name] += codegen.UncheckedCount(f)
		}
	}
	fmt.Printf("qverify: qir: %d %s modules verified, sa lint clean (%s)\n", len(queries), *workload, cfg.Arch)

	// Stage 2: checked compiles, collecting per-function summaries.
	sums := map[string]map[string][]mcv.FuncSummary{}
	for _, ename := range names {
		// A fresh world per engine so compiled code and heap layout do not
		// leak between back-ends.
		w, err := bench.NewWorldLoaded(cfg, *workload)
		if err != nil {
			fail("load %s: %v", *workload, err)
		}
		sums[ename] = map[string][]mcv.FuncSummary{}
		for _, q := range queries {
			c, err := w.Lower(q.Name, q.Build())
			if err != nil {
				fail("codegen %s: %v", q.Name, err)
			}
			p, err := w.Compile(engines[ename], c)
			if err != nil {
				fail("%s/%s: %v", ename, q.Name, err)
			}
			sums[ename][q.Name] = p.Stats.Summaries
			if d := mcv.UncheckedConservation(ename, uncheckedQIR[q.Name], p.Stats.Summaries); len(d) > 0 {
				for _, diag := range d {
					fmt.Fprintf(os.Stderr, "qverify: %s/%s: %s\n", ename, q.Name, diag)
				}
				os.Exit(1)
			}
		}
		fmt.Printf("qverify: %s: %d queries compiled clean (regalloc check + lint + unchecked conservation)\n", ename, len(queries))
	}

	// Stage 3: cross-backend differential against the clift baseline.
	base := sums["clift"]
	for _, ename := range names {
		if ename == "clift" {
			continue
		}
		for _, q := range queries {
			d := mcv.Diff("clift", mcv.CanonicalizeFailures(base[q.Name]),
				ename, mcv.CanonicalizeFailures(sums[ename][q.Name]))
			if len(d) > 0 {
				for _, diag := range d {
					fmt.Fprintf(os.Stderr, "qverify: %s: clift vs %s: %s\n", q.Name, ename, diag)
				}
				os.Exit(1)
			}
		}
	}
	fmt.Println("qverify: differential: all back-ends agree")
}
