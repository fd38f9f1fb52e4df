// Command qir shows the compilation artifacts for a SQL query: the QIR the
// data-centric code generator produces, the generated C source of the GCC
// back-end, and the machine code of the back-end -engine names.
//
// Usage:
//
//	qir [-workload tpch|tpcds] [-sf 0.01] [-engine directemit] [-show qir|c|asm|all] "SELECT ..."
//
// Flags shared with other commands are registered by engine.ParseCommand
// (DESIGN.md, "Query path").
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"qcc/internal/backend"
	"qcc/internal/backend/cbe"
	"qcc/internal/bench"
	"qcc/internal/engine"
	"qcc/internal/vt"
)

func main() {
	workload := flag.String("workload", "tpch", "preloaded schema: tpch or tpcds")
	show := flag.String("show", "qir", "artifact: qir, c, asm, or all")
	cfg, err := engine.ParseCommand("qir", flag.CommandLine, os.Args[1:])
	if err != nil {
		fatal(err)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: qir [flags] \"SELECT ...\"")
		os.Exit(2)
	}

	w, err := bench.NewWorldLoaded(cfg, *workload)
	if err != nil {
		fatal(err)
	}
	node, err := w.Parse(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	c, err := w.Lower("q", node)
	if err != nil {
		fatal(err)
	}

	if *show == "qir" || *show == "all" {
		fmt.Printf("; %d pipelines, %d functions\n", len(c.Pipelines), c.NumFuncs)
		fmt.Print(c.Module.String())
	}
	if *show == "c" || *show == "all" {
		src, err := cbe.GenerateC(c.Module, w.Env())
		if err != nil {
			fatal(err)
		}
		fmt.Println(src)
	}
	if *show == "asm" || *show == "all" {
		eng := engine.Backend(cfg.Engine)
		if eng == nil {
			fatal(fmt.Errorf("unknown engine %q (have: %s)", cfg.Engine, strings.Join(engine.BackendNames(), ", ")))
		}
		p, err := w.Compile(eng, c)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("; %s: %d bytes in %v\n", eng.Name(), p.Stats.CodeBytes, p.Stats.Total)
		if mod := backend.ModuleOf(p.Exec); mod != nil {
			fmt.Print(vt.DisasmAll(mod.Prog))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qir:", err)
	os.Exit(1)
}
