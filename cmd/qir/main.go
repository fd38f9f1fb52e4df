// Command qir shows the compilation artifacts for a SQL query: the QIR the
// data-centric code generator produces, the generated C source of the GCC
// back-end, and the DirectEmit machine code.
//
// Usage:
//
//	qir [-workload tpch|tpcds] [-sf 0.01] [-show qir|c|asm|all] "SELECT ..."
//
// Flags shared with other commands are registered by engine.ParseCommand
// (DESIGN.md, "Query path").
package main

import (
	"flag"
	"fmt"
	"os"

	"qcc/internal/backend/cbe"
	"qcc/internal/backend/direct"
	"qcc/internal/bench"
	"qcc/internal/engine"
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
		p, err := w.Compile(direct.New(), c)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("; DirectEmit: %d bytes in %v\n", p.Stats.CodeBytes, p.Stats.Total)
		if d, ok := p.Exec.(interface{ Disasm() string }); ok {
			fmt.Print(d.Disasm())
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "qir:", err)
	os.Exit(1)
}
