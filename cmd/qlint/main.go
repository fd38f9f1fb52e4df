// Command qlint runs the QIR static-analysis framework (internal/sa) over a
// compiled workload and reports its diagnostics and check-elimination
// statistics: unreachable blocks, dead stores, always-trapping accesses,
// range contradictions, and per-query counts of bounds/null checks the
// analysis discharged at compile time.
//
// Generated query code is expected to lint clean: any finding means either a
// codegen bug or an analysis regression, so qlint exits non-zero when one
// appears (the ci gate relies on this).
//
// Usage:
//
//	qlint [-arch vx64|va64] [-workload tpch|tpcds|all] [-sf 0.01] [-mem 512]
//	      [-json] [-v]
//
// -json emits one machine-readable document on stdout instead of the table.
// -v additionally lists every eliminated access reason per query.
//
// Flags shared with other commands are registered by engine.ParseCommand
// (DESIGN.md, "Query path").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"qcc/internal/bench"
	"qcc/internal/codegen"
	"qcc/internal/engine"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qlint: "+format+"\n", args...)
	os.Exit(1)
}

// queryReport is one query's lint + elimination summary.
type queryReport struct {
	Query      string         `json:"query"`
	Workload   string         `json:"workload"`
	MemOps     int            `json:"mem_ops"`
	Eliminated int            `json:"checks_eliminated"`
	Ratio      float64        `json:"elim_ratio"`
	ByReason   map[string]int `json:"by_reason,omitempty"`
	MaxLive    int            `json:"max_live"`
	AnalysisNs int64          `json:"analysis_ns"`
	Findings   []string       `json:"findings,omitempty"`
}

type report struct {
	Arch        string        `json:"arch"`
	SF          float64       `json:"sf"`
	ElimVersion string        `json:"elim_version"`
	Queries     []queryReport `json:"queries"`
	TotalMemOps int           `json:"total_mem_ops"`
	TotalElim   int           `json:"total_checks_eliminated"`
	TotalFinds  int           `json:"total_findings"`
}

func main() {
	workload := flag.String("workload", "tpch", "workload (tpch, tpcds, or all)")
	asJSON := flag.Bool("json", false, "emit JSON instead of a table")
	verbose := flag.Bool("v", false, "list per-reason elimination counts")
	cfg, err := engine.ParseCommand("qlint", flag.CommandLine, os.Args[1:])
	if err != nil {
		fail("%v", err)
	}

	var workloads []string
	switch *workload {
	case "tpch", "tpcds":
		workloads = []string{*workload}
	case "all":
		workloads = []string{"tpch", "tpcds"}
	default:
		fail("unknown workload %q", *workload)
	}

	rep := report{Arch: cfg.Arch.String(), SF: cfg.SF, ElimVersion: codegen.CheckElimVersion}
	for _, wl := range workloads {
		w, err := bench.NewWorldLoaded(cfg, wl)
		if err != nil {
			fail("load %s: %v", wl, err)
		}
		queries, err := engine.Queries(wl)
		if err != nil {
			fail("%v", err)
		}
		for _, q := range queries {
			c, err := w.Lower(q.Name, q.Build())
			if err != nil {
				fail("codegen %s: %v", q.Name, err)
			}
			qr := queryReport{
				Query:      q.Name,
				Workload:   wl,
				MemOps:     c.Elim.MemOps,
				Eliminated: c.Elim.Unchecked,
				Ratio:      c.Elim.Ratio(),
				ByReason:   c.Elim.ByReason,
				MaxLive:    c.MaxLive(),
				AnalysisNs: c.Elim.AnalysisNs,
			}
			for _, f := range c.Elim.Findings {
				qr.Findings = append(qr.Findings, f.String())
			}
			rep.Queries = append(rep.Queries, qr)
			rep.TotalMemOps += qr.MemOps
			rep.TotalElim += qr.Eliminated
			rep.TotalFinds += len(qr.Findings)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&rep); err != nil {
			fail("encode: %v", err)
		}
	} else {
		fmt.Printf("qlint: %s sf=%g elim=%s\n", rep.Arch, rep.SF, rep.ElimVersion)
		fmt.Printf("%-12s %8s %8s %7s %8s %9s\n", "query", "memops", "elim", "ratio", "maxlive", "findings")
		for _, qr := range rep.Queries {
			fmt.Printf("%-12s %8d %8d %6.1f%% %8d %9d\n",
				qr.Workload+"/"+qr.Query, qr.MemOps, qr.Eliminated, 100*qr.Ratio, qr.MaxLive, len(qr.Findings))
			if *verbose {
				reasons := make([]string, 0, len(qr.ByReason))
				for r := range qr.ByReason {
					reasons = append(reasons, r)
				}
				sort.Strings(reasons)
				for _, r := range reasons {
					fmt.Printf("             %-20s %d\n", r, qr.ByReason[r])
				}
			}
		}
		ratio := 0.0
		if rep.TotalMemOps > 0 {
			ratio = float64(rep.TotalElim) / float64(rep.TotalMemOps)
		}
		fmt.Printf("qlint: total %d/%d checks eliminated (%.1f%%), %d findings\n",
			rep.TotalElim, rep.TotalMemOps, 100*ratio, rep.TotalFinds)
	}

	if rep.TotalFinds > 0 {
		for _, qr := range rep.Queries {
			for _, f := range qr.Findings {
				fmt.Fprintf(os.Stderr, "qlint: %s/%s: %s\n", qr.Workload, qr.Query, f)
			}
		}
		fail("%d unexpected findings in generated code", rep.TotalFinds)
	}
}
