// Command qprof captures, merges, and renders source-attributed VM
// execution profiles (internal/prof): sampled VM time mapped back through
// the back-end PC-range tables and the codegen provenance tables to named
// plan operators and SQL fragments.
//
// Usage:
//
//	qprof [-arch vx64|va64] [-workload tpch|tpcds] [-query q1] [-engine name]
//	      [-sf 0.01] [-mem 512] [-runs 1] [-period N] [-check] [-jobs N]
//	      [-format top|json|pprof|chrome|qir] [-top 20] [-flight] [-o out]
//	      [profile.json ...]
//
// With no positional arguments qprof captures a fresh profile: it compiles
// the selected queries on one back-end, executes them with the dispatch-loop
// sampler attached, and renders the result. With positional arguments it
// merges previously captured -format json profiles and renders the merge
// (no execution).
//
// Formats: top (flat per-operator table), json (qcc.prof/v1, qprof's own
// merge input), pprof (gzipped protobuf for `go tool pprof`), chrome
// (trace-event JSON for Perfetto; synthetic flame bar), qir (annotated QIR
// of the hottest functions; capture mode only).
//
// If a query traps, qprof dumps the always-on flight recorder — recent
// spans and samples — to stderr as a post-mortem before exiting; -flight
// dumps it after a successful run too.
//
// Flags shared with other commands are registered by engine.ParseCommand
// (DESIGN.md, "Query path").
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"qcc/internal/backend"
	"qcc/internal/bench"
	"qcc/internal/codegen"
	"qcc/internal/engine"
	"qcc/internal/obs"
	"qcc/internal/prof"
	"qcc/internal/vm"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "qprof: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	workload := flag.String("workload", "tpch", "workload (tpch or tpcds)")
	query := flag.String("query", "", "profile only this query (default: all queries of the workload)")
	period := flag.Int64("period", 0, "sampling period in executed VM instructions (0 = default)")
	format := flag.String("format", "top", "output format: top, json, pprof, chrome, or qir")
	topN := flag.Int("top", 20, "row limit for -format top/qir")
	flight := flag.Bool("flight", false, "dump the flight recorder to stderr after the run")
	out := flag.String("o", "-", "output file (\"-\" for stdout)")
	cfg, err := engine.ParseCommand("qprof", flag.CommandLine, os.Args[1:])
	if err != nil {
		fail("%v", err)
	}

	switch *format {
	case "top", "json", "pprof", "chrome", "qir":
	default:
		fail("unknown format %q (want top, json, pprof, chrome, or qir)", *format)
	}

	var dst io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		dst = f
	}

	// Merge mode: positional args are qcc.prof/v1 files.
	if files := flag.Args(); len(files) > 0 {
		if *format == "qir" {
			fail("-format qir needs the compiled module; it is capture-only")
		}
		var merged *prof.Profile
		for _, path := range files {
			f, err := os.Open(path)
			if err != nil {
				fail("%v", err)
			}
			p, err := prof.ReadJSON(f)
			f.Close()
			if err != nil {
				fail("%s: %v", path, err)
			}
			if merged == nil {
				merged = p
			} else {
				merged.Merge(p)
			}
		}
		render(dst, merged, nil, *format, *topN)
		return
	}

	queries, err := engine.Queries(*workload)
	if err == nil {
		queries, err = engine.Pick(queries, *query)
	}
	if err != nil {
		fail("%v", err)
	}
	if *format == "qir" && len(queries) != 1 {
		fail("-format qir needs a single -query")
	}

	w, err := bench.NewWorldLoaded(cfg, *workload)
	if err != nil {
		fail("load %s: %v", *workload, err)
	}
	eng := pickEngine(cfg)
	if eng == nil {
		fail("no engine with a VM module matches %q on %s", cfg.Engine, cfg.Arch)
	}

	var merged *prof.Profile
	var qmodForQIR *codegen.Compiled
	w.Checkpoint()
	for _, q := range queries {
		c, err := w.Lower(q.Name, q.Build())
		if err != nil {
			fail("%s: %v", q.Name, err)
		}
		p, err := w.Compile(eng, c)
		if err != nil {
			fail("%s: %v", q.Name, err)
		}
		col := prof.NewCollector(c.Module)
		smp := &vm.Sampler{Period: *period, Hit: col.Hit}
		for r := 0; r < cfg.Runs; r++ {
			w.DB.M.SetSampler(smp)
			_, err := w.Run(p)
			w.DB.M.SetSampler(nil)
			w.Release()
			if err != nil {
				// Post-mortem: the flight recorder holds the tail of the
				// crashing run (recent spans, samples, and the trap).
				fmt.Fprintf(os.Stderr, "qprof: %s: %v\n", q.Name, err)
				fmt.Fprintln(os.Stderr, "qprof: flight recorder dump:")
				obs.FlightRec().WriteText(os.Stderr)
				os.Exit(1)
			}
		}
		prf := col.Profile(cfg.Arch.String(), q.Name, smp)
		if merged == nil {
			merged = prf
		} else {
			merged.Merge(prf)
		}
		qmodForQIR = c
		w.DB.ResetToCheckpoint()
	}
	if *flight {
		fmt.Fprintln(os.Stderr, "qprof: flight recorder dump:")
		obs.FlightRec().WriteText(os.Stderr)
	}
	render(dst, merged, qmodForQIR, *format, *topN)
}

// pickEngine selects the capture back-end: the one -engine names, or the
// first engine whose executables expose a VM module (samples need PC ranges).
func pickEngine(cfg engine.Options) backend.Engine {
	for _, e := range engine.Backends(cfg.Arch) {
		name := strings.ToLower(e.Name())
		if cfg.Engine != "" {
			if strings.Contains(name, strings.ToLower(cfg.Engine)) {
				return e
			}
			continue
		}
		if strings.Contains(name, "interp") {
			continue // no vm dispatch to sample
		}
		return e
	}
	return nil
}

func render(dst io.Writer, p *prof.Profile, c *codegen.Compiled, format string, topN int) {
	if p == nil {
		fail("nothing profiled")
	}
	var err error
	switch format {
	case "top":
		err = p.WriteTop(dst, topN)
	case "json":
		err = p.WriteJSON(dst)
	case "pprof":
		err = p.WritePprof(dst)
	case "chrome":
		err = p.WriteChrome(dst)
	case "qir":
		err = p.WriteAnnotated(dst, c.Module, topN)
	}
	if err != nil {
		fail("%v", err)
	}
}
