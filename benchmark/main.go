// Command benchmark is the repository's benchmark: four workloads that take
// a query from SQL text or plan to verified rows, measured end to end and —
// in a second, traced run — layer by layer. See README.md.
//
//	bash benchmark/run.sh --workload exec_tpch --seed 1 --seconds 35 --trace 0
//	bash benchmark/run.sh                      # every workload, untraced and traced
//	bash benchmark/run.sh -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// workloads are the four sets of inputs. The three marked inContract are the
// ones BENCHMARK.json lists and every later change is gated on;
// exec_tpch_batchpar keeps both cores of the sizing box busy, so whatever
// else the host runs lands in its numbers, and it could not hold a bound
// there (README.md, "Measured spread"). It still runs, verified, in the
// all-workloads command and under -compare.
var workloads = []workloadDef{
	{Name: "compile_tpcds", Why: "103 TPC-DS plans on six engines over 1 200 fact rows: code generation, sa and the back-ends are 57% of a pass, the largest share of any workload",
		inContract: true, run: func(c runConfig) (*result, error) { return runPlans(planSpecs["compile_tpcds"], c) }},
	{Name: "exec_tpch", Why: "22 TPC-H plans at sf 0.3 run tuple at a time on one core: the vm dispatch loop and rt are 90% of a pass, compilation the rest",
		inContract: true, run: func(c runConfig) (*result, error) { return runPlans(planSpecs["exec_tpch"], c) }},
	{Name: "exec_tpch_batchpar", Why: "the same plans and data through batch kernels and two morsel workers: the other exec path, so a gain on one path that costs the other shows",
		run: func(c runConfig) (*result, error) { return runPlans(planSpecs["exec_tpch_batchpar"], c) }},
	{Name: "sql_adhoc", Why: "seeded SQL text through qc.Exec, 80% constant variants of six families (code-cache hits) and 20% novel shapes (misses): parser, cache and per-query overhead decide it",
		inContract: true, run: runAdhoc},
}

// contractWorkloads are the workloads BENCHMARK.json lists.
func contractWorkloads() []workloadDef {
	var ws []workloadDef
	for _, w := range workloads {
		if w.inContract {
			ws = append(ws, w)
		}
	}
	return ws
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// defaultSeconds is how long one run measures, the run_seconds of
// BENCHMARK.json.
const defaultSeconds = 35

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print its result as the last line; empty runs all four, untraced and traced")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs (statement stream, query order)")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
		quick    = flag.Bool("quick", false, "smoke-test sizes: smallest data, one set-up")
		runs     = flag.Int("runs", 3, "without -workload: untraced runs per workload, each with the next seed")
		out      = flag.String("out", "out", "directory for traces and run files")
		compare  = flag.Bool("compare", false, "compare two run files given as arguments and exit non-zero if the second is worse")
		updGold  = flag.String("update-golden", "", "recompute the golden digests into this directory and exit")
		spec     = flag.Bool("spec", false, "print BENCHMARK.json as this program defines it and exit")
	)
	flag.Parse()
	if *spec {
		printSpec()
		return
	}
	if err := run(*workload, runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Quick: *quick, OutDir: *out},
		*runs, *compare, *updGold, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workload string, cfg runConfig, runs int, compare bool, updGold string, args []string) error {
	switch {
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare takes two run files")
		}
		return compareFiles(os.Stdout, args[0], args[1])
	case updGold != "":
		return updateGolden(updGold)
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	if workload == "" {
		return runAll(cfg, runs)
	}
	wl := findWorkload(workload)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", workload)
	}
	res, err := wl.run(cfg)
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.Trace {
		defs = perLayer
	}
	printMetrics(os.Stdout, wl.Name, defs, res)
	line, err := resultLine(defs, res)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// printSpec prints the contract file: BENCHMARK.json is this output, and a
// test fails when the two drift apart.
func printSpec() {
	data, err := json.MarshalIndent(map[string]any{
		"command": []string{"bash", "benchmark/run.sh"}, "paths": []string{"benchmark"}, "run_seconds": defaultSeconds,
		"workloads": contractWorkloads(), "end_to_end": endToEnd, "per_layer": perLayer,
	}, "", "  ")
	if err != nil {
		panic(err)
	}
	fmt.Println(string(data))
}

// printMetrics prints one "name value unit" line per metric.
func printMetrics(w *os.File, workload string, defs []metricDef, res *result) {
	fmt.Fprintf(w, "# %s: %d operations, %d failed; %v\n", workload, res.Attempted, res.Failed, res.Info)
	if res.FirstFailure != "" {
		fmt.Fprintf(w, "# first failure: %s\n", res.FirstFailure)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-40s %14.4f %s\n", d.Name, res.Metrics[d.Name], d.Unit)
	}
}

// resultLine renders the one-line JSON object a run ends with.
func resultLine(defs []metricDef, res *result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{res.Metrics[d.Name], d.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	return string(line), err
}

// envelope records where and how a run file was produced.
type envelope struct {
	Commit     string  `json:"commit"`
	Date       string  `json:"date"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs"`
	Quick      bool    `json:"quick"`
}

// workloadRuns is one workload's part of a run file: every untraced run's
// end-to-end metrics, and the traced run's per-layer metrics.
type workloadRuns struct {
	Workload  string               `json:"workload"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer"`
	Info      map[string]any       `json:"info"`
}

type runFile struct {
	Envelope  envelope       `json:"envelope"`
	Workloads []workloadRuns `json:"workloads"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown" // built outside a git checkout
}

// runAll is the one command: every workload, `runs` untraced runs each (for
// medians and their spread) and one traced run, all metrics printed by name
// and written to the next free run-<n>.json. It fails if any operation did.
func runAll(cfg runConfig, runs int) error {
	rf := runFile{Envelope: envelope{
		Commit: commit(), Date: time.Now().UTC().Format(time.RFC3339), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: cfg.Seed, Seconds: cfg.Seconds, Runs: runs, Quick: cfg.Quick,
	}}
	failed := 0
	for _, wl := range workloads {
		wr := workloadRuns{Workload: wl.Name, EndToEnd: map[string][]float64{}}
		for i := 0; i < runs; i++ {
			c := cfg
			c.Trace, c.Seed = false, cfg.Seed+int64(i)
			res, err := wl.run(c)
			if err != nil {
				return fmt.Errorf("%s: %w", wl.Name, err)
			}
			printMetrics(os.Stdout, wl.Name, endToEnd, res)
			for _, d := range endToEnd {
				wr.EndToEnd[d.Name] = append(wr.EndToEnd[d.Name], res.Metrics[d.Name])
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			wr.Info = res.Info
		}
		c := cfg
		c.Trace = true
		res, err := wl.run(c)
		if err != nil {
			return fmt.Errorf("%s traced: %w", wl.Name, err)
		}
		printMetrics(os.Stdout, wl.Name, perLayer, res)
		wr.PerLayer = res.Metrics
		wr.Attempted += res.Attempted
		wr.Failed += res.Failed
		failed += wr.Failed
		rf.Workloads = append(rf.Workloads, wr)
	}
	fmt.Println("# medians over the untraced runs (spread = inter-quartile range / median)")
	for _, wr := range rf.Workloads {
		for _, d := range endToEnd {
			xs := wr.EndToEnd[d.Name]
			fmt.Printf("%-20s %-16s %14.4f %-4s spread %5.1f%%\n", wr.Workload, d.Name, median(xs), d.Unit, 100*spread(xs))
		}
		fmt.Printf("%-20s %-16s %14.6f ratio\n", wr.Workload, "failed_share", ratio(float64(wr.Failed), float64(wr.Attempted)))
	}
	path, err := writeRunFile(cfg.OutDir, &rf)
	if err != nil {
		return err
	}
	fmt.Println("# wrote", path)
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}

func writeRunFile(dir string, rf *runFile) (string, error) {
	data, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return "", err
	}
	for n := 1; ; n++ {
		path := filepath.Join(dir, fmt.Sprintf("run-%d.json", n))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if os.IsExist(err) {
			continue
		}
		if err != nil {
			return "", err
		}
		if _, err := f.Write(append(data, '\n')); err != nil {
			f.Close()
			return "", err
		}
		return path, f.Close()
	}
}
