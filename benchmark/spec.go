package main

// metricDef names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees, emitted by every workload.
// BENCHMARK.json repeats this list; TestBenchmarkJSONMatchesSpec keeps the
// two equal.
var endToEnd = []metricDef{
	{"compile_ms", "ms", "lower", 0.25},
	{"exec_ms", "ms", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// engineKeys are the metric-name forms of bench.Engines(vt.VX64), in its
// order.
var engineKeys = []string{"interp", "direct", "clift", "lbe_cheap", "lbe_opt", "cbe"}

// portable marks the engines that also target va64 (DirectEmit is vx64-only).
var portable = []bool{true, false, true, true, true, true}

var lbePhases = []string{"TargetMachine", "IRBuild", "IRPasses", "ISel", "OtherPasses", "RegAlloc",
	"PrologEpilog", "AsmPrinter", "ObjectEmission", "Linking", "IRDestruct"}

// enginePhases lists, per engine, the compile phases it reports in
// backend.Stats.Phases (the paper's Figs. 2-5 breakdowns).
var enginePhases = [][]string{
	{"Translate"},
	{"Analysis", "Codegen", "Emit"},
	{"IRGen", "IRPasses", "ISelPrepare", "ISel", "RegAlloc.liveranges", "RegAlloc.merge", "RegAlloc.assign", "Emit", "Link"},
	lbePhases,
	lbePhases,
	{"GenerateC", "Parse", "Gimplify", "Optimize", "Codegen", "Assemble", "Link"},
}

// perLayer is every per-layer metric of the traced run, by layer. Times and
// counts are means per operation unless the name says otherwise; a layer a
// workload bypasses reads 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		lo("sql.parse_us", "us"), lo("plan.build_us", "us"), lo("plan.nodes", "count"),
		lo("codegen.qirgen_us", "us"), lo("codegen.hoist_us", "us"), lo("codegen.qir_instrs", "count"),
		lo("codegen.funcs", "count"), lo("codegen.pipelines", "count"), hi("codegen.batch_pipelines", "count"),
		hi("codegen.hoist_candidates", "count"), hi("codegen.hoisted", "count"), lo("codegen.hoist_rounds", "count"),
		lo("sa.elim_us", "us"), lo("sa.mem_ops", "count"), hi("sa.checks_eliminated", "count"), hi("sa.elim_share", "ratio"),
	}
	for i, e := range engineKeys {
		p := "backend." + e + "."
		defs = append(defs, lo(p+"compile_ms", "ms"), lo(p+"code_bytes", "B"), lo(p+"exec_ms", "ms"), lo(p+"vm_instrs", "count"))
		if portable[i] {
			defs = append(defs, lo(p+"va64_compile_ms", "ms"))
		}
		for _, ph := range enginePhases[i] {
			defs = append(defs, lo(p+"phase."+ph+"_ms", "ms"))
		}
	}
	defs = append(defs,
		hi("pcc.hits", "count"), lo("pcc.misses", "count"), hi("pcc.hit_share", "ratio"), lo("pcc.cache_bytes", "B"),
		lo("pcc.hit_compile_us", "us"), lo("pcc.miss_compile_us", "us"),
		lo("vm.instrs", "count"), lo("vm.branches", "count"), lo("vm.mem_ops", "count"), lo("vm.fuse_rate", "ratio"),
		hi("vm.minstr_per_s", "1/s"), lo("vm.heap_peak_mb", "MB"),
		lo("rt.bind_pool_us", "us"), lo("rt.out_rows", "count"), lo("rt.heap_kb_per_query", "KB"),
		hi("rt.batch_kernel_calls", "count"), hi("rt.batch_rows", "count"),
		lo("codegen.run_ms", "ms"), lo("codegen.run_parallel_ms", "ms"), hi("codegen.exec_morsels", "count"),
		hi("codegen.exec_workers", "count"), hi("codegen.exec_pool_reuses", "count"),
		lo("qc.exec_p50_ms", "ms"), lo("qc.exec_p95_ms", "ms"), lo("qc.exec_p99_ms", "ms"), lo("qc.frontend_us", "us"),
		lo("tpch.load_s", "s"), lo("tpcds.load_s", "s"), lo("tpch.lineitem_rows", "count"),
		lo("bench.alloc_mb_per_pass", "MB"), lo("bench.peak_rss_mb", "MB"), lo("bench.rep_spread_pct", "%"),
		lo("bench.trace_overhead_pct", "%"), lo("bench.query_self_pct", "%"),
	)
	return defs
}

// workloadDef is one set of inputs the benchmark runs.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// inContract marks the workloads BENCHMARK.json lists.
	inContract bool
	run        func(cfg runConfig) (*result, error)
}
