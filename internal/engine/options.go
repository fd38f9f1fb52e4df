package engine

import (
	"flag"
	"fmt"
	"strings"

	"qcc/internal/codegen"
	"qcc/internal/obs"
	"qcc/internal/vt"
)

// Options is the one configuration of the query path. The public qc options,
// the experiment harness (bench.Config is this type) and every command's
// flags all set these fields and nothing else.
type Options struct {
	// Arch is the virtual target architecture (-arch).
	Arch vt.Arch
	// MemMB sizes the virtual machine memory in MiB (-mem).
	MemMB int
	// SF is the workload scale factor (-sf). The paper's SF10/SF100 are far
	// beyond laptop scale; the defaults preserve the relative trends.
	SF float64
	// Runs is the number of timed execution repetitions (-runs, best-of).
	Runs int
	// Engine names a back-end (-engine): a Backend name for qc.Open and
	// qrun, a display-name substring for qtrace and qprof.
	Engine string
	// Jobs is the worker count of the parallel compilation driver (-jobs).
	// 0 or 1 compiles sequentially, on the back-end's own code path.
	Jobs int
	// CacheMB sizes the database's content-addressed code cache in MiB
	// (-cache-mb); 0 disables caching.
	CacheMB int
	// Check runs the machine-code verifier on every compilation (-check);
	// its cost shows up as the back-ends' "Check.*" phases.
	Check bool
	// ExecJobs is the morsel-parallel executor's worker count (-exec-jobs).
	// 0 or 1 executes every pipeline sequentially.
	ExecJobs int
	// Batch compiles eligible scan pipelines to batch-at-a-time kernel calls
	// instead of tuple-at-a-time loops (-batch/-nobatch; on by default in qc
	// and qrun, and when -exec-jobs > 1). Results are identical either way.
	Batch bool
	// Tracer, when non-nil, receives the back-ends' compile spans and
	// counters and one "exec" span per execution.
	Tracer *obs.Tracer
}

// Codegen returns the code-generation strategy the execution mode implies:
// check elimination and constant hoisting always, batch kernels and the
// aggregation-merge functions the parallel executor needs on demand.
func (o Options) Codegen() codegen.Options {
	return codegen.Options{Elim: true, Hoist: true, Batch: o.Batch, Parallel: o.ExecJobs > 1}
}

// commands gives, for every command under cmd/, its share of the options:
// the defaults it starts from and the option flags it registers.
var commands = map[string]struct {
	defaults Options
	flags    []string
}{
	"qrun": {Options{MemMB: 512, SF: 0.05, Engine: "adaptive", ExecJobs: 1, Batch: true},
		[]string{"engine", "sf", "arch", "mem", "exec-jobs", "batch", "nobatch", "cache-mb"}},
	"qtrace": {Options{MemMB: 512, SF: 0.01, Runs: 1, Engine: "all", Jobs: 1, ExecJobs: 1},
		[]string{"arch", "engine", "sf", "mem", "runs", "check", "jobs", "cache-mb", "exec-jobs", "batch", "nobatch"}},
	"qprof": {Options{MemMB: 512, SF: 0.01, Runs: 1, Jobs: 1},
		[]string{"arch", "engine", "sf", "mem", "runs", "check", "jobs"}},
	"qverify": {Options{MemMB: 512, SF: 0.01, Jobs: 1},
		[]string{"arch", "sf", "mem", "jobs"}},
	"qlint": {Options{MemMB: 512, SF: 0.01},
		[]string{"arch", "sf", "mem"}},
	"qir": {Options{MemMB: 256, SF: 0.01, Engine: "directemit"},
		[]string{"sf", "engine"}},
	"qbench": {Options{MemMB: 1024, SF: 0.05, Runs: 1, Jobs: 1, ExecJobs: 1},
		[]string{"arch", "sf", "runs", "mem", "check"}},
}

// ParseCommand registers the named command's option flags on fs, next to
// whatever flags of its own the command already registered there, parses
// args, and returns the resulting options.
func ParseCommand(name string, fs *flag.FlagSet, args []string) (Options, error) {
	cmd, ok := commands[name]
	if !ok {
		panic("engine: unknown command " + name)
	}
	o := cmd.defaults
	var arch string
	var noBatch bool
	for _, f := range cmd.flags {
		switch f {
		case "arch":
			fs.StringVar(&arch, f, o.Arch.String(), "target architecture (vx64 or va64)")
		case "mem":
			fs.IntVar(&o.MemMB, f, o.MemMB, "VM memory in MiB")
		case "sf":
			fs.Float64Var(&o.SF, f, o.SF, "scale factor")
		case "runs":
			fs.IntVar(&o.Runs, f, o.Runs, "execution repetitions (best-of; qprof: samples accumulate)")
		case "engine":
			fs.StringVar(&o.Engine, f, o.Engine, "back-end: "+strings.Join(BackendNames(), ", ")+" (qrun, qir); qtrace and qprof match a display-name substring such as \"llvm cheap\" (qtrace: \"all\" = every engine; qprof: \"\" = first compiling engine)")
		case "jobs":
			fs.IntVar(&o.Jobs, f, o.Jobs, "parallel compilation workers (1 = sequential)")
		case "cache-mb":
			fs.IntVar(&o.CacheMB, f, o.CacheMB, "content-addressed code cache budget in MiB (0 = disabled)")
		case "check":
			fs.BoolVar(&o.Check, f, o.Check, "run the machine-code verifier on every compilation (adds Check.* phases)")
		case "exec-jobs":
			fs.IntVar(&o.ExecJobs, f, o.ExecJobs, "morsel-parallel executor workers (1 = sequential)")
		case "batch":
			fs.BoolVar(&o.Batch, f, o.Batch, "compile eligible scan pipelines to batch-at-a-time kernels (also on when -exec-jobs > 1)")
		case "nobatch":
			fs.BoolVar(&noBatch, f, false, "force tuple-at-a-time execution, whatever -batch and -exec-jobs say")
		default:
			panic("engine: unknown option flag " + f)
		}
	}
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch arch {
	case "": // the command has no -arch
	case "vx64":
		o.Arch = vt.VX64
	case "va64":
		o.Arch = vt.VA64
	default:
		return o, fmt.Errorf("unknown arch %q (want vx64 or va64)", arch)
	}
	o.Batch = (o.Batch || o.ExecJobs > 1) && !noBatch
	return o, nil
}
