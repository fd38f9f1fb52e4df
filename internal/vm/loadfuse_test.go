package vm_test

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"qcc/internal/backend"
	"qcc/internal/engine"
	"qcc/internal/obs"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/fuse.golden from this build's output")

const goldenFile = "testdata/fuse.golden"

// corpusModule is the machine code one back-end produced for one plan, with
// the unwind ranges the fuser reads block leaders from.
type corpusModule struct {
	name   string // "tpcds/q17 cranelift va64"
	group  string // "cranelift va64"
	arch   vt.Arch
	code   []byte
	unwind []vm.UnwindRange
}

// load decodes the module afresh; its fused view is not built yet.
func (c *corpusModule) load(tb testing.TB) *vm.Module {
	mod, err := vm.Load(c.arch, c.code)
	if err != nil {
		tb.Fatalf("%s: %v", c.name, err)
	}
	mod.RegisterUnwind(c.unwind)
	return mod
}

var corpus struct {
	once sync.Once
	mods []corpusModule
	err  error
}

// loadFuseCorpus compiles every TPC-H and TPC-DS plan (sf 0.01, the lowering
// the query path uses) on the five compiling engines for vx64 and the four
// portable ones for va64, once per test binary: 1 125 modules. Only code and
// unwind ranges are kept; decoded and fused forms are rebuilt per use.
func loadFuseCorpus(tb testing.TB) []corpusModule {
	tb.Helper()
	corpus.once.Do(func() {
		for _, arch := range []vt.Arch{vt.VX64, vt.VA64} {
			for _, workload := range []string{"tpch", "tpcds"} {
				w := engine.NewWorld(engine.Options{Arch: arch, MemMB: 256})
				if corpus.err = w.Load(workload, 0.01); corpus.err != nil {
					return
				}
				qs, _ := engine.Queries(workload)
				for _, eng := range engine.Backends(arch) {
					group := strings.ReplaceAll(strings.ToLower(eng.Name()), " ", "-") + " " + arch.String()
					for _, q := range qs {
						var p *engine.Program
						c, err := w.Lower(q.Name, q.Build())
						if err == nil {
							p, err = w.Compile(eng, c)
						}
						if err != nil {
							corpus.err = fmt.Errorf("%s/%s on %s: %w", workload, q.Name, group, err)
							return
						}
						mod := backend.ModuleOf(p.Exec)
						if mod == nil {
							break // the interpreter: no machine code
						}
						corpus.mods = append(corpus.mods, corpusModule{
							name: workload + "/" + q.Name + " " + group, group: group,
							arch: arch, code: mod.Code, unwind: mod.Unwind(),
						})
					}
				}
			}
		}
	})
	if corpus.err != nil {
		tb.Fatal(corpus.err)
	}
	return corpus.mods
}

// corpusGroups splits the corpus by engine and architecture, in first-seen
// order.
func corpusGroups(mods []corpusModule) (names []string, byGroup map[string][]*corpusModule) {
	byGroup = map[string][]*corpusModule{}
	for i := range mods {
		g := mods[i].group
		if byGroup[g] == nil {
			names = append(names, g)
		}
		byGroup[g] = append(byGroup[g], &mods[i])
	}
	return names, byGroup
}

// TestFuseGolden pins the fused view: for every module of the corpus the
// micro-ops, run steps, guard ranges, leader map and statistics must digest
// to the values committed in testdata/fuse.golden, and the vm_fuse_* counters
// must advance by the committed totals. The file was recorded from the
// map-and-closure builder this package started with, so a pass means the
// array-based fuser emits the same view bit for bit — and therefore the same
// Executed/Branches/MemOps, trap PCs and frames. Every view also has to pass
// the structural verifier.
func TestFuseGolden(t *testing.T) {
	mods := loadFuseCorpus(t)
	instrs0, micro0 := obs.GlobalCounters()["vm_fuse_orig_instrs"], obs.GlobalCounters()["vm_fuse_micro_ops"]
	got := make(map[string]string, len(mods))
	order := make([]string, 0, len(mods)+2)
	for i := range mods {
		mod := mods[i].load(t)
		if err := vm.CheckFused(mod); err != nil {
			t.Errorf("%s: %v", mods[i].name, err)
		}
		got[mods[i].name] = vm.FusedDigest(mod)
		order = append(order, mods[i].name)
	}
	for _, c := range []struct {
		name string
		base int64
	}{{"vm_fuse_orig_instrs", instrs0}, {"vm_fuse_micro_ops", micro0}} {
		key := "counter - " + c.name
		got[key] = strconv.FormatInt(obs.GlobalCounters()[c.name]-c.base, 10)
		order = append(order, key)
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
		if len(fields) != 4 {
			t.Fatalf("%s: malformed line %q", goldenFile, sc.Text())
		}
		key := strings.Join(fields[:3], " ")
		seen++
		if d, ok := got[key]; !ok {
			t.Errorf("%s: recorded but no longer built", key)
		} else if d != fields[3] {
			t.Errorf("%s: %s, golden %s", key, d, fields[3])
		}
	}
	if seen != len(got) {
		t.Errorf("%s holds %d entries, the corpus builds %d", goldenFile, seen, len(got))
	}
}

// TestFuseCensus keeps the combined-step set derived from the traffic it
// serves: every combined step opcode occurs in the steps of at least one
// corpus module, every one below the run-only boundary as a micro-op of at
// least one main stream (a runFused case nothing reaches is dead weight in the
// hot switch), and the structural verifier refuses a run-only step in a main
// stream, where runFused has no case for it.
func TestFuseCensus(t *testing.T) {
	mods := loadFuseCorpus(t)
	var steps, main [256]int
	for i := range mods {
		vm.Census(mods[i].load(t), &steps, &main)
	}
	for op := int(vm.CombinedFirst); op < int(vm.CombinedEnd); op++ {
		if steps[op] == 0 {
			t.Errorf("combined step opcode %d (CombinedFirst+%d) occurs in no module's steps", op, op-int(vm.CombinedFirst))
		}
		if op < int(vm.RunOnlyFirst) && main[op] == 0 {
			t.Errorf("combined step opcode %d (CombinedFirst+%d) is below the run-only boundary and in no main stream", op, op-int(vm.CombinedFirst))
		}
	}
	// Micro-op 0 of any module, re-labelled: a narrow combined opcode passes
	// the verifier (it checks structure, not operands), a run-only one must not.
	mod := mods[0].load(t)
	if err := vm.CheckWithOp(mod, 0, vm.RunOnlyFirst-1); err != nil {
		t.Errorf("narrow combined micro-op refused: %v", err)
	}
	for op := int(vm.RunOnlyFirst); op < int(vm.CombinedEnd); op++ {
		if vm.CheckWithOp(mod, 0, uint8(op)) == nil {
			t.Errorf("run-only opcode %d accepted as a main-stream micro-op", op)
		}
	}
}

var loadFuseSink int

// BenchmarkLoadFuse is the load path's one-command row: what vm.Load (decode
// plus branch resolution) and the fuser cost per module, for each engine's
// code on each target. One op is one module of the corpus, taken in turn, so
// ns/op and allocs/op read per module; ns/instr divides by the decoded
// instructions actually processed.
//
//	go test ./internal/vm -run '^$' -bench LoadFuse -benchmem
func BenchmarkLoadFuse(b *testing.B) {
	names, groups := corpusGroups(loadFuseCorpus(b))
	for _, g := range names {
		cms := groups[g]
		perInstr := func(b *testing.B, instrs int) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		}
		b.Run(strings.ReplaceAll(g, " ", "/")+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			instrs := 0
			for i := 0; i < b.N; i++ {
				c := cms[i%len(cms)]
				mod, err := vm.Load(c.arch, c.code)
				if err != nil {
					b.Fatal(err)
				}
				instrs += len(mod.Prog.Instrs)
			}
			perInstr(b, instrs)
		})
		b.Run(strings.ReplaceAll(g, " ", "/")+"/fuse", func(b *testing.B) {
			mods := make([]*vm.Module, len(cms))
			for i, c := range cms {
				mods[i] = c.load(b)
			}
			b.ReportAllocs()
			b.ResetTimer()
			instrs := 0
			for i := 0; i < b.N; i++ {
				st := vm.Refuse(mods[i%len(mods)])
				instrs += st.Instrs
				loadFuseSink += st.MicroOps
			}
			perInstr(b, instrs)
		})
	}
}

// TestFusedFootprintEstimate: until a module's first Call builds the fused
// view, Footprint charges it at a flat rate per decoded instruction, and a
// cache decides evictions on that figure. Over the corpus the estimate must
// stay within ±50% of what the view then measures.
func TestFusedFootprintEstimate(t *testing.T) {
	for _, c := range loadFuseCorpus(t) {
		mod := c.load(t)
		mod.SetFuse(false)
		base := mod.Footprint()
		mod.SetFuse(true)
		est := mod.Footprint() - base
		mod.FuseStats()
		exact := mod.Footprint() - base
		if 2*est < exact || 2*est > 3*exact {
			t.Errorf("%s: fused view estimated at %d bytes, measures %d (%.2fx)", c.name, est, exact, float64(est)/float64(exact))
		}
	}
}

// fuseAllocBudget is what one fuse call may allocate once the builder pool is
// warm: the view and its four arrays. All working state is pooled scratch.
const fuseAllocBudget = 5

func TestFuseAllocBudget(t *testing.T) {
	names, groups := corpusGroups(loadFuseCorpus(t))
	for _, g := range names {
		// The largest module of the group: scratch sized by it serves any other.
		big := groups[g][0]
		for _, c := range groups[g] {
			if len(c.code) > len(big.code) {
				big = c
			}
		}
		// The least of several calls, not their mean: under the race
		// detector sync.Pool drops builders at random and a call that drew a
		// fresh one grows its scratch from nothing.
		mod, least := big.load(t), 1e9
		for i := 0; i < 10; i++ {
			least = min(least, testing.AllocsPerRun(1, func() { vm.Refuse(mod) }))
		}
		if least > fuseAllocBudget {
			t.Errorf("%s: %v allocations per fuse call, budget %d", big.name, least, fuseAllocBudget)
		}
	}
}
