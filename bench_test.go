package qc

// Benchmarks regenerating the paper's tables and figures as testing.B
// targets. Each benchmark compiles (and where relevant executes) the
// corresponding workload; run them all with
//
//	go test -bench=. -benchmem
//
// The cmd/qbench tool produces the formatted tables from the same drivers.

import (
	"testing"

	"qcc/internal/backend"
	"qcc/internal/backend/cbe"
	"qcc/internal/backend/clift"
	"qcc/internal/backend/direct"
	"qcc/internal/backend/interp"
	"qcc/internal/backend/lbe"
	"qcc/internal/bench"
	"qcc/internal/codegen"
	"qcc/internal/tpcds"
	"qcc/internal/tpch"
	"qcc/internal/vt"
)

const benchSF = 0.02

func benchWorld(b *testing.B, arch vt.Arch) *bench.World {
	b.Helper()
	cfg := bench.DefaultConfig()
	cfg.Arch = arch
	cfg.SF = benchSF
	cfg.MemMB = 512
	w := bench.NewWorld(cfg)
	if err := loadDSInto(w, benchSF); err != nil {
		b.Fatal(err)
	}
	return w
}

func loadDSInto(w *bench.World, sf float64) error {
	return tpcds.Load(w.Cat, sf)
}

func hLoad(w *bench.World, sf float64) error {
	return tpch.Load(w.Cat, sf)
}

// compileSuite compiles the whole TPC-DS suite once with one engine.
func compileSuite(b *testing.B, eng backend.Engine, arch vt.Arch) {
	b.Helper()
	w := benchWorld(b, arch)
	queries := bench.DSQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			c, err := codegen.Compile(q.Name, q.Build(), w.Cat)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := eng.Compile(c.Module, &backend.Env{DB: w.DB, Arch: arch}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTable1GCC measures the GCC/C back-end compiling all TPC-DS
// queries (Table I's total; qbench table1 prints the phase breakdown).
func BenchmarkTable1GCC(b *testing.B) { compileSuite(b, cbe.New(), vt.VX64) }

// BenchmarkFig2LLVMCheap and BenchmarkFig2LLVMOpt measure the two LLVM
// configurations of Figure 2.
func BenchmarkFig2LLVMCheap(b *testing.B) { compileSuite(b, lbe.NewCheap(), vt.VX64) }

// BenchmarkFig2LLVMOpt is the optimized configuration of Figure 2.
func BenchmarkFig2LLVMOpt(b *testing.B) { compileSuite(b, lbe.NewOpt(), vt.VX64) }

// BenchmarkFig3 measures the four va64 instruction-selector configurations
// of Figure 3.
func BenchmarkFig3FastISel(b *testing.B) { compileSuite(b, lbe.NewCheap(), vt.VA64) }

// BenchmarkFig3GlobalISelCheap is GlobalISel in the cheap pipeline.
func BenchmarkFig3GlobalISelCheap(b *testing.B) {
	compileSuite(b, lbe.NewWithConfig(lbe.Config{ISel: lbe.ISelGlobal}), vt.VA64)
}

// BenchmarkFig3SelectionDAG is the optimized SelectionDAG configuration.
func BenchmarkFig3SelectionDAG(b *testing.B) { compileSuite(b, lbe.NewOpt(), vt.VA64) }

// BenchmarkFig3GlobalISelOpt is GlobalISel in the optimized pipeline.
func BenchmarkFig3GlobalISelOpt(b *testing.B) {
	compileSuite(b, lbe.NewWithConfig(lbe.Config{Opt: true, ISel: lbe.ISelGlobal}), vt.VA64)
}

// BenchmarkFig4Cranelift measures Cranelift compiling all TPC-DS queries
// (Figure 4's total).
func BenchmarkFig4Cranelift(b *testing.B) { compileSuite(b, clift.New(), vt.VX64) }

// BenchmarkFig5DirectEmit measures DirectEmit compiling all TPC-DS queries
// (Figure 5's total).
func BenchmarkFig5DirectEmit(b *testing.B) { compileSuite(b, direct.New(), vt.VX64) }

// BenchmarkTable3 measures compile+execute for each back-end over the
// TPC-DS suite (Table III / Figure 6 data).
func BenchmarkTable3(b *testing.B) {
	for _, eng := range []backend.Engine{
		interp.New(), direct.New(), clift.New(), lbe.NewCheap(), lbe.NewOpt(), cbe.New(),
	} {
		b.Run(eng.Name(), func(b *testing.B) {
			cfg := bench.DefaultConfig()
			cfg.SF = benchSF
			cfg.MemMB = 512
			w := bench.NewWorld(cfg)
			if err := loadDSInto(w, benchSF); err != nil {
				b.Fatal(err)
			}
			queries := bench.DSQueries()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunSuite(w, eng, queries, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable2CraneliftInstrs executes TPC-DS with and without the
// custom Cranelift instructions (Table II's ablation).
func BenchmarkTable2CraneliftInstrs(b *testing.B) {
	for _, cse := range []struct {
		name string
		opts clift.Options
	}{
		{"all-custom", clift.Options{}},
		{"no-crc32", clift.Options{NoCrc32: true}},
		{"no-overflow", clift.Options{NoOverflow: true}},
		{"no-mulwide", clift.Options{NoMulWide: true}},
	} {
		b.Run(cse.name, func(b *testing.B) {
			cfg := bench.DefaultConfig()
			cfg.SF = benchSF
			cfg.MemMB = 512
			w := bench.NewWorld(cfg)
			if err := loadDSInto(w, benchSF); err != nil {
				b.Fatal(err)
			}
			queries := bench.DSQueries()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunSuite(w, clift.NewWithOptions(cse.opts), queries, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig7TradeOff runs the TPC-H suite end to end per back-end at one
// scale factor (Figure 7's inputs; qbench fig7 prints the winner table).
func BenchmarkFig7TradeOff(b *testing.B) {
	for _, eng := range []backend.Engine{
		interp.New(), direct.New(), clift.New(), lbe.NewCheap(), lbe.NewOpt(),
	} {
		b.Run(eng.Name(), func(b *testing.B) {
			cfg := bench.DefaultConfig()
			cfg.MemMB = 512
			w := bench.NewWorld(cfg)
			if err := hLoad(w, 0.05); err != nil {
				b.Fatal(err)
			}
			queries := bench.HQueries()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bench.RunSuite(w, eng, queries, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationLLVMStructs measures the Sec. V-A2 struct-representation
// regression: {i64,i64} structs vs scalar pairs.
func BenchmarkAblationLLVMStructs(b *testing.B) {
	b.Run("scalar-pairs", func(b *testing.B) { compileSuite(b, lbe.NewCheap(), vt.VX64) })
	b.Run("structs", func(b *testing.B) {
		compileSuite(b, lbe.NewWithConfig(lbe.Config{StructPairs: true}), vt.VX64)
	})
}

// BenchmarkAblationLLVMCodeModel measures Small-PIC vs the large code model
// (FastISel call fallbacks).
func BenchmarkAblationLLVMCodeModel(b *testing.B) {
	b.Run("small-pic", func(b *testing.B) { compileSuite(b, lbe.NewCheap(), vt.VX64) })
	b.Run("large", func(b *testing.B) {
		compileSuite(b, lbe.NewWithConfig(lbe.Config{LargeCodeModel: true}), vt.VX64)
	})
}

// BenchmarkAblationTargetMachineCache measures TargetMachine construction
// caching (Sec. V-A2, third measure).
func BenchmarkAblationTargetMachineCache(b *testing.B) {
	b.Run("cached", func(b *testing.B) { compileSuite(b, lbe.NewCheap(), vt.VX64) })
	b.Run("uncached", func(b *testing.B) {
		compileSuite(b, lbe.NewWithConfig(lbe.Config{NoTMCache: true}), vt.VX64)
	})
}
