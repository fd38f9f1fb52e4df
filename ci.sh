#!/bin/sh
# ci.sh — the checks a change must pass before merging, one numbered item per
# "== … ==" stage below, in order. No stage compares durations: what a stage
# holds is a count, a digest, a differential or an exit status.
#   1. go vet, here and in the separate benchmark/ module
#   2. full build
#   3. one query path and one query language: outside internal/backend/,
#      internal/engine/, examples/irtour and benchmark/ no non-test file may
#      build a backend.Env or call codegen.Run/RunParallel — a copy
#      of the compile→run sequence fails the build instead of drifting — and
#      no non-test file of internal/tpch or internal/tpcds may build a plan
#      node: the workloads are SQL text the front-end plans; and one
#      definition of an operation: outside internal/sem and benchmark/ no
#      non-test file may define a top-level canon… function, apply the
#      signed-high-multiply correction (hi -= uint64(…)) or spell out a
#      signed compare (return int64(a) < int64(b), or <=), so the meaning
#      of an operation is not copied out of internal/sem again; and one
#      description per target op: outside internal/vt and benchmark/ no
#      non-test file may define visitOperands, visitMOperands, accessSize
#      or immToRR or spell out the register-immediate ALU list
#      (vt.AddI, vt.SubI, …) — what a vt op reads, writes, encodes and
#      commutes is read from the internal/vt table
#   4. one ledger: benchmark/ is where wall-clock numbers come from, so no
#      BENCH_*.json may reappear at the root and this script may not pass a
#      wall-clock gate or budget flag to anything
#   5. tests under the race detector (exercises the concurrent obs counters,
#      the parallel compilation driver's worker pool, and qc.DB's lock: four
#      goroutines on one cached database get the rows of a database each,
#      TestConcurrentStatements); the fused-vs-unfused
#      view differential (identical results, counters and trap PCs on every
#      TPC-H query, all back-ends, both archs) runs here as
#      TestFusedDispatchDifferential, and the SQL join-planning differential
#      (generated 2-3-table joins planned vs the old planner kept as the
#      test oracle: equal rows on every engine, no trap the oracle lacks) and
#      the operation-semantics conformance (TestOpSemantics: every engine
#      and the fused and unfused views against internal/sem on edge
#      operands) in their -short forms
#   6. the benchmark module's own tests, which root `go test ./...` never
#      compiles
#   7. a smoke run of the reproduction harness emitting the stable JSON report
#   8. the verification stack (qir verifier, regalloc checker, machine lint,
#      cross-backend differential, unchecked-mark conservation) over the
#      TPC-H suite on both targets and every compiling engine, GCC included,
#      sequentially
#   9. the same on vx64 through the parallel driver (-jobs 4)
#  10. a qprof smoke run (one TPC-H query per arch): the profiler must
#      produce a valid qcc.prof/v1 report attributing >= 95% of sampled VM
#      time to named plan operators
#  11. the static-analysis lint gate: qlint over TPC-H on both targets must
#      report zero findings (unreachable blocks, dead stores, always-trap
#      accesses, range contradictions) in the generated QIR
#  12. the strict unchecked differential under the race detector: every
#      eliminated check re-validated at runtime across all back-ends, both
#      archs (TestCheckElimRatioGate, in step 5, holds the share of q1/q6
#      checks that must be proven redundant)
#  13. the parallel-executor differential under the race detector: every
#      TPC-H query, both archs, batch kernels off and on, at 1/2/4/8 workers
#      must produce byte-identical ordered output to the sequential
#      tuple-at-a-time reference (and the actually-parallel guard proves the
#      workers really ran — no silent sequential fallback — as the
#      differential proves that probe kernels ran on the TPC-H joins at
#      every worker count with batch kernels on)
#  14. the hoist differential under the race detector: every TPC-H and
#      TPC-DS query with literals pooled vs baked inline must produce
#      identical rows on every back-end (short mode: vx64), plus the
#      trap-boundary corpus (literals exactly on overflow/div-zero edges
#      must trap identically, with deterministic trap PCs, in both modes)
#  15. the execution-mode counters, counts only: batch execution never runs
#      more vm instructions than tuple execution, and on q1/q6 the kernels
#      see every lineitem row once, 4 workers take 5 morsels and the
#      instruction count drops >= 50x; every constant variant of the four
#      parameterized families after the first misses nothing in the unit
#      cache, tuple-at-a-time and with batch kernels, and pooled bodies run
#      <= 1.03x the inline bodies' instructions; under qc.Open's defaults
#      (batch kernels on) the q1- and q6-shaped sql_adhoc statements run
#      <= 1/50 of WithBatch(false)'s instructions with equal rows, and every
#      variant of the six sql_adhoc families after its first is a
#      statement-shape hit (qc.Stats.ProgramHit) on the benchmark's four
#      engines, and the q3- and q12-shaped
#      statements run probe kernels at <= 1/8 and <= 1/100 of
#      WithBatch(false)'s instructions with equal rows; single-table and
#      q12-shaped statements that differ only in what their kernels compute
#      are code hits (engine.code_cache_hits) after the first, which advance
#      neither
#      sa.functions_analyzed, pcc.cache_hits/misses nor vm_fuse_*, on those
#      four engines, at 1 and 4 workers, with the rows of an uncached
#      database and the interpreter (TestNovelKernelShapesCompileNothing);
#      a sampler changes no row and no counter, and takes the number of
#      samples its period and the instruction count bound; the SQL-join
#      counters: the q3- and q12-shaped sql_adhoc statements run <= 0.5x the
#      old planner's vm instructions with equal rows, and single-table
#      statements plan to the old planner's fingerprint
#      (TestCountersSQLJoinPlans)
#  16. the front-end and hit-path gate, counts only: over the TPC-H and
#      TPC-DS plans sa.functions_analyzed must equal the number of generated
#      functions, every literal must be pooled, and CompileOpts on q1 and q6
#      must stay inside the committed allocation budget; across warm
#      statement-shape hits on every engine, each counted by
#      engine.shape_cache_hits, sql.statements_parsed,
#      sa.functions_analyzed, hoist.candidates, pcc.cache_hits+misses, the
#      vm_fuse_* counters, engine.shape_cache_misses and
#      engine.shape_cache_declines must not advance and Exec must stay
#      inside its allocation budget (TestWarmHitIsFlat);
#      each statement-shape hazard — a table re-created, a literal that stops
#      fitting, a pinned literal, another engine — must give the rows of an
#      uncached database and advance engine.shape_cache_hits,
#      engine.shape_cache_misses or engine.shape_cache_declines as stated
#      (TestShapeCacheHazards); each code-level hazard — another table, a
#      table created after the code was stored, appended rows, a re-created
#      table, a hoisted literal behind another number of kernel literals,
#      literals kept inline, another engine, Check, ExecJobs — must give the rows of an uncached database and the
#      interpreter on the four sql_adhoc engines at 1 and 4 workers and
#      advance engine.code_cache_hits, engine.code_cache_misses or
#      engine.code_cache_declines as stated (TestCodeCacheHazards); a
#      statement whose code was evicted, or declined and compiled again,
#      under its shape entry runs its own kernels on the new code
#      (TestCodeReplacedUnderItsBindings); a sql_adhoc-style stream on the
#      four engines declines nothing, stores at most two entries (shape and
#      code) per engine.shape_cache_misses, finds its code compiled for at
#      least half of them (engine.code_cache_hits) and proves every memory
#      access safe (sa.checks_eliminated = sa.mem_ops; TestAdhocStreamCounts);
#      then one-iteration smokes of BenchmarkFrontEnd and BenchmarkExecWarm,
#      the two layers' one-command reproductions
#  17. the load-path gate: over every TPC-H and TPC-DS module of every
#      compiling engine on both targets the fused view must digest to the
#      committed values and vm_fuse_orig_instrs/vm_fuse_micro_ops advance by
#      the committed totals (TestFuseGolden), every combined step opcode
#      must occur in some module and every one with a main-stream case in
#      some main stream (TestFuseCensus), one fuse call must stay inside
#      its allocation budget — the outputs; scratch is pooled
#      (TestFuseAllocBudget) — and Module.Footprint's pre-fusion estimate
#      within ±50% of the built view; then 10 s of FuzzLoadFuse (bytes →
#      Decode → Load → fuse → structural check) and a one-iteration smoke of
#      BenchmarkLoadFuse, the layer's one-command row
#  18. 10 s of FuzzParse: arbitrary text through the SQL front-end over the
#      TPC-H and TPC-DS schemas, from a corpus of every workload statement
#      and the sql_adhoc family statements — no panic, every plan it returns
#      validates and has a fingerprint, and every statement that parses gets
#      twins with other literal values and the same shape key, each of which
#      the statement-shape binding either declines or binds to the
#      fingerprint key, literal values and column names a parse of the twin
#      gives
#  19. 10 s of FuzzSem: random (operation, width, operands) through
#      internal/sem against a math/big evaluation, from a corpus of every
#      operation at every width
#  20. 10 s of FuzzAssemble: arbitrary text through the C back-end's
#      assembler on both targets, from a corpus of its own output for TPC-H
#      functions — no panic, and every function it accepts decodes
#  21. 10 s of FuzzDecodeBatchSpec: arbitrary bytes read as a batch-kernel
#      spec (in the byte layout kernels had when the code carried them; the
#      program no longer decodes anything, the name is kept for its seeds)
#      and prepared the way the executor prepares a kernel — no panic;
#      rt.CheckBatchSpec, the check the code generator runs on every spec,
#      accepts exactly the specs PrepareBatch accepts; a spec it accepts is
#      left unchanged and its kernel has no out-of-range code, pool slot or
#      depth, no missing operand and no payload that is not a column. Its
#      corpus is frozen: the TPC-H and TPC-DS kernels of
#      the commit that retired the layout, and a spec with a CASE; nothing
#      regenerates it. The kernels the generator writes today are prepared
#      by TestFrontEndGolden (stage 5)
#  22. the coverage census: every test of the tree run once with coverage
#      over the whole tree (census.sh); the non-test functions outside cmd/,
#      examples/ and benchmark/ that no test enters must be exactly the
#      committed list in testdata/unreached.txt, so a function that becomes
#      unreached, or reached, shows up as a diff of that list in review
set -eu

cd "$(dirname "$0")"

tmp="$(mktemp -t qbench-report.XXXXXX.json)"
ptmp="$(mktemp -t qprof-report.XXXXXX.json)"
trap 'rm -f "$tmp" "$ptmp"' EXIT

echo "== 1. go vet =="
go vet ./...
go vet -C benchmark ./...

echo "== 2. go build =="
go build ./...

echo "== 3. one query path, one query language, one meaning per operation, one description per target op (no compile/run copies outside internal/engine, no hand-built workload plans, no operation semantics outside internal/sem, no operand walks or op lists outside internal/vt) =="
copies="$(find . -name '*.go' ! -name '*_test.go' \
	! -path './internal/backend/*' ! -path './internal/engine/*' \
	! -path './examples/irtour/*' ! -path './benchmark/*' ! -path './.bench_build/*' \
	-exec grep -nE 'backend\.Env\{|codegen\.Run(Parallel)?\(' {} + || true)"
if [ -n "$copies" ]; then
	echo "$copies"
	echo "compile and run queries through the internal/engine stages, not a copy of them" >&2
	exit 1
fi
hand="$(find ./internal/tpch ./internal/tpcds -name '*.go' ! -name '*_test.go' -exec grep -n '&plan\.' {} + || true)"
if [ -n "$hand" ]; then
	echo "$hand"
	echo "write workload queries as SQL text; internal/sql plans them" >&2
	exit 1
fi
sems="$(find . -name '*.go' ! -name '*_test.go' \
	! -path './internal/sem/*' ! -path './benchmark/*' ! -path './.bench_build/*' \
	-exec grep -nE '^func canon|hi -= uint64\(|return int64\(a\) <=? int64\(b\)' {} + || true)"
if [ -n "$sems" ]; then
	echo "$sems"
	echo "call internal/sem for what an operation means instead of defining it again" >&2
	exit 1
fi

ops="$(find . -name '*.go' ! -name '*_test.go' \
	! -path './internal/vt/*' ! -path './benchmark/*' ! -path './.bench_build/*' \
	-exec grep -nE '^func (\([^)]*\) )?(visitOperands|visitMOperands|accessSize|immToRR)\(|vt\.AddI, vt\.SubI' {} + || true)"
if [ -n "$ops" ]; then
	echo "$ops"
	echo "read what a target op reads, writes, encodes and commutes from the internal/vt table" >&2
	exit 1
fi

echo "== 4. one ledger (no BENCH_*.json at the root, no wall-clock gate in this script) =="
# The pattern is split so that this line is not itself a match.
stale="$(ls BENCH_*.json 2>/dev/null || true; grep -nE -- '-(gate|budget)'' ' ci.sh || true)"
if [ -n "$stale" ]; then
	echo "$stale"
	echo "wall-clock numbers come from benchmark/run.sh; CI asserts counters (internal/engine/counters_test.go)" >&2
	exit 1
fi

echo "== 5. go test -race =="
go test -race ./...
go test -race -short ./internal/sql -run 'TestJoinPlanDifferential' -count=1
go test -race -short ./internal/backend/conformance -run 'TestOpSemantics' -count=1

echo "== 6. go test (benchmark module) =="
go test -C benchmark ./...

echo "== 7. qbench smoke (-sf 0.01 -json) =="
go run ./cmd/qbench -sf 0.01 -json "$tmp"
grep -q '"schema": "qcc.obs.report/v2"' "$tmp"
echo "report OK: $tmp"

# qverify runs the stack and requires that GCC went through its checked
# compiles (a pipe into grep would hide qverify's exit status).
qverify() {
	go run ./cmd/qverify "$@" >"$tmp"
	cat "$tmp"
	grep -q '^qverify: gcc: ' "$tmp"
}

echo "== 8. qverify (tpch, vx64 + va64, gcc included) =="
qverify -sf 0.01
qverify -sf 0.01 -arch va64

echo "== 9. qverify (tpch, vx64, parallel driver -jobs 4, gcc included) =="
qverify -sf 0.01 -jobs 4

echo "== 10. qprof smoke (q6, vx64 + va64) =="
for arch in vx64 va64; do
	go run ./cmd/qprof -arch "$arch" -query q6 -sf 0.01 -runs 4 -period 4096 \
		-format json -o "$ptmp"
	grep -q '"schema": "qcc.prof/v1"' "$ptmp"
	# At least 95% of samples must resolve to a named plan operator.
	go run ./cmd/qprof -format top "$ptmp" | grep -qE '9[5-9]\.[0-9]+% attributed|100\.0+% attributed'
	echo "qprof $arch OK"
done

echo "== 11. qlint (tpch, vx64 + va64) =="
go run ./cmd/qlint -sf 0.01 -workload tpch
go run ./cmd/qlint -sf 0.01 -workload tpch -arch va64

echo "== 12. strict unchecked differential (-race) =="
go test -race ./internal/backend/conformance/ \
	-run 'TestStrictUncheckedTPCHDifferential|TestAdversarialTrapCorpus|TestStrictCatchesBadElimination' -count=1

echo "== 13. parallel executor differential (-race) =="
go test -race ./internal/backend/conformance/ \
	-run 'TestParallelDifferential|TestParallelActuallyParallel' -count=1

echo "== 14. hoist differential (-race, short) =="
go test -race -short ./internal/backend/conformance/ \
	-run 'TestHoistDifferential|TestHoistTrapBoundaryCorpus' -count=1

echo "== 15. execution-mode counters (batch/morsel, plan cache, sampler, SQL join plans, batch by default; no clock) =="
go test ./internal/engine -run 'TestCounters' -count=1
go test . -run 'TestCounters|TestNovelKernelShapesCompileNothing' -count=1
go test ./internal/sql -run 'TestCountersSQLJoinPlans' -count=1

echo "== 16. front-end and hit-path gate (one analysis per function, allocation budgets; nothing compiled on a warm program hit; shape and code hazards) =="
go test ./internal/codegen -run 'TestOneAnalysisPerFunction' -count=1
go test ./internal/codegen -run '^$' -bench FrontEnd -benchtime=1x -benchmem
go test . -run 'TestWarmHitIsFlat|TestShapeCacheHazards|TestCodeCacheHazards' -count=1
go test ./internal/engine -run 'TestCodeReplacedUnderItsBindings|TestAdhocStreamCounts' -count=1
go test . -run '^$' -bench ExecWarm -benchtime=1x

echo "== 17. load-path gate (fused view golden, opcode census, fuse allocation budget, footprint estimate, fuzz smoke) =="
go test ./internal/vm -run 'TestFuseGolden|TestFuseCensus|TestFuseAllocBudget|TestFusedFootprintEstimate' -count=1
go test ./internal/vm -run '^$' -fuzz FuzzLoadFuse -fuzztime 10s
go test ./internal/vm -run '^$' -bench LoadFuse -benchtime=1x -benchmem

echo "== 18. SQL parser and statement-shape fuzz smoke =="
go test ./internal/sql -run '^$' -fuzz FuzzParse -fuzztime 10s

echo "== 19. operation semantics fuzz smoke =="
go test ./internal/sem -run '^$' -fuzz FuzzSem -fuzztime 10s

echo "== 20. C back-end assembler fuzz smoke =="
go test ./internal/backend/cbe -run '^$' -fuzz FuzzAssemble -fuzztime 10s

echo "== 21. batch-kernel spec preparation fuzz smoke =="
go test ./internal/rt -run '^$' -fuzz FuzzDecodeBatchSpec -fuzztime 10s

echo "== 22. coverage census (never-entered non-test functions = testdata/unreached.txt) =="
sh ./census.sh >"$tmp"
if ! diff -u testdata/unreached.txt "$tmp"; then
	echo "the functions no test enters changed: reach them from a test or delete them, then regenerate with: sh census.sh > testdata/unreached.txt" >&2
	exit 1
fi

echo "ci.sh: all checks passed"
