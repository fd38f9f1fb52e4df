package rt

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"qcc/internal/qir"
	"qcc/internal/vm"
)

// TestSharedDBMisusePanics is the regression test for the parallel-executor
// concurrency guard: once a DB is shared with the executor (or frozen),
// creating a handle from any other goroutine must panic loudly instead of
// silently corrupting the handle table.
func TestSharedDBMisusePanics(t *testing.T) {
	db := newDB(t)
	db.ShareForExec()
	defer db.EndShare()

	// The owner goroutine may keep creating handles.
	if id := db.newHandle("owner-ok"); id == 0 {
		t.Fatal("owner handle creation failed")
	}

	var msg string
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				msg, _ = r.(string)
			}
		}()
		db.newHandle("off-goroutine")
	}()
	wg.Wait()
	if msg == "" {
		t.Fatal("handle creation on a shared DB from a non-owner goroutine did not panic")
	}
	if !strings.Contains(msg, "non-owner goroutine") || !strings.Contains(msg, "NewWorkerDB") {
		t.Fatalf("panic message %q does not explain the misuse or the fix", msg)
	}
}

func TestFrozenDBMisusePanics(t *testing.T) {
	db := newDB(t)
	db.Freeze()
	defer db.Unfreeze()

	panicked := make(chan bool, 1)
	go func() {
		defer func() { panicked <- recover() != nil }()
		db.newHandle("x")
	}()
	if !<-panicked {
		t.Fatal("handle creation on a frozen DB from a non-owner goroutine did not panic")
	}
}

// TestEndShareLiftsGuard checks the guard is scoped to the share window.
func TestEndShareLiftsGuard(t *testing.T) {
	db := newDB(t)
	db.ShareForExec()
	db.EndShare()
	done := make(chan error, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("handle creation after EndShare panicked: %v", r)
			}
			done <- nil
		}()
		db.newHandle("fine")
	}()
	<-done
}

// TestWorkerOwnGuard checks a worker DB owned by one goroutine rejects
// handle creation from another.
func TestWorkerOwnGuard(t *testing.T) {
	db := newDB(t)
	wdb := db.NewWorkerDB(db.M)

	ready := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wdb.Own()
		wdb.newHandle("worker-local") // owner: fine
		close(ready)
		<-release
		wdb.Release()
	}()
	<-ready
	func() {
		defer func() {
			if recover() == nil {
				t.Error("handle creation on an owned worker DB from another goroutine did not panic")
			}
		}()
		wdb.newHandle("intruder")
	}()
	close(release)
	wg.Wait()

	// After Release the main goroutine may use it again.
	wdb.newHandle("post-release")
}

// TestWorkerSharesConstPool: a worker runtime's pool slots are the main
// runtime's, so a kernel set up on a worker reads the values bound on the
// main runtime — integers, decimals, floats and strings on both sides of the
// 12-byte inline limit.
func TestWorkerSharesConstPool(t *testing.T) {
	db := newDB(t)
	const arena = 1 << 20
	base := db.M.Alloc(arena)
	wdb := db.NewWorkerDB(vm.NewWorker(db.M, base, base+arena))
	for _, i := range []int{0, 1, ConstPoolSlots - 1} {
		if w, m := wdb.ConstPoolAddr(i), db.ConstPoolAddr(i); w != m {
			t.Errorf("slot %d: worker address %#x, main address %#x", i, w, m)
		}
	}
	long := "a string longer than twelve bytes"
	if err := db.BindConstPool([]qir.PoolConst{
		{Type: qir.I32, Lo: uint64(1<<64 - 10)},
		{Type: qir.I128, Lo: 5, Hi: 7},
		{Type: qir.F64, Lo: math.Float64bits(2.5)},
		{Type: qir.Str, Str: "AIR"},
		{Type: qir.Str, Str: long},
	}); err != nil {
		t.Fatal(err)
	}
	want := []*BatchExpr{
		{Kind: BEConst, Ty: BTInt, I: -10},
		{Kind: BEConst, Ty: BTI128, D: I128{Lo: 5, Hi: 7}},
		{Kind: BEConst, Ty: BTF64, F: 2.5},
		// An inline string constant also carries its value's words.
		{Kind: BEConst, Ty: BTStr, S: []byte("AIR"), D: I128{Lo: 3 | uint64('A')<<32 | uint64('I')<<40 | uint64('R')<<48}},
		{Kind: BEConst, Ty: BTStr, S: []byte(long)},
	}
	spec := &BatchSpec{Sink: BatchSinkAgg, Width: 8}
	for i, w := range want {
		elem := uint64(8)
		if w.Ty == BTI128 || w.Ty == BTStr {
			elem = 16
		}
		col := &BatchExpr{Kind: BECol, Ty: w.Ty, Base: 0x1000, Elem: elem}
		spec.Filters = append(spec.Filters, &BatchExpr{Kind: BECmp, Ty: w.Ty, Op: BCmpEQ,
			L: col, R: &BatchExpr{Kind: BEPool, Ty: w.Ty, Slot: uint64(i)}})
	}
	for _, rt := range []*DB{db, wdb} {
		bp, err := rt.batchPrepare(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range bp.spec.Filters {
			if !reflect.DeepEqual(f.R, want[i]) {
				t.Errorf("worker=%v: slot %d prepared as %+v, want %+v", rt == wdb, i, f.R, want[i])
			}
		}
		if len(bp.cols) != len(want) {
			t.Errorf("worker=%v: %d column references, want %d", rt == wdb, len(bp.cols), len(want))
		}
	}
}

// TestPrepareBatchCopiesSpec prepares kernels with every expression kind,
// value type, sink and aggregate: the kernel is the spec with each pool slot
// bound to the value the slot holds, it shares no node with the spec, and the
// spec is left as it was, so the next execution prepares from it again.
func TestPrepareBatchCopiesSpec(t *testing.T) {
	db := newDB(t)
	pool := []qir.PoolConst{{Type: qir.I64, Lo: 7}, {Type: qir.Str, Str: "AIR"}, {Type: qir.F64, Lo: math.Float64bits(2.5)}}
	if err := db.BindConstPool(pool); err != nil {
		t.Fatal(err)
	}
	col := func(ty BatchType, base, elem uint64) *BatchExpr {
		return &BatchExpr{Kind: BECol, Ty: ty, Base: base, Elem: elem}
	}
	agg := &BatchSpec{
		Sink:  BatchSinkAgg,
		Width: 72,
		Filters: []*BatchExpr{
			{Kind: BECmp, Ty: BTInt, Op: BCmpLE, L: col(BTInt, 0x1000, 4), R: &BatchExpr{Kind: BEPool, Ty: BTInt, Slot: 0}},
			{Kind: BEBetween, Ty: BTI128,
				L: col(BTI128, 0x2000, 16),
				R: &BatchExpr{Kind: BEConst, Ty: BTI128, D: I128{Lo: 5, Hi: 0}},
				H: &BatchExpr{Kind: BEConst, Ty: BTI128, D: I128{Lo: ^uint64(0), Hi: ^uint64(0)}}},
			{Kind: BECmp, Ty: BTF64, Op: BCmpGT,
				L: col(BTF64, 0x3000, 8),
				R: &BatchExpr{Kind: BEPool, Ty: BTF64, Slot: 2}},
			{Kind: BECmp, Ty: BTStr, Op: BCmpEQ,
				L: col(BTStr, 0x4000, 16),
				R: &BatchExpr{Kind: BEConst, Ty: BTStr, S: []byte("BUILDING")}},
		},
		Keys: []BatchKey{
			{Off: 0, Ty: BTStr, E: col(BTStr, 0x4000, 16)},
			{Off: 16, Ty: BTInt, E: col(BTInt, 0x1000, 4)},
		},
		Aggs: []BatchAgg{
			{Fn: BAggSum, Ty: BTI128, Off: 24,
				Arg: &BatchExpr{Kind: BEArith, Ty: BTI128, Op: BArithMul,
					L: col(BTI128, 0x2000, 16),
					R: &BatchExpr{Kind: BEArith, Ty: BTI128, Op: BArithSub,
						L: &BatchExpr{Kind: BEConst, Ty: BTI128, D: I128{Lo: 100}},
						R: col(BTI128, 0x5000, 16)}}},
			{Fn: BAggCount, Ty: BTInt, Off: 40},
			{Fn: BAggAvg, Ty: BTInt, Off: 48, COff: 56,
				Arg: &BatchExpr{Kind: BEArith, Ty: BTInt, Op: BArithAdd,
					L: col(BTInt, 0x1000, 8),
					R: &BatchExpr{Kind: BEConst, Ty: BTInt, I: 7}}},
			{Fn: BAggMin, Ty: BTF64, Off: 64, Arg: col(BTF64, 0x3000, 8)},
			{Fn: BAggMax, Ty: BTInt, Off: 56, Arg: col(BTInt, 0x1000, 2)},
		},
	}
	build := &BatchSpec{
		Sink:  BatchSinkBuild,
		Width: 32,
		Keys:  []BatchKey{{Off: 0, Ty: BTInt, E: col(BTInt, 0x100, 4)}},
		Payload: []BatchCol{
			{Off: 8, Src: col(BTInt, 0x200, 8)},
			{Off: 16, Src: col(BTStr, 0x300, 16)},
		},
	}
	for _, spec := range []*BatchSpec{agg, build, probeSpec()} {
		before := specBytes(spec)
		want := readSpec(before)
		walkSpec(want, func(e *BatchExpr, _ int) {
			if e.Kind == BEPool {
				v := pool[e.Slot]
				*e = BatchExpr{Kind: BEConst, Ty: e.Ty, I: int64(v.Lo), F: math.Float64frombits(v.Lo), S: []byte(v.Str)}
			}
		})
		bp, err := db.batchPrepare(spec)
		if err != nil {
			t.Fatal(err)
		}
		if got := specBytes(bp.spec); !bytes.Equal(got, specBytes(want)) {
			t.Errorf("sink %d: the kernel is not the spec with its pool slots bound:\n got %x\nwant %x", spec.Sink, got, specBytes(want))
		}
		if !bytes.Equal(specBytes(spec), before) {
			t.Errorf("sink %d: preparing changed the spec", spec.Sink)
		}
		nodes := map[*BatchExpr]bool{}
		walkSpec(spec, func(e *BatchExpr, _ int) { nodes[e] = true })
		walkSpec(bp.spec, func(e *BatchExpr, _ int) {
			if nodes[e] {
				t.Errorf("sink %d: the kernel shares node %+v with the spec", spec.Sink, e)
			}
		})
	}
}

// probeSpec is a probe kernel's spec with a build-column group key and a
// CASE over a build column.
func probeSpec() *BatchSpec {
	bcol := func(ty BatchType, off, elem uint64) *BatchExpr {
		return &BatchExpr{Kind: BEBuildCol, Ty: ty, Base: off, Elem: elem}
	}
	return &BatchSpec{
		Sink:  BatchSinkAgg,
		Width: 24,
		Probe: []BatchKey{{Off: 0, Ty: BTInt, E: &BatchExpr{Kind: BECol, Ty: BTInt, Base: 0x100, Elem: 4}}},
		Keys:  []BatchKey{{Off: 0, Ty: BTStr, E: bcol(BTStr, 16, 16)}},
		Aggs: []BatchAgg{{Fn: BAggSum, Ty: BTInt, Off: 16,
			Arg: &BatchExpr{Kind: BECase, Ty: BTInt,
				L: &BatchExpr{Kind: BECmp, Ty: BTStr, Op: BCmpEQ, L: bcol(BTStr, 16, 16),
					R: &BatchExpr{Kind: BEPool, Ty: BTStr, Slot: 1}},
				R: &BatchExpr{Kind: BEConst, Ty: BTInt, I: 1},
				H: bcol(BTInt, 8, 4)}}},
	}
}
