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
// runtime's, so a kernel running on a worker reads the values bound on the
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
	for _, rt := range []*DB{db, wdb} {
		var got []any
		for i, ty := range []BatchType{BTInt, BTI128, BTF64} {
			v, _, err := rt.bEval(&BatchExpr{Kind: BEPool, Ty: ty, Slot: uint64(i)}, bRows{})
			if err != nil || !v.isConst {
				t.Fatalf("worker=%v: slot %d evaluates to %+v, %v", rt == wdb, i, v, err)
			}
			got = append(got, []any{v.int(0), v.dec(0), v.flt(0)}[i])
		}
		for i := 3; i < 5; i++ {
			var buf [16]byte
			s, err := rt.strConst(&BatchExpr{Kind: BEPool, Ty: BTStr, Slot: uint64(i)}, &buf)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, string(s))
		}
		want := []any{int64(-10), I128{Lo: 5, Hi: 7}, 2.5, "AIR", long}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("worker=%v: the pool reads %v, want %v", rt == wdb, got, want)
		}
	}
}

// TestCheckedKernelsRun checks kernels with every expression kind, value
// type, sink and aggregate and runs them: the check leaves the spec as it
// was and the kernel runs the spec itself, over rows of zeros and, for the
// probe kernel, against an empty join table. A pool literal is read where
// the kernel evaluates it: one kernel, run again after the pool is bound to
// other values, counts the rows those values select, on both sides of the
// 12-byte inline limit of a string.
func TestCheckedKernelsRun(t *testing.T) {
	db := newDB(t)
	pool := []qir.PoolConst{{Type: qir.I64, Lo: 7}, {Type: qir.Str, Str: "AIR"}, {Type: qir.F64, Lo: math.Float64bits(2.5)}}
	if err := db.BindConstPool(pool); err != nil {
		t.Fatal(err)
	}
	rows := db.M.Alloc(0x6000) // the kernels' columns, at offsets into rows
	col := func(ty BatchType, off, elem uint64) *BatchExpr {
		return &BatchExpr{Kind: BECol, Ty: ty, Base: rows + off, Elem: elem}
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
	probe := probeSpec()
	probe.Probe[0].E.Base += rows
	run := func(k *BatchKernel) *hashTable {
		t.Helper()
		s := k.Spec()
		sink := db.handle(db.htCreate(s.Width, s.Sink == BatchSinkAgg)).(*hashTable)
		var join *hashTable
		if len(s.Probe) > 0 {
			join = db.handle(db.htCreate(32, false)).(*hashTable)
		}
		if err := db.batchExec(k, sink, join, 0, 4); err != nil {
			t.Fatalf("sink %d: %v", s.Sink, err)
		}
		return sink
	}
	for _, spec := range []*BatchSpec{agg, build, probe} {
		before := specBytes(spec)
		k, err := CheckBatchSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if k.Spec() != spec || !bytes.Equal(specBytes(spec), before) {
			t.Errorf("sink %d: the kernel is not the spec as it was checked", spec.Sink)
		}
		run(k)
	}

	// COUNT(*) WHERE i <= slot 0 AND s = slot 1 over four rows.
	long := "a string longer than twelve bytes"
	ints, strs := rows+0x1000, rows+0x4000
	for r, s := range []string{long, "AIR", long, "AIR"} {
		put64(db.M.Mem[ints+uint64(r)*8:], uint64(r))
		lo, hi := db.InternString(s)
		put64(db.M.Mem[strs+uint64(r)*16:], lo)
		put64(db.M.Mem[strs+uint64(r)*16+8:], hi)
	}
	count, err := CheckBatchSpec(&BatchSpec{Sink: BatchSinkAgg, Width: 8,
		Filters: []*BatchExpr{
			{Kind: BECmp, Ty: BTInt, Op: BCmpLE, L: col(BTInt, 0x1000, 8), R: &BatchExpr{Kind: BEPool, Ty: BTInt, Slot: 0}},
			{Kind: BECmp, Ty: BTStr, Op: BCmpEQ, L: col(BTStr, 0x4000, 16), R: &BatchExpr{Kind: BEPool, Ty: BTStr, Slot: 1}}},
		Aggs: []BatchAgg{{Fn: BAggCount, Ty: BTInt}}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		i    uint64
		s    string
		want uint64
	}{{7, "AIR", 2}, {2, "AIR", 1}, {2, long, 2}, {0, long, 1}, {3, "BUILDING", 0}} {
		if err := db.BindConstPool([]qir.PoolConst{{Type: qir.I64, Lo: c.i}, {Type: qir.Str, Str: c.s}}); err != nil {
			t.Fatal(err)
		}
		got := uint64(0)
		if sink := run(count); len(sink.entries) > 0 {
			got = le64(db.M.Mem[sink.entries[0]:])
		}
		if got != c.want {
			t.Errorf("i <= %d AND s = %q: %d rows, want %d", c.i, c.s, got, c.want)
		}
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
