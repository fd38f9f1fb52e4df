package rt

import (
	"bytes"
	"encoding/binary"
	"testing"

	"qcc/internal/qir"
)

// FuzzDecodeBatchSpec decodes arbitrary bytes into a kernel spec (specBytes'
// layout, read by readSpec without any check) and prepares it. PrepareBatch
// must not panic. A spec it accepts leaves the input spec unchanged and
// yields a kernel whose nodes all have a known kind, type and operator, with
// no pool slot left, every operand present and every payload entry a column;
// and the kernel runs over a few rows, against an empty probed table if it
// probes, with an error at most.
// The program decodes nothing any more: kernels are data beside the code,
// not bytes in it. The target keeps its name because its seeds are named
// tests, and it is the check that a malformed spec is an error, never a
// panic. The committed corpus under testdata/fuzz/FuzzDecodeBatchSpec is
// frozen: it holds the spec of every batch pipeline of TPC-H and TPC-DS as
// the code generator built them when the layout was retired, and nothing
// regenerates it, so it drifts from what the generator writes. The kernels
// the generator writes now are prepared by internal/codegen's
// TestFrontEndGolden. probeSpec adds the CASE node, which no workload kernel
// has.
//
//	go test ./internal/rt -run '^$' -fuzz FuzzDecodeBatchSpec -fuzztime 10s
func FuzzDecodeBatchSpec(f *testing.F) {
	f.Add(specBytes(probeSpec()))
	db := newDB(f)
	if err := db.BindConstPool([]qir.PoolConst{{Type: qir.I64, Lo: 7}, {Type: qir.Str, Str: "AIR"}}); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s := readSpec(b)
		bp, err := db.batchPrepare(s)
		if err != nil {
			return
		}
		if !bytes.Equal(specBytes(s), specBytes(readSpec(b))) {
			t.Fatal("preparing changed the spec")
		}
		walkSpec(bp.spec, func(e *BatchExpr, depth int) {
			switch {
			case e == nil:
				t.Fatal("accepted a missing operand")
			case e.Kind > BECase || e.Kind == BEPool || e.Ty > BTStr || depth > BatchMaxDepth:
				t.Fatalf("accepted %+v at depth %d", e, depth)
			case e.Kind == BEArith && e.Op > BArithMul, e.Kind == BECmp && e.Op > BCmpGE:
				t.Fatalf("accepted operator %d", e.Op)
			}
		})
		for _, p := range bp.spec.Payload {
			if p.Src.Kind != BECol && p.Src.Kind != BEBuildCol {
				t.Fatalf("accepted payload %+v", p.Src)
			}
		}
		if s.Width > 1<<10 {
			return
		}
		mark := db.M.HeapMark()
		defer db.ReleaseTo(mark)
		sink := db.handle(db.htCreate(s.Width, s.Sink == BatchSinkAgg)).(*hashTable)
		var probe *hashTable
		if len(s.Probe) > 0 {
			probe = db.handle(db.htCreate(64, false)).(*hashTable)
		}
		_ = db.batchExec(bp, sink, probe, 0, 4) // an error is an answer; a panic fails
	})
}

// walkSpec calls visit on every operand of the kernel s, with its depth: the
// roots (filters, keys, payload, aggregate arguments but Count's) and their
// children by kind.
func walkSpec(s *BatchSpec, visit func(e *BatchExpr, depth int)) {
	var walk func(e *BatchExpr, depth int)
	walk = func(e *BatchExpr, depth int) {
		visit(e, depth)
		if e == nil {
			return
		}
		switch e.Kind {
		case BEArith, BECmp:
			walk(e.L, depth+1)
			walk(e.R, depth+1)
		case BEBetween, BECase:
			walk(e.L, depth+1)
			walk(e.R, depth+1)
			walk(e.H, depth+1)
		}
	}
	for _, e := range s.Filters {
		walk(e, 0)
	}
	for _, k := range append(append([]BatchKey(nil), s.Probe...), s.Keys...) {
		walk(k.E, 0)
	}
	for _, a := range s.Aggs {
		if a.Fn != BAggCount || a.Arg != nil {
			walk(a.Arg, 0)
		}
	}
	for _, p := range s.Payload {
		walk(p.Src, 0)
	}
}

// specBytes writes s in the fuzz input layout: little-endian 64-bit words — a
// magic word, sink, width, then counted filters, probe keys, keys,
// aggregates and payload entries; an expression is its kind, then its
// fields and children by kind, and a missing one an all-ones word.
func specBytes(s *BatchSpec) []byte {
	var b []byte
	u := func(v uint64) { b = binary.LittleEndian.AppendUint64(b, v) }
	var expr func(e *BatchExpr)
	expr = func(e *BatchExpr) {
		if e == nil {
			u(^uint64(0))
			return
		}
		u(uint64(e.Kind))
		u(uint64(e.Ty))
		switch e.Kind {
		case BEConst:
			switch e.Ty {
			case BTInt:
				u(uint64(e.I))
			case BTI128:
				u(e.D.Lo)
				u(e.D.Hi)
			case BTF64:
				u(toBits(e.F))
			case BTStr:
				u(uint64(len(e.S)))
				b = append(b, e.S...)
			}
		case BEPool:
			u(e.Slot)
		case BECol, BEBuildCol:
			u(e.Base)
			u(e.Elem)
		case BEArith, BECmp:
			u(uint64(e.Op))
			expr(e.L)
			expr(e.R)
		case BEBetween, BECase:
			expr(e.L)
			expr(e.R)
			expr(e.H)
		}
	}
	keys := func(ks []BatchKey) {
		u(uint64(len(ks)))
		for _, k := range ks {
			u(uint64(k.Off))
			u(uint64(k.Ty))
			expr(k.E)
		}
	}
	u(0x3142435148435442)
	u(uint64(s.Sink))
	u(s.Width)
	u(uint64(len(s.Filters)))
	for _, f := range s.Filters {
		expr(f)
	}
	keys(s.Probe)
	keys(s.Keys)
	u(uint64(len(s.Aggs)))
	for _, a := range s.Aggs {
		u(uint64(a.Fn))
		u(uint64(a.Ty))
		u(uint64(a.Off))
		u(uint64(a.COff))
		if a.Arg == nil {
			u(0)
		} else {
			u(1)
			expr(a.Arg)
		}
	}
	u(uint64(len(s.Payload)))
	for _, p := range s.Payload {
		u(uint64(p.Off))
		expr(p.Src)
	}
	return b
}

// readSpec reads b in specBytes' layout and checks nothing: codes are
// truncated to their field's width, a word past the end reads as zero, and a
// count stops at the end of b. Everything else is PrepareBatch's to refuse.
func readSpec(b []byte) *BatchSpec {
	u := func() uint64 {
		if len(b) < 8 {
			b = nil
			return 0
		}
		v := binary.LittleEndian.Uint64(b)
		b = b[8:]
		return v
	}
	var expr func() *BatchExpr
	expr = func() *BatchExpr {
		if len(b) == 0 {
			return nil
		}
		e := &BatchExpr{Kind: BatchExprKind(u()), Ty: BatchType(u())}
		switch e.Kind {
		case BEConst:
			switch e.Ty {
			case BTInt:
				e.I = int64(u())
			case BTI128:
				e.D = I128{Lo: u(), Hi: u()}
			case BTF64:
				e.F = fbits(u())
			case BTStr:
				n := min(u(), uint64(len(b)))
				e.S, b = append([]byte(nil), b[:n]...), b[n:]
			}
		case BEPool:
			e.Slot = u()
		case BECol, BEBuildCol:
			e.Base, e.Elem = u(), u()
		case BEArith, BECmp:
			e.Op = uint8(u())
			e.L, e.R = expr(), expr()
		case BEBetween, BECase:
			e.L, e.R, e.H = expr(), expr(), expr()
		}
		return e
	}
	keys := func() []BatchKey {
		var ks []BatchKey
		for n := u(); n > 0 && len(b) > 0; n-- {
			ks = append(ks, BatchKey{Off: int64(u()), Ty: BatchType(u()), E: expr()})
		}
		return ks
	}
	u() // magic
	s := &BatchSpec{Sink: uint8(u()), Width: u()}
	for n := u(); n > 0 && len(b) > 0; n-- {
		s.Filters = append(s.Filters, expr())
	}
	s.Probe = keys()
	s.Keys = keys()
	for n := u(); n > 0 && len(b) > 0; n-- {
		a := BatchAgg{Fn: uint8(u()), Ty: BatchType(u()), Off: int64(u()), COff: int64(u())}
		if u() != 0 {
			a.Arg = expr()
		}
		s.Aggs = append(s.Aggs, a)
	}
	for n := u(); n > 0 && len(b) > 0; n-- {
		s.Payload = append(s.Payload, BatchCol{Off: int64(u()), Src: expr()})
	}
	return s
}

// TestPrepareBatchRejectsBadSpecs: a spec with a code out of range, a missing
// operand or one of another type than its parent reads, a pool slot past the
// pool, a tree deeper than BatchMaxDepth or a payload entry that is not a
// column is an error, never a panic.
func TestPrepareBatchRejectsBadSpecs(t *testing.T) {
	db := newDB(t)
	col := func() *BatchExpr { return &BatchExpr{Kind: BECol, Ty: BTInt, Base: 0x100, Elem: 8} }
	good := func() *BatchSpec {
		return &BatchSpec{Sink: BatchSinkAgg, Width: 24,
			Filters: []*BatchExpr{{Kind: BECmp, Ty: BTInt, Op: BCmpLT, L: col(),
				R: &BatchExpr{Kind: BEPool, Ty: BTInt, Slot: 3}}},
			Keys: []BatchKey{{Off: 0, Ty: BTInt, E: col()}},
			Aggs: []BatchAgg{{Fn: BAggSum, Ty: BTInt, Off: 8,
				Arg: &BatchExpr{Kind: BEArith, Ty: BTInt, Op: BArithAdd, L: col(), R: col()}},
				{Fn: BAggCount, Ty: BTInt, Off: 16}}}
	}
	if _, err := db.batchPrepare(good()); err != nil {
		t.Fatal(err)
	}
	deep := col()
	for i := 0; i <= BatchMaxDepth; i++ {
		deep = &BatchExpr{Kind: BEArith, Ty: BTInt, Op: BArithAdd, L: deep, R: col()}
	}
	for _, c := range []struct {
		name   string
		mutate func(s *BatchSpec)
	}{
		{"slot", func(s *BatchSpec) { s.Filters[0].R.Slot = ConstPoolSlots }},
		{"type", func(s *BatchSpec) { s.Filters[0].R.Ty = BTStr + 1 }},
		{"kind", func(s *BatchSpec) { s.Filters[0].R.Kind = BECase + 1 }},
		{"comparison", func(s *BatchSpec) { s.Filters[0].Op = BCmpGE + 1 }},
		{"arithmetic operator", func(s *BatchSpec) { s.Aggs[0].Arg.Op = BArithMul + 1 }},
		{"sink 0", func(s *BatchSpec) { s.Sink = 0 }},
		{"sink", func(s *BatchSpec) { s.Sink = BatchSinkBuild + 1 }},
		{"aggregate", func(s *BatchSpec) { s.Aggs[0].Fn = BAggAvg + 1 }},
		{"aggregate type", func(s *BatchSpec) { s.Aggs[1].Ty = BTStr + 1 }},
		{"missing operand", func(s *BatchSpec) { s.Filters[0].R = nil }},
		{"missing filter", func(s *BatchSpec) { s.Filters[0] = nil }},
		{"missing argument", func(s *BatchSpec) { s.Aggs[0].Arg = nil }},
		{"missing between bound", func(s *BatchSpec) {
			s.Filters[0] = &BatchExpr{Kind: BEBetween, Ty: BTInt, L: col(), R: col()}
		}},
		{"too deep", func(s *BatchSpec) { s.Aggs[0].Arg = deep }},
		{"operand of another type", func(s *BatchSpec) { s.Filters[0].L.Ty, s.Filters[0].L.Elem = BTI128, 16 }},
		{"argument of another type", func(s *BatchSpec) { s.Aggs[0].Ty = BTF64 }},
		{"aggregate over strings", func(s *BatchSpec) { s.Aggs[0].Ty = BTStr }},
		{"arithmetic over strings", func(s *BatchSpec) {
			s.Filters[0].R = &BatchExpr{Kind: BEArith, Ty: BTStr, L: s.Filters[0].R, R: col()}
		}},
		{"case of strings", func(s *BatchSpec) {
			s.Aggs[0].Arg = &BatchExpr{Kind: BECase, Ty: BTStr, L: s.Filters[0], R: col(), H: col()}
		}},
		{"case on a value", func(s *BatchSpec) {
			s.Aggs[0].Arg = &BatchExpr{Kind: BECase, Ty: BTInt, L: col(), R: col(), H: col()}
		}},
		{"key not a column", func(s *BatchSpec) { s.Keys[0].E = s.Aggs[0].Arg }},
		{"key outside its slot", func(s *BatchSpec) { s.Keys[0].Off = 20 }},
		{"build column in a scan kernel", func(s *BatchSpec) { s.Aggs[0].Arg.L.Kind = BEBuildCol }},
		{"payload of a constant", func(s *BatchSpec) {
			s.Payload = []BatchCol{{Off: 8, Src: &BatchExpr{Kind: BEConst, Ty: BTInt, I: 1}}}
		}},
		{"missing payload", func(s *BatchSpec) { s.Payload = []BatchCol{{Off: 8}} }},
	} {
		s := good()
		c.mutate(s)
		if _, err := db.batchPrepare(s); err == nil {
			t.Errorf("bad %s accepted", c.name)
		}
	}
	// One level shallower is within the limit.
	s := good()
	s.Aggs[0].Arg = deep.L
	if _, err := db.batchPrepare(s); err != nil {
		t.Errorf("a tree of depth %d: %v", BatchMaxDepth, err)
	}
}
