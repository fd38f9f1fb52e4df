package rt

import (
	"bytes"
	"testing"
)

// FuzzDecodeBatchSpec feeds arbitrary bytes to DecodeBatchSpec. It must not
// panic; a spec it accepts has only in-range types and pool slots, payload
// columns that are columns, and re-encodes to the bytes it came from. The
// committed corpus under testdata/fuzz/FuzzDecodeBatchSpec is the encoded
// spec of every batch pipeline of TPC-H and TPC-DS (internal/codegen's
// TestBatchSpecCorpus); probeSpec adds the CASE node, which no workload
// kernel has.
//
//	go test ./internal/rt -run '^$' -fuzz FuzzDecodeBatchSpec -fuzztime 10s
func FuzzDecodeBatchSpec(f *testing.F) {
	f.Add(probeSpec().Encode())
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeBatchSpec(b)
		if err != nil {
			return
		}
		if got := s.Encode(); !bytes.Equal(got, b) {
			t.Fatalf("accepted spec re-encodes differently:\n in: %x\nout: %x", b, got)
		}
		var check func(e *BatchExpr)
		check = func(e *BatchExpr) {
			if e == nil {
				return
			}
			if e.Ty > BTStr || e.Kind == BEPool && e.Slot >= ConstPoolSlots {
				t.Fatalf("accepted %+v", e)
			}
			check(e.L)
			check(e.R)
			check(e.H)
		}
		for _, e := range s.Filters {
			check(e)
		}
		for _, k := range append(s.Probe, s.Keys...) {
			if k.Ty > BTStr {
				t.Fatalf("accepted key type %d", k.Ty)
			}
			check(k.E)
		}
		for _, a := range s.Aggs {
			if a.Ty > BTStr {
				t.Fatalf("accepted aggregate type %d", a.Ty)
			}
			check(a.Arg)
		}
		for _, p := range s.Payload {
			if p.Src.Kind != BECol && p.Src.Kind != BEBuildCol {
				t.Fatalf("accepted payload %+v", p.Src)
			}
			check(p.Src)
		}
	})
}

// TestDecodeBatchSpecRejectsBadCodes: a pool slot past the pool, a type, an
// operator or a sink out of range, bytes after the spec and a payload that
// is not a column are refused.
func TestDecodeBatchSpecRejectsBadCodes(t *testing.T) {
	pool := &BatchExpr{Kind: BEPool, Ty: BTInt, Slot: 3}
	spec := &BatchSpec{Sink: BatchSinkAgg, Width: 8,
		Filters: []*BatchExpr{{Kind: BECmp, Ty: BTInt, Op: BCmpLT,
			L: &BatchExpr{Kind: BECol, Ty: BTInt, Base: 0x100, Elem: 8}, R: pool}}}
	if _, err := DecodeBatchSpec(spec.Encode()); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(){
		"slot":       func() { pool.Slot = ConstPoolSlots },
		"type":       func() { pool.Ty = BTStr + 1 },
		"comparison": func() { spec.Filters[0].Op = BCmpGE + 1 },
		"sink":       func() { spec.Sink = BatchSinkBuild + 1 },
		"kind":       func() { pool.Kind = BECase + 1 },
	} {
		save, saveSpec := *pool, *spec
		saveCmp := *spec.Filters[0]
		mutate()
		if _, err := DecodeBatchSpec(spec.Encode()); err == nil {
			t.Errorf("bad %s accepted", name)
		}
		*pool, *spec, *spec.Filters[0] = save, saveSpec, saveCmp
	}
	if _, err := DecodeBatchSpec(append(spec.Encode(), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	build := &BatchSpec{Sink: BatchSinkBuild, Width: 16,
		Payload: []BatchCol{{Off: 8, Src: &BatchExpr{Kind: BEConst, Ty: BTInt, I: 1}}}}
	if _, err := DecodeBatchSpec(build.Encode()); err == nil {
		t.Error("payload of a constant accepted")
	}
}
