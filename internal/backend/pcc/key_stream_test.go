package pcc

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"testing"

	"qcc/internal/codegen"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/tpch"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// unitKeyStreamed is unitKey as it was before it serialized into one buffer:
// the same fields, each written to the hash on its own. Cached units are
// found by these keys, so the two must never differ.
func unitKeyStreamed(arch vt.Arch, variant string, mod *qir.Module, db *rt.DB, i int) string {
	h := sha256.New()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ws := func(s string) {
		w64(uint64(len(s)))
		io.WriteString(h, s)
	}
	w64(uint64(arch))
	ws(variant)
	f := mod.Funcs[i]
	ws(f.Name)
	w64(uint64(len(f.Params)))
	for _, t := range f.Params {
		w64(uint64(t))
	}
	w64(uint64(f.Ret))
	w64(uint64(len(f.Blocks)))
	for b := range f.Blocks {
		blk := &f.Blocks[b]
		w64(uint64(len(blk.Preds)))
		for _, p := range blk.Preds {
			w64(uint64(uint32(p)))
		}
		w64(uint64(len(blk.List)))
		for _, v := range blk.List {
			w64(uint64(uint32(v)))
		}
	}
	w64(uint64(len(f.Instrs)))
	for v := range f.Instrs {
		in := &f.Instrs[v]
		w64(uint64(in.Op))
		w64(uint64(in.Type))
		w64(uint64(uint32(in.A)))
		w64(uint64(uint32(in.B)))
		w64(uint64(uint32(in.C)))
		w64(uint64(in.Imm))
		w64(uint64(in.Aux))
		if in.Op == qir.OpConstStr {
			lo, hi := db.InternString(mod.Strings[in.Imm])
			w64(lo)
			w64(hi)
		}
		if in.Op == qir.OpConstPool {
			w64(db.ConstPoolAddr(int(in.Imm)))
		}
	}
	w64(uint64(len(f.Extra)))
	for _, x := range f.Extra {
		w64(uint64(uint32(x)))
	}
	w64(uint64(len(f.I128)))
	for _, x := range f.I128 {
		w64(x)
	}
	w64(uint64(len(mod.RTNames)))
	for _, n := range mod.RTNames {
		ws(n)
	}
	return string(h.Sum(nil))
}

// TestUnitKeyMatchesStreamedForm computes both forms over every function of
// every TPC-H module, hoisted and not, on both architectures.
func TestUnitKeyMatchesStreamedForm(t *testing.T) {
	for _, arch := range []vt.Arch{vt.VX64, vt.VA64} {
		m := vm.New(vm.Config{Arch: arch, MemSize: 128 << 20})
		db := rt.NewDB(m)
		cat := rt.NewCatalog(db)
		if err := tpch.Load(cat, 0.01); err != nil {
			t.Fatal(err)
		}
		funcs := 0
		for _, q := range tpch.Queries() {
			for _, hoist := range []bool{false, true} {
				c, err := codegen.CompileOpts(q.Name, q.Build(), cat, codegen.Options{Elim: true, Hoist: hoist})
				if err != nil {
					t.Fatalf("%s: %v", q.Name, err)
				}
				for i, f := range c.Module.Funcs {
					funcs++
					if unitKey(arch, "v", c.Module, db, i) != unitKeyStreamed(arch, "v", c.Module, db, i) {
						t.Errorf("%s/%s %s hoist=%v: key differs from the streamed form", arch, q.Name, f.Name, hoist)
					}
				}
			}
		}
		if funcs == 0 {
			t.Fatalf("%s: no functions compared", arch)
		}
	}
}
