package pcc

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"

	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vt"
)

// unitKey computes the canonical cache fingerprint of function i: a sha256
// over the target architecture, the back-end variant string, and everything
// in the module the emitted unit bytes can depend on —
//
//   - the function name (lbe and cbe link units by symbol name),
//   - the signature, block structure, and raw instruction stream,
//   - the Extra and I128 constant pools,
//   - the machine addresses of interned string constants (OpConstStr bakes
//     them into the code as immediates; interning is content-addressed per
//     runtime, so equal addresses imply equal strings, and a different
//     runtime DB yields different addresses and therefore a miss),
//   - the module's full runtime-import table (call targets are encoded as
//     indices into it, and lbe routes them through index-labeled PLT stubs).
//
// Hashing the full RTNames list over-approximates (a function using none of
// the helpers still misses when an unrelated import differs), trading a few
// cross-module hits for soundness; the headline warm-run workload repeats
// whole modules, where RTNames match exactly.
//
// The fields are serialized — every integer as eight little-endian bytes,
// every string behind its length — into one pooled buffer and hashed in a
// single call; a fully cached statement spends its compile time here.
func unitKey(arch vt.Arch, variant string, mod *qir.Module, db *rt.DB, i int) string {
	bp := keyBufs.Get().(*[]byte)
	defer keyBufs.Put(bp)
	buf := (*bp)[:0]
	w64 := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	ws := func(s string) {
		w64(uint64(len(s)))
		buf = append(buf, s...)
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
			// The emitted unit bakes in the slot's machine address, not its
			// value (bound at execution time) — hash exactly that. Same DB
			// ⇒ same address ⇒ constant-only query variants share the unit;
			// a different DB yields a different address and a sound miss.
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
	*bp = buf
	sum := sha256.Sum256(buf)
	return string(sum[:])
}

var keyBufs = sync.Pool{New: func() any { return new([]byte) }}
