package pcc

import (
	"crypto/sha256"
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
// The fields are serialized as qir.AppendFuncKey writes them — every integer
// as eight little-endian bytes, every string behind its length — into one
// pooled buffer and hashed in a single call; a fully cached statement spends
// its compile time here.
func unitKey(arch vt.Arch, variant string, mod *qir.Module, db *rt.DB, i int) string {
	bp := keyBufs.Get().(*[]byte)
	defer keyBufs.Put(bp)
	buf := qir.AppendKeyInt((*bp)[:0], uint64(arch))
	buf = qir.AppendKeyString(buf, variant)
	f := mod.Funcs[i]
	buf = qir.AppendFuncKey(buf, f, func(k []byte, _ qir.Value, in *qir.Instr) (uint64, []byte) {
		switch in.Op {
		case qir.OpConstStr:
			lo, hi := db.InternString(mod.Strings[in.Imm])
			k = qir.AppendKeyInt(qir.AppendKeyInt(k, lo), hi)
		case qir.OpConstPool:
			// The emitted unit bakes in the slot's machine address, not its
			// value (bound at execution time) — hash exactly that. Same DB
			// ⇒ same address ⇒ constant-only query variants share the unit;
			// a different DB yields a different address and a sound miss.
			k = qir.AppendKeyInt(k, db.ConstPoolAddr(int(in.Imm)))
		}
		return uint64(in.Imm), k
	})
	buf = qir.AppendKeyInt(buf, uint64(len(f.I128)))
	for _, x := range f.I128 {
		buf = qir.AppendKeyInt(buf, x)
	}
	buf = qir.AppendKeyInt(buf, uint64(len(mod.RTNames)))
	for _, n := range mod.RTNames {
		buf = qir.AppendKeyString(buf, n)
	}
	*bp = buf
	sum := sha256.Sum256(buf)
	return string(sum[:])
}

var keyBufs = sync.Pool{New: func() any { return new([]byte) }}
