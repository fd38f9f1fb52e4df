package rt

import (
	"fmt"

	"qcc/internal/qir"
	"qcc/internal/vm"
)

// Runtime constant pool: a fixed area of machine memory holding the values
// of literals the constant-hoisting pass moved out of compiled query bodies
// (qir.OpConstPool). The compiled code embeds only the slot address — a
// stable property of the DB, allocated in NewDB — and reads the value at
// execution time, so modules differing solely in literal values share
// compiled units in the content-addressed code cache. BindConstPool writes
// the current module's values before each execution.

// ConstPoolSlots is the pool capacity in slots. The hoisting pass falls back
// to inline literals when a module needs more, so this is a performance
// ceiling, not a correctness limit.
const ConstPoolSlots = 256

// constPoolSlotBytes is the slot width: 16 bytes holds every QIR value type
// (narrow integers sign-extended into the lo word, F64 bits in the lo word,
// I128 and Str as lo/hi pairs).
const constPoolSlotBytes = 16

// ConstPoolAddr returns the machine address of pool slot i. Back-ends call
// it at compile time to bake slot addresses into OpConstPool lowerings.
func (db *DB) ConstPoolAddr(slot int) uint64 {
	if slot < 0 || slot >= ConstPoolSlots {
		panic(fmt.Sprintf("rt: const-pool slot %d out of range [0,%d)", slot, ConstPoolSlots))
	}
	return db.poolBase + uint64(slot)*constPoolSlotBytes
}

// BindConstPool writes a module's hoisted literal values into the pool slots.
// String slots are interned into machine memory first (content-addressed per
// DB, so repeated binds of the same value are stable). Callers bind before
// every execution of a pooled module; binding is cheap (a few stores per
// slot) compared to the compilation it displaces.
func (db *DB) BindConstPool(pool []qir.PoolConst) (err error) {
	defer vm.CatchOOM(&err) // interning a long string allocates
	if len(pool) > ConstPoolSlots {
		return fmt.Errorf("rt: module needs %d const-pool slots, capacity is %d", len(pool), ConstPoolSlots)
	}
	for i := range pool {
		pc := &pool[i]
		lo, hi := pc.Lo, pc.Hi
		if pc.Type == qir.Str {
			lo, hi = db.InternString(pc.Str)
		}
		addr := db.ConstPoolAddr(i)
		put64(db.M.Mem[addr:addr+8], lo)
		put64(db.M.Mem[addr+8:addr+16], hi)
	}
	return nil
}
