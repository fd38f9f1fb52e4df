package interp

import (
	"fmt"
	"math"
	"runtime"

	"qcc/internal/qir"
	"qcc/internal/sem"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// Call implements backend.Exec. Narrow integer values are kept
// sign-extended to 64 bits; I128 and Str occupy two words.
//
// The deferred guard mirrors the VM's runGuarded: accesses whose check the
// static analysis eliminated run without a software bounds test, so if the
// analysis was wrong the slice index faults — reported as TrapElimCheck
// rather than crashing the host. Deliberate interpreter panics (malformed
// bytecode) are not runtime errors and still propagate.
func (x *exec) Call(fn int, args ...uint64) (res [2]uint64, err error) {
	x.m.SetCallback(x.callback)
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(runtime.Error); ok {
				res, err = [2]uint64{}, &vm.Trap{Code: vt.TrapElimCheck, Msg: re.Error()}
				return
			}
			panic(r)
		}
	}()
	return x.run(fn, args)
}

// Operand access goes through bounds-checked accessor calls, modelling the
// per-operand decode work of a defensive register-bytecode interpreter (the
// reason interpretation is several times slower than compiled code even
// though both ultimately execute on the same host).
//
//go:noinline
func fetch(vals []uint64, s qir.Value) uint64 {
	if s < 0 || int(2*s) >= len(vals) {
		panic("interp: operand out of range")
	}
	return vals[2*s]
}

//go:noinline
func fetchHi(vals []uint64, s qir.Value) uint64 {
	if s < 0 || int(2*s+1) >= len(vals) {
		panic("interp: operand out of range")
	}
	return vals[2*s+1]
}

//go:noinline
func store(vals []uint64, d qir.Value, v uint64) {
	if d < 0 || int(2*d) >= len(vals) {
		panic("interp: destination out of range")
	}
	vals[2*d] = v
}

//go:noinline
func store2(vals []uint64, d qir.Value, lo, hi uint64) {
	if d < 0 || int(2*d+1) >= len(vals) {
		panic("interp: destination out of range")
	}
	vals[2*d] = lo
	vals[2*d+1] = hi
}

func (x *exec) callback(addr uint64, args ...uint64) ([2]uint64, error) {
	return x.run(int(addr), args)
}

// decodeCheck validates one instruction before dispatch: operand ids must
// lie inside the frame and jump targets inside the code. A defensive
// interpreter performs this per-operation decode work on every execution —
// a structural cost compiled code does not pay (the compiler validated the
// program once).
//
//go:noinline
func decodeCheck(f *bcFunc, in *bcInstr) {
	n := qir.Value(f.nvals)
	if in.A >= n || in.S >= n || in.B >= n && in.Op != qir.OpCall || in.C >= n {
		panic("interp: malformed bytecode operand")
	}
	switch in.Op {
	case bcJump, bcJumpIf:
		if in.Imm < 0 || in.Imm > int64(len(f.code)) {
			panic("interp: malformed jump target")
		}
	case qir.OpConst128:
		if in.Imm < 0 || int(in.Imm+1) >= len(f.pool) {
			panic("interp: malformed pool index")
		}
	case qir.OpCall:
		if int(in.B+in.C) > len(f.extra) {
			panic("interp: malformed call arguments")
		}
	}
}

func (x *exec) run(fn int, args []uint64) ([2]uint64, error) {
	if fn < 0 || fn >= len(x.funcs) {
		return [2]uint64{}, fmt.Errorf("interp: bad function %d", fn)
	}
	f := x.funcs[fn]
	vals := make([]uint64, 2*f.nvals)
	if len(args) > f.nparams {
		return [2]uint64{}, fmt.Errorf("interp: %s: %d args for %d params", f.name, len(args), f.nparams)
	}
	for i, a := range args {
		vals[2*i] = a
	}
	m := x.m
	tgt := m.Target()
	trap := func(code vt.TrapCode) error {
		return &vm.Trap{Code: code, Msg: "in " + f.name}
	}

	pc := 0
	for pc < len(f.code) {
		in := &f.code[pc]
		decodeCheck(f, in)
		switch in.Op {
		case bcJump:
			pc = int(in.Imm)
			continue
		case bcJumpIf:
			if vals[2*in.A] != 0 {
				pc = int(in.Imm)
				continue
			}
		case bcMove:
			store(vals, in.A, fetch(vals, in.B))
			vals[2*in.A+1] = fetchHi(vals, in.B)
		case qir.OpConst:
			store(vals, in.A, uint64(in.Imm))
		case qir.OpConst128:
			store(vals, in.A, f.pool[in.Imm])
			vals[2*in.A+1] = f.pool[in.Imm+1]
		case qir.OpConstPool:
			// Imm is the const-pool slot's machine address; the load is
			// unchecked because the pool area (allocated in NewDB) is
			// always-valid machine memory.
			if err := x.load(in.Type, uint64(in.Imm), vals[2*in.A:2*in.A+2], true); err != nil {
				return [2]uint64{}, err
			}
		case qir.OpNull:
			store(vals, in.A, 0)
		case qir.OpFuncAddr:
			store(vals, in.A, uint64(in.Aux))
		case qir.OpAdd, qir.OpSub, qir.OpMul, qir.OpAnd, qir.OpOr, qir.OpXor,
			qir.OpShl, qir.OpShr, qir.OpSar, qir.OpRotr, qir.OpSDiv, qir.OpSRem,
			qir.OpUDiv, qir.OpURem, qir.OpSAddTrap, qir.OpSSubTrap, qir.OpSMulTrap:
			// One call into internal/sem per operation (too large to inline):
			// the evaluation cost the interpreter models.
			var code vt.TrapCode
			var ok bool
			if in.Type == qir.I128 {
				var r sem.I128
				r, code, ok = sem.Eval128(in.Op, sem.I128{Lo: fetch(vals, in.S), Hi: fetchHi(vals, in.S)},
					sem.I128{Lo: fetch(vals, in.B), Hi: fetchHi(vals, in.B)})
				store2(vals, in.A, r.Lo, r.Hi)
			} else {
				var r uint64
				r, code, ok = sem.Eval(in.Op, in.Type, fetch(vals, in.S), fetch(vals, in.B))
				store(vals, in.A, r)
			}
			if !ok {
				return [2]uint64{}, trap(code)
			}
		case qir.OpNeg, qir.OpNot:
			switch in.Type {
			case qir.F64:
				store(vals, in.A, math.Float64bits(-math.Float64frombits(fetch(vals, in.S))))
			case qir.I128:
				r, _, _ := sem.Eval128(in.Op, sem.I128{Lo: fetch(vals, in.S), Hi: fetchHi(vals, in.S)}, sem.I128{})
				store2(vals, in.A, r.Lo, r.Hi)
			default:
				r, _, _ := sem.Eval(in.Op, in.Type, fetch(vals, in.S), 0)
				store(vals, in.A, r)
			}
		case qir.OpICmp:
			var r bool
			if in.Type == qir.I128 {
				r = sem.ICmp128(qir.Cmp(in.Aux), sem.I128{Lo: fetch(vals, in.S), Hi: fetchHi(vals, in.S)},
					sem.I128{Lo: fetch(vals, in.B), Hi: fetchHi(vals, in.B)})
			} else {
				r = sem.ICmp(qir.Cmp(in.Aux), fetch(vals, in.S), fetch(vals, in.B))
			}
			store(vals, in.A, b2u(r))
		case qir.OpZExt, qir.OpSExt, qir.OpTrunc:
			lo, hi := sem.Convert(in.Op, in.Type, qir.Type(in.Aux), fetch(vals, in.S))
			store2(vals, in.A, lo, hi)
		case qir.OpFAdd:
			store(vals, in.A, math.Float64bits(math.Float64frombits(fetch(vals, in.S))+math.Float64frombits(fetch(vals, in.B))))
		case qir.OpFSub:
			store(vals, in.A, math.Float64bits(math.Float64frombits(fetch(vals, in.S))-math.Float64frombits(fetch(vals, in.B))))
		case qir.OpFMul:
			store(vals, in.A, math.Float64bits(math.Float64frombits(fetch(vals, in.S))*math.Float64frombits(fetch(vals, in.B))))
		case qir.OpFDiv:
			store(vals, in.A, math.Float64bits(math.Float64frombits(fetch(vals, in.S))/math.Float64frombits(fetch(vals, in.B))))
		case qir.OpFCmp:
			store(vals, in.A, b2u(sem.FCmp(qir.Cmp(in.Aux),
				math.Float64frombits(fetch(vals, in.S)), math.Float64frombits(fetch(vals, in.B)))))
		case qir.OpSIToFP:
			store(vals, in.A, math.Float64bits(float64(int64(fetch(vals, in.S)))))
		case qir.OpFPToSI:
			store(vals, in.A, sem.Canon(in.Type, uint64(int64(math.Float64frombits(fetch(vals, in.S))))))
		case qir.OpFBits, qir.OpBitsF:
			store(vals, in.A, fetch(vals, in.S))
		case qir.OpCrc32:
			store(vals, in.A, vt.Crc32c8(fetch(vals, in.S), fetch(vals, in.B)))
		case qir.OpLMulFold:
			store(vals, in.A, lmulfold(fetch(vals, in.S), fetch(vals, in.B)))
		case qir.OpGEP:
			addr := fetch(vals, in.S) + uint64(in.Imm)
			if in.B != qir.NoValue {
				addr += fetch(vals, in.B) * uint64(in.Aux)
			}
			store(vals, in.A, addr)
		case qir.OpLoad:
			if err := x.load(in.Type, fetch(vals, in.S), vals[2*in.A:2*in.A+2],
				in.Aux&qir.MemUnchecked != 0); err != nil {
				return [2]uint64{}, err
			}
		case qir.OpStore:
			if err := x.storeRaw(in.Type, fetch(vals, in.S), fetch(vals, in.B), fetchHi(vals, in.B),
				in.Aux&qir.MemUnchecked != 0); err != nil {
				return [2]uint64{}, err
			}
		case qir.OpSelect:
			if fetch(vals, in.S) != 0 {
				store2(vals, in.A, fetch(vals, in.B), fetchHi(vals, in.B))
			} else {
				store2(vals, in.A, fetch(vals, in.C), fetchHi(vals, in.C))
			}
		case qir.OpCall:
			if err := x.rtCall(f, in, vals, tgt); err != nil {
				return [2]uint64{}, err
			}
		case qir.OpRet:
			var r [2]uint64
			if in.S != qir.NoValue {
				r[0], r[1] = fetch(vals, in.S), fetchHi(vals, in.S)
			}
			return r, nil
		case qir.OpUnreachable:
			return [2]uint64{}, trap(vt.TrapUnreachable)
		default:
			return [2]uint64{}, fmt.Errorf("interp: %s: bad bytecode op %d at %d", f.name, in.Op, pc)
		}
		pc++
	}
	return [2]uint64{}, fmt.Errorf("interp: %s: fell off end of bytecode", f.name)
}

// memCheck validates one access; unchecked accesses skip it entirely unless
// the machine is in StrictUnchecked differential mode, where an eliminated
// check that would have fired raises TrapElimCheck instead of TrapOOB.
func (x *exec) memCheck(addr, n uint64, unchecked bool, what string) error {
	if unchecked && !x.m.StrictUnchecked {
		return nil
	}
	if addr < 4096 || addr+n > uint64(len(x.m.Mem)) {
		if unchecked {
			return &vm.Trap{Code: vt.TrapElimCheck, Msg: what}
		}
		return &vm.Trap{Code: vt.TrapOOB, Msg: what}
	}
	return nil
}

func (x *exec) storeRaw(t qir.Type, addr, lo, hi uint64, unchecked bool) error {
	mem := x.m.Mem
	n := uint64(t.Size())
	if err := x.memCheck(addr, n, unchecked, "store"); err != nil {
		return err
	}
	switch t {
	case qir.I1, qir.I8:
		mem[addr] = byte(lo)
	case qir.I16:
		mem[addr] = byte(lo)
		mem[addr+1] = byte(lo >> 8)
	case qir.I32:
		put32(mem[addr:], uint32(lo))
	case qir.I64, qir.F64, qir.Ptr:
		put64(mem[addr:], lo)
	case qir.I128, qir.Str:
		put64(mem[addr:], lo)
		put64(mem[addr+8:], hi)
	default:
		return fmt.Errorf("interp: store of %s", t)
	}
	return nil
}

func (x *exec) load(t qir.Type, addr uint64, dst []uint64, unchecked bool) error {
	mem := x.m.Mem
	n := uint64(t.Size())
	if err := x.memCheck(addr, n, unchecked, "load"); err != nil {
		return err
	}
	switch t {
	case qir.I1:
		dst[0] = uint64(mem[addr] & 1)
	case qir.I8:
		dst[0] = uint64(int64(int8(mem[addr])))
	case qir.I16:
		dst[0] = uint64(int64(int16(uint16(mem[addr]) | uint16(mem[addr+1])<<8)))
	case qir.I32:
		dst[0] = uint64(int64(int32(le32(mem[addr:]))))
	case qir.I64, qir.F64, qir.Ptr:
		dst[0] = le64(mem[addr:])
	case qir.I128, qir.Str:
		dst[0] = le64(mem[addr:])
		dst[1] = le64(mem[addr+8:])
	default:
		return fmt.Errorf("interp: load of %s", t)
	}
	return nil
}

// rtCall marshals arguments into the machine's argument registers per the
// calling convention and invokes the bound runtime function.
func (x *exec) rtCall(f *bcFunc, in *bcInstr, vals []uint64, tgt *vt.Target) error {
	args := f.extra[in.B : in.B+in.C]
	reg := 0
	for _, a := range args {
		if reg >= len(tgt.IntArgs) {
			return fmt.Errorf("interp: too many call args in %s", f.name)
		}
		x.m.R[tgt.IntArgs[reg]] = vals[2*a]
		reg++
		if f.wide.Get(a) {
			if reg >= len(tgt.IntArgs) {
				return fmt.Errorf("interp: too many call args in %s", f.name)
			}
			x.m.R[tgt.IntArgs[reg]] = vals[2*a+1]
			reg++
		}
	}
	id := int(in.Aux)
	if id >= len(x.m.RT) || x.m.RT[id] == nil {
		return fmt.Errorf("interp: unbound runtime function %d", id)
	}
	if err := x.m.CallRT(id); err != nil {
		return err
	}
	if in.Type != qir.Void {
		store(vals, in.A, x.m.R[tgt.IntRet[0]])
		if in.Type.Is128() {
			vals[2*in.A+1] = x.m.R[tgt.IntRet[1]]
		}
	}
	return nil
}
