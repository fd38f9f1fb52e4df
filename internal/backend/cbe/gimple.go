package cbe

import (
	"fmt"
	"math/bits"

	"qcc/internal/qir"
	"qcc/internal/sem"
	"qcc/internal/vt"
)

// The GIMPLE-like three-address representation the mini-C compiler lowers
// the AST into, plus the -O3-style scalar optimizations (constant folding,
// copy propagation, local CSE, dead code elimination).

type gOp uint8

const (
	gConst   gOp = iota // dst = imm
	gMov                // dst = a
	gBin                // dst = a <bin> b, or a <bin> imm when b < 0
	gCmp                // dst = a <pred> b (i1)
	gCast               // dst = cast(a) from ct2 to ct
	gLoad               // dst = *(ct*)(a + imm)
	gStore              // *(ct*)(a + imm) = b
	gCall               // dst? = rt<rtid>(args)
	gBuiltin            // dst = builtin(args)
	gAddrOf             // dst = &sym
	gGoto               // goto label
	gIfGoto             // if a goto label, or if a <pred> b goto label
	gLabel              // label:
	gRet                // return a?
	gTrap
)

type gBinKind uint8

const (
	bAdd gBinKind = iota
	bSub
	bMul
	bDiv
	bRem
	bUDiv
	bURem
	bAnd
	bOr
	bXor
	bShl
	bShr // logical (operand was cast to u64)
	bSar
)

type builtinKind uint8

const (
	biI128 builtinKind = iota
	biAddTrap
	biSubTrap
	biMulTrap
	biCrc32
	biLMulFold
	biRotr
	biZext
	biF64Bits
	biBitsF64
	biSelect
	biFSelect
	biTrapStmt
)

type tac struct {
	op    gOp
	dst   int32
	a, b  int32
	imm   int64
	ct    cType // operation/result or memory type
	ct2   cType // cast source type / builtin width
	bin   gBinKind
	pred  string
	unsig bool
	// unchecked marks gLoad/gStore whose check was statically discharged;
	// the assembler output uses the unchecked machine ops for them.
	unchecked bool
	rtid      uint32
	bi        builtinKind
	sym       string
	label     int32
	args      []int32
}

type gimpleFunc struct {
	name    string
	ret     cType
	nparams int
	vars    []cType // var id -> type
	code    []tac
	labels  map[string]int32
	nlabels int32
}

// gimplify lowers a parsed function to TAC.
func gimplify(fn *cfunc) (*gimpleFunc, error) {
	gf := &gimpleFunc{name: fn.name, ret: fn.ret, labels: map[string]int32{}}
	vars := map[string]int32{}
	newVar := func(ct cType) int32 {
		gf.vars = append(gf.vars, ct)
		return int32(len(gf.vars) - 1)
	}
	declare := func(name string, ct cType) int32 {
		id := newVar(ct)
		vars[name] = id
		return id
	}
	for _, p := range fn.params {
		declare(p.name, p.ct)
	}
	gf.nparams = len(fn.params)
	labelID := func(name string) int32 {
		if id, ok := gf.labels[name]; ok {
			return id
		}
		gf.nlabels++
		gf.labels[name] = gf.nlabels - 1
		return gf.nlabels - 1
	}
	emit := func(t tac) { gf.code = append(gf.code, t) }

	// flatten evaluates an expression into a variable.
	var flatten func(e *cexpr, want cType) (int32, error)
	flatten = func(e *cexpr, want cType) (int32, error) {
		switch e.kind {
		case eNum:
			d := newVar(ctI64)
			emit(tac{op: gConst, dst: d, a: -1, b: -1, imm: e.num, ct: ctI64})
			return d, nil
		case eVar:
			id, ok := vars[e.name]
			if !ok {
				return -1, fmt.Errorf("cbe: undeclared variable %s", e.name)
			}
			return id, nil
		case eAddr:
			d := newVar(ctI64)
			emit(tac{op: gAddrOf, dst: d, a: -1, b: -1, sym: e.name})
			return d, nil
		case eUn:
			a, err := flatten(e.l, want)
			if err != nil {
				return -1, err
			}
			d := newVar(gf.vars[a])
			switch e.op {
			case "-":
				z := newVar(gf.vars[a])
				emit(tac{op: gConst, dst: z, a: -1, b: -1, ct: gf.vars[a]})
				emit(tac{op: gBin, bin: bSub, dst: d, a: z, b: a, ct: gf.vars[a]})
			case "~":
				m := newVar(gf.vars[a])
				emit(tac{op: gConst, dst: m, a: -1, b: -1, imm: -1, ct: gf.vars[a]})
				emit(tac{op: gBin, bin: bXor, dst: d, a: a, b: m, ct: gf.vars[a]})
			default:
				return -1, fmt.Errorf("cbe: unary %q unsupported", e.op)
			}
			return d, nil
		case eCast:
			a, err := flatten(e.l, e.ct)
			if err != nil {
				return -1, err
			}
			from := gf.vars[a]
			if from == e.ct {
				return a, nil
			}
			d := newVar(e.ct)
			emit(tac{op: gCast, dst: d, a: a, b: -1, ct: e.ct, ct2: from})
			return d, nil
		case eLoad:
			a, err := flatten(e.l, ctPtr)
			if err != nil {
				return -1, err
			}
			d := newVar(e.ct)
			emit(tac{op: gLoad, dst: d, a: a, b: -1, ct: e.ct, unchecked: e.unchecked})
			return d, nil
		case eBin:
			a, err := flatten(e.l, want)
			if err != nil {
				return -1, err
			}
			b, err := flatten(e.r, want)
			if err != nil {
				return -1, err
			}
			at := gf.vars[a]
			if pred, ok := cmpPreds[e.op]; ok {
				d := newVar(ctI1)
				emit(tac{op: gCmp, dst: d, a: a, b: b, pred: pred,
					unsig: at == ctU64, ct: at})
				return d, nil
			}
			bk, err := binKind(e.op, at)
			if err != nil {
				return -1, err
			}
			d := newVar(at)
			emit(tac{op: gBin, bin: bk, dst: d, a: a, b: b, ct: at})
			return d, nil
		case eCall:
			return gimplifyCall(gf, e, vars, newVar, emit, flatten)
		}
		return -1, fmt.Errorf("cbe: cannot gimplify expression")
	}

	for _, st := range fn.body {
		switch st.kind {
		case sDecl:
			declare(st.name, st.ct)
		case sLabel:
			emit(tac{op: gLabel, dst: -1, a: -1, b: -1, label: labelID(st.name)})
		case sGoto:
			emit(tac{op: gGoto, dst: -1, a: -1, b: -1, label: labelID(st.name)})
		case sIfGoto:
			a, err := flatten(st.rhs, ctI64)
			if err != nil {
				return nil, err
			}
			emit(tac{op: gIfGoto, dst: -1, a: a, b: -1, label: labelID(st.name)})
		case sReturn:
			if st.rhs == nil {
				emit(tac{op: gRet, dst: -1, a: -1, b: -1})
			} else {
				a, err := flatten(st.rhs, fn.ret)
				if err != nil {
					return nil, err
				}
				emit(tac{op: gRet, dst: -1, a: a, b: -1})
			}
		case sTrap:
			emit(tac{op: gTrap, dst: -1, a: -1, b: -1})
		case sStore:
			addr, err := flatten(st.addr, ctPtr)
			if err != nil {
				return nil, err
			}
			val, err := flatten(st.rhs, st.ct)
			if err != nil {
				return nil, err
			}
			emit(tac{op: gStore, dst: -1, a: addr, b: val, ct: st.ct, unchecked: st.unchecked})
		case sAssign:
			lhs, ok := vars[st.name]
			if !ok {
				return nil, fmt.Errorf("cbe: assignment to undeclared %s", st.name)
			}
			v, err := flatten(st.rhs, gf.vars[lhs])
			if err != nil {
				return nil, err
			}
			emit(tac{op: gMov, dst: lhs, a: v, b: -1, ct: gf.vars[lhs]})
		case sCall:
			if _, err := flatten(st.rhs, ctVoid); err != nil {
				return nil, err
			}
		}
	}
	return gf, nil
}

var cmpPreds = map[string]string{
	"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge",
}

func binKind(op string, t cType) (gBinKind, error) {
	switch op {
	case "+":
		return bAdd, nil
	case "-":
		return bSub, nil
	case "*":
		return bMul, nil
	case "/":
		if t == ctU64 {
			return bUDiv, nil
		}
		return bDiv, nil
	case "%":
		if t == ctU64 {
			return bURem, nil
		}
		return bRem, nil
	case "&":
		return bAnd, nil
	case "|":
		return bOr, nil
	case "^":
		return bXor, nil
	case "<<":
		return bShl, nil
	case ">>":
		if t == ctU64 {
			return bShr, nil
		}
		return bSar, nil
	}
	return 0, fmt.Errorf("cbe: unknown operator %q", op)
}

var builtinByName = map[string]struct {
	kind builtinKind
	ct   cType
}{
	"__i128":         {biI128, ctI128},
	"__addtrap_i16":  {biAddTrap, ctI16},
	"__addtrap_i32":  {biAddTrap, ctI32},
	"__addtrap_i64":  {biAddTrap, ctI64},
	"__addtrap_i128": {biAddTrap, ctI128},
	"__subtrap_i16":  {biSubTrap, ctI16},
	"__subtrap_i32":  {biSubTrap, ctI32},
	"__subtrap_i64":  {biSubTrap, ctI64},
	"__subtrap_i128": {biSubTrap, ctI128},
	"__multrap_i16":  {biMulTrap, ctI16},
	"__multrap_i32":  {biMulTrap, ctI32},
	"__multrap_i64":  {biMulTrap, ctI64},
	"__multrap_i128": {biMulTrap, ctI128},
	"__addtrap_i8":   {biAddTrap, ctI8},
	"__subtrap_i8":   {biSubTrap, ctI8},
	"__multrap_i8":   {biMulTrap, ctI8},
	"__crc32":        {biCrc32, ctI64},
	"__lmulfold":     {biLMulFold, ctI64},
	"__rotr":         {biRotr, ctI64},
	"__zext_i1":      {biZext, ctI1},
	"__zext_i8":      {biZext, ctI8},
	"__zext_i16":     {biZext, ctI16},
	"__zext_i32":     {biZext, ctI32},
	"__zext_i64":     {biZext, ctI64},
	"__zext_ptr":     {biZext, ctPtr},
	"__f64bits":      {biF64Bits, ctI64},
	"__bitsf64":      {biBitsF64, ctF64},
	"__select":       {biSelect, ctI64},
	"__fselect":      {biFSelect, ctF64},
}

func gimplifyCall(gf *gimpleFunc, e *cexpr, vars map[string]int32,
	newVar func(cType) int32, emit func(tac),
	flatten func(*cexpr, cType) (int32, error)) (int32, error) {
	// Runtime calls: rtN(...).
	if len(e.name) > 2 && e.name[:2] == "rt" {
		var rtid uint32
		if _, err := fmt.Sscanf(e.name, "rt%d", &rtid); err != nil {
			return -1, fmt.Errorf("cbe: bad runtime callee %s", e.name)
		}
		var args []int32
		for _, a := range e.args {
			v, err := flatten(a, ctI64)
			if err != nil {
				return -1, err
			}
			args = append(args, v)
		}
		d := newVar(ctI128) // carrier for up to two result registers
		emit(tac{op: gCall, dst: d, a: -1, b: -1, rtid: rtid, args: args, ct: ctI128})
		return d, nil
	}
	bi, ok := builtinByName[e.name]
	if !ok {
		return -1, fmt.Errorf("cbe: unknown function %s", e.name)
	}
	var args []int32
	for _, a := range e.args {
		v, err := flatten(a, ctI64)
		if err != nil {
			return -1, err
		}
		args = append(args, v)
	}
	var resT cType
	switch bi.kind {
	case biI128:
		resT = ctI128
	case biAddTrap, biSubTrap, biMulTrap:
		resT = bi.ct
	case biBitsF64, biFSelect:
		resT = ctF64
	default:
		resT = ctI64
	}
	d := newVar(resT)
	emit(tac{op: gBuiltin, dst: d, a: -1, b: -1, bi: bi.kind, ct2: bi.ct, ct: resT, args: args})
	return d, nil
}

// optimizeGimple runs the scalar optimization pipeline to a fixpoint:
// copy propagation, constant folding with the algebraic identities and
// immediate operands the target encodes, local common-subexpression
// elimination, address-mode and move folding, branch clean-up, and dead code
// elimination.
func optimizeGimple(gf *gimpleFunc, tgt *vt.Target) (passesRun int) {
	passes := []func() bool{
		func() bool { return copyPropagate(gf) },
		func() bool { return constFold(gf, tgt) },
		func() bool { return localCSE(gf) },
		func() bool { return foldAddresses(gf, tgt) },
		func() bool { return coalesceMoves(gf) },
		func() bool { return cleanBranches(gf) },
		func() bool { return deadCodeElim(gf) },
	}
	for round := 0; round < 4; round++ {
		changed := false
		for _, pass := range passes {
			if pass() {
				changed = true
			}
			passesRun++
		}
		if !changed {
			break
		}
	}
	return passesRun
}

// defCounts returns per-var static assignment counts.
func defCounts(gf *gimpleFunc) []int32 {
	counts := make([]int32, len(gf.vars))
	for i := range gf.code {
		if d := gf.code[i].dst; d >= 0 {
			counts[d]++
		}
	}
	for p := 0; p < gf.nparams; p++ {
		counts[p]++
	}
	return counts
}

// copyPropagate replaces uses of single-def copy targets with their source
// when the source is also single-def.
func copyPropagate(gf *gimpleFunc) bool {
	counts := defCounts(gf)
	repl := make([]int32, len(gf.vars))
	for i := range repl {
		repl[i] = int32(i)
	}
	for i := range gf.code {
		t := &gf.code[i]
		if t.op == gMov && t.dst >= 0 && counts[t.dst] == 1 && counts[t.a] == 1 &&
			widens(gf.vars[t.dst], gf.vars[t.a]) {
			repl[t.dst] = t.a
		}
	}
	resolve := func(v int32) int32 {
		for repl[v] != v {
			v = repl[v]
		}
		return v
	}
	changed := false
	sub := func(v *int32) {
		if *v >= 0 {
			if r := resolve(*v); r != *v {
				*v = r
				changed = true
			}
		}
	}
	for i := range gf.code {
		t := &gf.code[i]
		sub(&t.a)
		sub(&t.b)
		for k := range t.args {
			sub(&t.args[k])
		}
	}
	return changed
}

// widens reports that a value of type from is, bit for bit, also the register
// image of type to: the same type, or an integer no narrower (narrow integers
// are kept sign-extended, so widening them changes nothing).
func widens(to, from cType) bool {
	return to == from || to.isInt() && from.isInt() && to.bits() >= from.bits()
}

// fitsImm reports whether v encodes as an immediate or displacement without
// the encoder expanding it into a constant-synthesis sequence.
func fitsImm(tgt *vt.Target, v int64) bool {
	return tgt.FixedLen == 0 || v >= -2048 && v < 2048
}

var immForm = [...]bool{bAdd: true, bSub: true, bMul: true, bAnd: true, bOr: true,
	bXor: true, bShl: true, bShr: true, bSar: true}

// constFold evaluates pure ops over single-def constants and, where only
// one operand is constant, applies the identities (x+0, x*1, x*2^k) and
// moves the constant into the instruction as an immediate. Casts that change
// nothing in a register become moves, for copy propagation to remove.
func constFold(gf *gimpleFunc, tgt *vt.Target) bool {
	counts := defCounts(gf)
	constOf := map[int32]int64{}
	for i := range gf.code {
		t := &gf.code[i]
		if t.op == gConst && t.dst >= 0 && counts[t.dst] == 1 && t.ct != ctI128 {
			constOf[t.dst] = t.imm
		}
	}
	changed := false
	for i := range gf.code {
		t := &gf.code[i]
		switch {
		case t.op == gCast && t.ct.isInt() && t.ct2.isInt():
			if av, ok := constOf[t.a]; ok {
				*t = tac{op: gConst, dst: t.dst, a: -1, b: -1, imm: int64(sem.Canon(semTypes[t.ct], uint64(av))), ct: t.ct}
			} else if widens(t.ct, t.ct2) {
				*t = tac{op: gMov, dst: t.dst, a: t.a, b: -1, ct: t.ct}
			} else {
				continue
			}
			changed = true
			continue
		case t.op == gMov && gf.vars[t.dst].isInt() && gf.vars[t.a].isInt():
			if av, ok := constOf[t.a]; ok {
				ct := gf.vars[t.dst]
				*t = tac{op: gConst, dst: t.dst, a: -1, b: -1, imm: int64(sem.Canon(semTypes[ct], uint64(av))), ct: ct}
				changed = true
			}
			continue
		case t.op != gBin || t.ct == ctF64:
			continue
		}
		av, aok := constOf[t.a]
		bv, bok := t.imm, true
		if t.b >= 0 {
			bv, bok = constOf[t.b]
		}
		if t.ct == ctI128 {
			// Only the shift count of a wide shift becomes an immediate.
			if bok && t.b >= 0 && (t.bin == bShl || t.bin == bShr || t.bin == bSar) {
				t.b, t.imm = -1, bv
				changed = true
			}
			continue
		}
		if aok && bok && counts[t.dst] == 1 {
			op := semOps[t.bin]
			if op == qir.OpInvalid {
				continue // division folding skipped (traps)
			}
			r, _, _ := sem.Eval(op, semTypes[t.ct], uint64(av), uint64(bv))
			*t = tac{op: gConst, dst: t.dst, a: -1, b: -1, imm: int64(r), ct: t.ct}
			constOf[t.dst] = t.imm
			changed = true
			continue
		}
		if aok && !bok && (t.bin == bAdd || t.bin == bMul || t.bin == bAnd || t.bin == bOr || t.bin == bXor) {
			t.a, t.b = t.b, t.a
			bv, aok, bok = av, false, true
		}
		if t.b < 0 || !bok || aok || !immForm[t.bin] {
			continue
		}
		switch {
		case bv == 0 && t.bin != bMul && t.bin != bAnd, bv == 1 && t.bin == bMul:
			*t = tac{op: gMov, dst: t.dst, a: t.a, b: -1, ct: gf.vars[t.dst]}
		case t.bin == bMul && bv > 1 && bv&(bv-1) == 0:
			t.bin, t.b, t.imm = bShl, -1, int64(bits.TrailingZeros64(uint64(bv)))
		case t.bin == bSub && bv != -bv && fitsImm(tgt, -bv):
			t.bin, t.b, t.imm = bAdd, -1, -bv
		case t.bin != bSub && fitsImm(tgt, bv):
			t.b, t.imm = -1, bv
		default:
			continue
		}
		changed = true
	}
	return changed
}

// semOps maps the binary operations constFold evaluates to the QIR
// operations whose meaning internal/sem defines; the divisions are absent.
var semOps = [...]qir.Op{bAdd: qir.OpAdd, bSub: qir.OpSub, bMul: qir.OpMul, bAnd: qir.OpAnd,
	bOr: qir.OpOr, bXor: qir.OpXor, bShl: qir.OpShl, bShr: qir.OpShr, bSar: qir.OpSar}

// semTypes is the QIR type of each integer C type; u64 and ptr are words.
var semTypes = [...]qir.Type{ctI1: qir.I1, ctI8: qir.I8, ctI16: qir.I16, ctI32: qir.I32,
	ctI64: qir.I64, ctU64: qir.I64, ctPtr: qir.I64}

// localCSE removes duplicated pure computations within straight-line
// regions (between labels, branches and calls).
func localCSE(gf *gimpleFunc) bool {
	type key struct {
		op    gOp
		bin   gBinKind
		pred  string
		unsig bool
		a, b  int32
		imm   int64
		ct    cType
		ct2   cType
	}
	counts := defCounts(gf)
	changed := false
	avail := map[key]int32{}
	repl := map[int32]int32{}
	sub := func(v *int32) {
		if r, ok := repl[*v]; ok && *v >= 0 {
			*v, changed = r, true
		}
	}
	for i := range gf.code {
		t := &gf.code[i]
		sub(&t.a)
		sub(&t.b)
		for k := range t.args {
			sub(&t.args[k])
		}
		switch t.op {
		case gLabel, gGoto, gIfGoto, gCall, gStore, gRet, gTrap:
			clear(avail)
			continue
		}
		// Only pure single-def defs participate; a redefinition makes
		// whatever was computed from the old value unavailable.
		if t.dst >= 0 && counts[t.dst] != 1 {
			clear(avail)
		}
		if t.dst < 0 || counts[t.dst] != 1 {
			continue
		}
		switch t.op {
		case gConst, gBin, gCmp, gCast, gAddrOf:
			k := key{op: t.op, bin: t.bin, pred: t.pred, unsig: t.unsig, a: t.a, b: t.b,
				imm: t.imm, ct: t.ct, ct2: t.ct2}
			if prev, ok := avail[k]; ok {
				repl[t.dst] = prev
				*t = tac{op: gMov, dst: t.dst, a: prev, b: -1, ct: t.ct}
				changed = true
			} else {
				avail[k] = t.dst
			}
		}
	}
	return changed
}

// deadCodeElim drops pure instructions whose results are never used.
func deadCodeElim(gf *gimpleFunc) bool {
	used := make([]bool, len(gf.vars))
	for i := range gf.code {
		gf.code[i].eachUse(func(v int32) { used[v] = true })
	}
	counts := defCounts(gf)
	changed := false
	var out []tac
	for i := range gf.code {
		t := gf.code[i]
		pure := t.op == gConst || t.op == gMov || t.op == gBin && t.bin != bDiv &&
			t.bin != bRem && t.bin != bUDiv && t.bin != bURem ||
			t.op == gCmp || t.op == gCast || t.op == gAddrOf
		if pure && t.dst >= 0 && !used[t.dst] && counts[t.dst] == 1 || t.op == gMov && t.dst == t.a {
			changed = true
			continue
		}
		out = append(out, t)
	}
	gf.code = out
	return changed
}
