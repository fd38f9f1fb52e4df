// Package cbe implements the GCC/C back-end: QIR is printed as C source
// text, an external-compiler-style pipeline then lexes and parses the text
// back (the ~13% overhead the paper measures), lowers it to a GIMPLE-like
// three-address form, optimizes at -O3-ish strength, generates textual
// assembly, assembles the text into machine code, and finally links the
// object — reproducing the structural costs (text round-trips, separate
// assembler and linker steps) that make this the slowest back-end by an
// order of magnitude.
package cbe

import (
	"fmt"
	"math"
	"strings"

	"qcc/internal/backend"
	"qcc/internal/qir"
	"qcc/internal/rt"
)

// The generated C dialect:
//
//	types    i1 i8 i16 i32 i64 i128 u64 f64 ptr
//	stmts    decls, `v = expr;`, `*(T*)(a + d) = v;`, `if (v) goto L;`,
//	         `goto L;`, `L:`, `return v;`, `__trap();`
//	exprs    binary ops, casts, loads, runtime calls rtN(...), builtins
//	         (__addtrap_T, __subtrap_T, __multrap_T, __crc32, __lmulfold,
//	         __mulwide_hi, __i128, __lshr_i128, __select, __rotr, __f64bits,
//	         __bitsf64),
//	         function addresses &name, ternary via __select
//
// Values of the 16-byte string type are pairs of i64 variables; i128 is a
// first-class type (as with GCC's __int128).

// cgen prints one QIR function as C.
type cgen struct {
	f   *qir.Func
	env *backend.Env
	sb  strings.Builder
	// names per value: v<N> (or v<N>_lo / v<N>_hi for strings).
	wide []bool
}

func typeName(t qir.Type) string {
	switch t {
	case qir.I1:
		return "i1"
	case qir.I8:
		return "i8"
	case qir.I16:
		return "i16"
	case qir.I32:
		return "i32"
	case qir.I64:
		return "i64"
	case qir.I128:
		return "i128"
	case qir.F64:
		return "f64"
	case qir.Ptr:
		return "ptr"
	}
	panic("cbe: no C type for " + t.String())
}

// GenerateC renders the whole module as a translation unit.
func GenerateC(mod *qir.Module, env *backend.Env) (string, error) {
	var sb strings.Builder
	sb.WriteString("/* generated by qcc */\n")
	for _, f := range mod.Funcs {
		src, err := funcC(f, env)
		if err != nil {
			return "", err
		}
		sb.WriteString(src)
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

// funcC renders one function as C. It interns no string and imports no
// runtime helper that prepareModule did not.
func funcC(f *qir.Func, env *backend.Env) (string, error) {
	g := &cgen{f: f, env: env}
	if err := g.fn(); err != nil {
		return "", err
	}
	return g.sb.String(), nil
}

// prepareModule makes the module-level mutations that printing the module
// as C makes, in the order GenerateC makes them: it interns each string
// constant in the runtime and imports the runtime helper of each checked
// 128-bit multiplication. Afterwards funcC reads both tables and changes
// neither, so functions can be printed in any order, or concurrently.
func prepareModule(mod *qir.Module, env *backend.Env) {
	for _, f := range mod.Funcs {
		for b := range f.Blocks {
			for _, v := range f.Blocks[b].List {
				switch in := &f.Instrs[v]; {
				case in.Op == qir.OpConstStr:
					env.DB.InternString(mod.Strings[in.Imm])
				case in.Op == qir.OpSMulTrap && in.Type == qir.I128:
					mod.RTImport(rt.FnI128MulOv)
				}
			}
		}
	}
}

func (g *cgen) val(v qir.Value) string { return fmt.Sprintf("v%d", v) }

// mangle turns a function name into a valid C identifier.
func mangle(name string) string {
	var sb strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			i > 0 && c >= '0' && c <= '9' {
			sb.WriteByte(c)
		} else {
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

func (g *cgen) fn() error {
	f := g.f
	g.wide = make([]bool, len(f.Instrs))
	for i := range f.Instrs {
		g.wide[i] = f.Instrs[i].Type == qir.Str
	}
	// Signature.
	ret := "void"
	if f.Ret != qir.Void {
		if f.Ret == qir.Str {
			ret = "i128" // multi-register return carried in an i128
		} else {
			ret = typeName(f.Ret)
		}
	}
	fmt.Fprintf(&g.sb, "%s %s(", ret, mangle(f.Name))
	for i, pt := range f.Params {
		if i > 0 {
			g.sb.WriteString(", ")
		}
		if pt == qir.Str {
			fmt.Fprintf(&g.sb, "i64 v%d_lo, i64 v%d_hi", i, i)
		} else {
			fmt.Fprintf(&g.sb, "%s v%d", typeName(pt), i)
		}
	}
	g.sb.WriteString(") {\n")

	// Declarations for all non-param values.
	for v := len(f.Params); v < len(f.Instrs); v++ {
		in := &f.Instrs[v]
		if in.Type == qir.Void || in.Op == qir.OpParam {
			continue
		}
		if in.Type == qir.Str {
			fmt.Fprintf(&g.sb, "  i64 v%d_lo; i64 v%d_hi;\n", v, v)
		} else {
			fmt.Fprintf(&g.sb, "  %s v%d;\n", typeName(in.Type), v)
		}
	}
	// Phi staging temporaries (parallel copies on edges).
	maxPhis := 0
	for b := range f.Blocks {
		c := 0
		for _, v := range f.Blocks[b].List {
			if f.Instrs[v].Op == qir.OpPhi {
				c++
			}
		}
		if c > maxPhis {
			maxPhis = c
		}
	}
	for k := 0; k < maxPhis; k++ {
		fmt.Fprintf(&g.sb, "  i64 t%d_lo; i64 t%d_hi; i128 t%d_w; f64 t%d_f;\n", k, k, k, k)
	}
	g.sb.WriteString("  i128 ctmp;\n")

	for b := range f.Blocks {
		fmt.Fprintf(&g.sb, "L%d:;\n", b)
		for _, v := range f.Blocks[b].List {
			in := &f.Instrs[v]
			if in.Op == qir.OpPhi || in.Op == qir.OpParam {
				continue
			}
			if in.Op.IsTerminator() {
				if err := g.term(qir.BlockID(b), in); err != nil {
					return err
				}
				continue
			}
			if err := g.inst(v, in); err != nil {
				return err
			}
		}
	}
	g.sb.WriteString("}\n")
	return nil
}

// phiMoves prints the parallel copies for one edge: plain assignments when
// no copy reads a phi the edge also writes, else staged through temporaries.
func (g *cgen) phiMoves(pred, succ qir.BlockID) {
	f := g.f
	type mv struct {
		phi, src qir.Value
	}
	var moves []mv
	for _, v := range f.Blocks[succ].List {
		in := &f.Instrs[v]
		if in.Op != qir.OpPhi {
			break
		}
		pairs := f.PhiPairs(v)
		for i := 0; i < len(pairs); i += 2 {
			if pairs[i] == pred {
				moves = append(moves, mv{phi: v, src: pairs[i+1]})
				break
			}
		}
	}
	staged := false
	for _, m := range moves {
		for _, o := range moves {
			staged = staged || m.src == o.phi
		}
	}
	if !staged {
		for _, m := range moves {
			if f.ValueType(m.phi) == qir.Str {
				fmt.Fprintf(&g.sb, "  v%d_lo = v%d_lo; v%d_hi = v%d_hi;\n", m.phi, m.src, m.phi, m.src)
			} else {
				fmt.Fprintf(&g.sb, "  v%d = v%d;\n", m.phi, m.src)
			}
		}
		return
	}
	for k, m := range moves {
		switch f.ValueType(m.phi) {
		case qir.Str:
			fmt.Fprintf(&g.sb, "  t%d_lo = v%d_lo; t%d_hi = v%d_hi;\n", k, m.src, k, m.src)
		case qir.I128:
			fmt.Fprintf(&g.sb, "  t%d_w = v%d;\n", k, m.src)
		case qir.F64:
			fmt.Fprintf(&g.sb, "  t%d_f = v%d;\n", k, m.src)
		default:
			fmt.Fprintf(&g.sb, "  t%d_lo = v%d;\n", k, m.src)
		}
	}
	for k, m := range moves {
		switch f.ValueType(m.phi) {
		case qir.Str:
			fmt.Fprintf(&g.sb, "  v%d_lo = t%d_lo; v%d_hi = t%d_hi;\n", m.phi, k, m.phi, k)
		case qir.I128:
			fmt.Fprintf(&g.sb, "  v%d = t%d_w;\n", m.phi, k)
		case qir.F64:
			fmt.Fprintf(&g.sb, "  v%d = t%d_f;\n", m.phi, k)
		default:
			fmt.Fprintf(&g.sb, "  v%d = (%s)t%d_lo;\n", m.phi, typeName(f.ValueType(m.phi)), k)
		}
	}
}

func (g *cgen) term(b qir.BlockID, in *qir.Instr) error {
	switch in.Op {
	case qir.OpBr:
		g.phiMoves(b, qir.BlockID(in.Aux))
		fmt.Fprintf(&g.sb, "  goto L%d;\n", in.Aux)
	case qir.OpCondBr:
		// Edges through trampoline labels when the target has phis.
		tLabel := fmt.Sprintf("L%d", in.Aux)
		fLabel := fmt.Sprintf("L%d", in.B)
		tMoves := blockHasPhis(g.f, qir.BlockID(in.Aux))
		fMoves := blockHasPhis(g.f, in.B)
		if !tMoves && !fMoves {
			fmt.Fprintf(&g.sb, "  if (v%d) goto %s;\n  goto %s;\n", in.A, tLabel, fLabel)
			return nil
		}
		fmt.Fprintf(&g.sb, "  if (v%d) goto L%d_%d_t;\n", in.A, b, in.Aux)
		g.phiMoves(b, in.B)
		fmt.Fprintf(&g.sb, "  goto %s;\n", fLabel)
		fmt.Fprintf(&g.sb, "L%d_%d_t:;\n", b, in.Aux)
		g.phiMoves(b, qir.BlockID(in.Aux))
		fmt.Fprintf(&g.sb, "  goto %s;\n", tLabel)
	case qir.OpRet:
		if in.A == qir.NoValue {
			g.sb.WriteString("  return;\n")
		} else if g.f.ValueType(in.A) == qir.Str {
			fmt.Fprintf(&g.sb, "  return __i128(v%d_lo, v%d_hi);\n", in.A, in.A)
		} else {
			fmt.Fprintf(&g.sb, "  return v%d;\n", in.A)
		}
	case qir.OpUnreachable:
		g.sb.WriteString("  __trap();\n")
	}
	return nil
}

func blockHasPhis(f *qir.Func, b qir.BlockID) bool {
	return len(f.Blocks[b].List) > 0 && f.Instrs[f.Blocks[b].List[0]].Op == qir.OpPhi
}

var cBinOp = map[qir.Op]string{
	qir.OpAdd: "+", qir.OpSub: "-", qir.OpMul: "*",
	qir.OpSDiv: "/", qir.OpSRem: "%",
	qir.OpAnd: "&", qir.OpOr: "|", qir.OpXor: "^",
	qir.OpShl: "<<", qir.OpSar: ">>",
}

var cCmpOp = map[qir.Cmp]string{
	qir.CmpEQ: "==", qir.CmpNE: "!=",
	qir.CmpSLT: "<", qir.CmpSLE: "<=", qir.CmpSGT: ">", qir.CmpSGE: ">=",
	qir.CmpULT: "<", qir.CmpULE: "<=", qir.CmpUGT: ">", qir.CmpUGE: ">=",
}

func isUnsignedCmp(c qir.Cmp) bool {
	return c >= qir.CmpULT && c <= qir.CmpUGE
}

func (g *cgen) inst(v qir.Value, in *qir.Instr) error {
	f := g.f
	w := &g.sb
	asgn := func(format string, args ...any) {
		fmt.Fprintf(w, "  v%d = ", v)
		fmt.Fprintf(w, format, args...)
		w.WriteString(";\n")
	}
	switch in.Op {
	case qir.OpConst:
		asgn("(%s)%dLL", typeName(in.Type), in.Imm)
	case qir.OpConst128:
		lo, hi := f.Const128(v)
		asgn("__i128(%dLL, %dLL)", int64(lo), int64(hi))
	case qir.OpConstStr:
		lo, hi := g.env.DB.InternString(f.Module().Strings[in.Imm])
		fmt.Fprintf(w, "  v%d_lo = %dLL; v%d_hi = %dLL;\n", v, int64(lo), v, int64(hi))
	case qir.OpConstF:
		asgn("__bitsf64(%dLL)", in.Imm)
	case qir.OpConstPool:
		// Execution-time load from the DB's constant pool: the slot address
		// is baked in, the value is bound by BindConstPool before each run.
		// The pool area is always-valid machine memory (allocated in
		// NewDB), so the accesses carry the __unchecked qualifier; typed
		// little-endian loads of the canonical sign-extended slot value are
		// exact at every width.
		addr := int64(g.env.DB.ConstPoolAddr(int(in.Imm)))
		if in.Type == qir.Str {
			fmt.Fprintf(w, "  v%d_lo = *(__unchecked i64*)(%dLL + 0LL); v%d_hi = *(__unchecked i64*)(%dLL + 8LL);\n",
				v, addr, v, addr)
		} else {
			asgn("*(__unchecked %s*)(%dLL + 0LL)", typeName(in.Type), addr)
		}
	case qir.OpNull:
		asgn("(ptr)0LL")
	case qir.OpFuncAddr:
		asgn("(i64)&%s", mangle(f.Module().Funcs[in.Aux].Name))

	case qir.OpAdd, qir.OpSub, qir.OpMul, qir.OpSDiv, qir.OpSRem,
		qir.OpAnd, qir.OpOr, qir.OpXor, qir.OpShl, qir.OpSar:
		asgn("(%s)(v%d %s v%d)", typeName(in.Type), in.A, cBinOp[in.Op], in.B)
	case qir.OpShr:
		if in.Type == qir.I128 {
			// The dialect has no unsigned 128-bit type to cast to.
			asgn("__lshr_i128(v%d, v%d)", in.A, in.B)
			break
		}
		// A narrow operand shifts as its zero-extension: the unsigned value
		// of its own width.
		a := fmt.Sprintf("v%d", in.A)
		if in.Type < qir.I64 {
			a = fmt.Sprintf("__zext_%s(%s)", typeName(in.Type), a)
		}
		asgn("(%s)((u64)%s >> v%d)", typeName(in.Type), a, in.B)
	case qir.OpUDiv:
		asgn("(%s)((u64)v%d / (u64)v%d)", typeName(in.Type), in.A, in.B)
	case qir.OpURem:
		asgn("(%s)((u64)v%d %% (u64)v%d)", typeName(in.Type), in.A, in.B)
	case qir.OpRotr:
		asgn("__rotr(v%d, v%d)", in.A, in.B)
	case qir.OpNeg:
		asgn("(%s)(-v%d)", typeName(in.Type), in.A)
	case qir.OpNot:
		asgn("(%s)(~v%d)", typeName(in.Type), in.A)

	case qir.OpSAddTrap:
		asgn("__addtrap_%s(v%d, v%d)", typeName(in.Type), in.A, in.B)
	case qir.OpSSubTrap:
		asgn("__subtrap_%s(v%d, v%d)", typeName(in.Type), in.A, in.B)
	case qir.OpSMulTrap:
		if in.Type == qir.I128 {
			// Checked 128-bit multiplication calls the runtime helper.
			id := f.Module().RTImport(rt.FnI128MulOv)
			asgn("rt%d(v%d, v%d)", id, in.A, in.B)
		} else {
			asgn("__multrap_%s(v%d, v%d)", typeName(in.Type), in.A, in.B)
		}

	case qir.OpICmp:
		c := in.Cmp()
		switch {
		case isUnsignedCmp(c) && f.ValueType(in.A) == qir.I128:
			// Unsigned order is the signed order of the operands with their
			// sign bits flipped.
			asgn("(i1)((v%d ^ __i128(0LL, %dLL)) %s (v%d ^ __i128(0LL, %dLL)))",
				in.A, int64(math.MinInt64), cCmpOp[c], in.B, int64(math.MinInt64))
		case isUnsignedCmp(c):
			asgn("(i1)((u64)v%d %s (u64)v%d)", in.A, cCmpOp[c], in.B)
		default:
			asgn("(i1)(v%d %s v%d)", in.A, cCmpOp[c], in.B)
		}
	case qir.OpFCmp:
		asgn("(i1)(v%d %s v%d)", in.A, cCmpOp[in.Cmp()], in.B)

	case qir.OpZExt:
		from := f.ValueType(in.A)
		if in.Type == qir.I128 {
			// A cast to i128 sign-extends; the high word of a zero-extension
			// is zero.
			asgn("__i128(__zext_%s(v%d), 0LL)", typeName(from), in.A)
		} else {
			asgn("(%s)__zext_%s(v%d)", typeName(in.Type), typeName(from), in.A)
		}
	case qir.OpSExt:
		asgn("(%s)v%d", typeName(in.Type), in.A)
	case qir.OpTrunc:
		asgn("(%s)v%d", typeName(in.Type), in.A)
	case qir.OpSIToFP:
		asgn("(f64)v%d", in.A)
	case qir.OpFPToSI:
		asgn("(%s)v%d", typeName(in.Type), in.A)
	case qir.OpFBits:
		asgn("__f64bits(v%d)", in.A)
	case qir.OpBitsF:
		asgn("__bitsf64(v%d)", in.A)

	case qir.OpFAdd, qir.OpFSub, qir.OpFMul, qir.OpFDiv:
		op := map[qir.Op]string{qir.OpFAdd: "+", qir.OpFSub: "-", qir.OpFMul: "*", qir.OpFDiv: "/"}[in.Op]
		asgn("v%d %s v%d", in.A, op, in.B)

	case qir.OpCrc32:
		asgn("__crc32(v%d, v%d)", in.A, in.B)
	case qir.OpLMulFold:
		asgn("__lmulfold(v%d, v%d)", in.A, in.B)

	case qir.OpGEP:
		if in.B != qir.NoValue {
			asgn("(ptr)(v%d + %dLL + v%d * %dLL)", in.A, in.Imm, in.B, int64(in.Aux))
		} else {
			asgn("(ptr)(v%d + %dLL)", in.A, in.Imm)
		}

	case qir.OpLoad:
		// Accesses the static analysis discharged carry an __unchecked
		// qualifier on the pointed-to type; it survives the lex/parse/TAC
		// phases and selects the unchecked machine op in the assembler.
		q := ""
		if in.Unchecked() {
			q = "__unchecked "
		}
		if in.Type == qir.Str {
			fmt.Fprintf(w, "  v%d_lo = *(%si64*)(v%d + 0LL); v%d_hi = *(%si64*)(v%d + 8LL);\n",
				v, q, in.A, v, q, in.A)
		} else {
			asgn("*(%s%s*)(v%d + 0LL)", q, typeName(in.Type), in.A)
		}
	case qir.OpStore:
		t := f.ValueType(in.B)
		q := ""
		if in.Unchecked() {
			q = "__unchecked "
		}
		if t == qir.Str {
			fmt.Fprintf(w, "  *(%si64*)(v%d + 0LL) = v%d_lo; *(%si64*)(v%d + 8LL) = v%d_hi;\n",
				q, in.A, in.B, q, in.A, in.B)
		} else {
			fmt.Fprintf(w, "  *(%s%s*)(v%d + 0LL) = v%d;\n", q, typeName(t), in.A, in.B)
		}
	case qir.OpSelect:
		if in.Type == qir.Str {
			fmt.Fprintf(w, "  v%d_lo = __select(v%d, v%d_lo, v%d_lo);\n", v, in.A, in.B, in.C)
			fmt.Fprintf(w, "  v%d_hi = __select(v%d, v%d_hi, v%d_hi);\n", v, in.A, in.B, in.C)
		} else if in.Type == qir.F64 {
			asgn("__fselect(v%d, v%d, v%d)", in.A, in.B, in.C)
		} else {
			asgn("(%s)__select(v%d, (i64)v%d, (i64)v%d)", typeName(in.Type), in.A, in.B, in.C)
		}

	case qir.OpCall:
		var args []string
		for _, a := range f.CallArgs(v) {
			if f.ValueType(a) == qir.Str {
				args = append(args, fmt.Sprintf("v%d_lo", a), fmt.Sprintf("v%d_hi", a))
			} else {
				args = append(args, fmt.Sprintf("v%d", a))
			}
		}
		call := fmt.Sprintf("rt%d(%s)", in.Aux, strings.Join(args, ", "))
		switch {
		case in.Type == qir.Void:
			fmt.Fprintf(w, "  %s;\n", call)
		case in.Type == qir.Str:
			fmt.Fprintf(w, "  ctmp = %s;\n  v%d_lo = (i64)ctmp;\n  v%d_hi = (i64)(ctmp >> 64);\n",
				call, v, v)
		case in.Type == qir.I128:
			asgn("%s", call)
		default:
			asgn("(%s)%s", typeName(in.Type), call)
		}

	default:
		return fmt.Errorf("cbe: cannot print %s as C", in.Op)
	}
	_ = rt.FnAlloc
	return nil
}
