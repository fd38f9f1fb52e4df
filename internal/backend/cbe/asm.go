package cbe

import (
	"fmt"
	"strconv"
	"strings"

	"qcc/internal/vt"
)

// The assembler: parses the textual assembly back into encoded machine
// code, one function at a time (the separate `as` step of the GCC flow).

type asmFunc struct {
	name   string
	code   []byte
	relocs []asmReloc
}

type asmReloc struct {
	off int32
	sym string
}

// assemble parses the whole assembly text into per-function objects.
func assemble(text string, arch vt.Arch) ([]*asmFunc, error) {
	var fns []*asmFunc
	var cur *asmFunc
	var asmb vt.Assembler
	labels := map[string]vt.Label{}
	var relocSyms []string

	label := func(name string) vt.Label {
		if l, ok := labels[name]; ok {
			return l
		}
		l := asmb.NewLabel()
		labels[name] = l
		return l
	}

	lines := strings.Split(text, "\n")
	for ln, raw := range lines {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		fail := func(msg string) error {
			return fmt.Errorf("cbe: assembler line %d (%q): %s", ln+1, line, msg)
		}
		switch {
		case strings.HasPrefix(line, ".func "):
			cur = &asmFunc{name: strings.TrimSpace(line[6:])}
			asmb = vt.NewAssembler(arch)
			labels = map[string]vt.Label{}
			relocSyms = relocSyms[:0]
			continue
		case line == ".endfunc":
			if cur == nil {
				return nil, fail("endfunc outside function")
			}
			code, relocs, err := asmb.Finish()
			if err != nil {
				return nil, fmt.Errorf("cbe: %s: %w", cur.name, err)
			}
			cur.code = code
			for _, r := range relocs {
				cur.relocs = append(cur.relocs, asmReloc{off: r.Offset, sym: relocSyms[r.Sym]})
			}
			fns = append(fns, cur)
			cur = nil
			continue
		case strings.HasSuffix(line, ":"):
			if cur == nil {
				return nil, fail("label outside function")
			}
			asmb.Bind(label(strings.TrimSuffix(line, ":")))
			continue
		}
		if cur == nil {
			return nil, fail("instruction outside function")
		}
		fields := strings.FieldsFunc(line, func(r rune) bool { return r == ' ' || r == ',' || r == '\t' })
		if len(fields) == 0 {
			continue
		}
		if err := emitAsmLine(asmb, fields, label, &relocSyms); err != nil {
			return nil, fail(err.Error())
		}
	}
	return fns, nil
}

func parseReg(s string) (uint8, error) {
	if len(s) < 2 || s[0] != 'r' && s[0] != 'f' {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n > 63 {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return uint8(n), nil
}

func parseImm(s string) (int64, error) {
	return strconv.ParseInt(s, 10, 64)
}

var condByName = map[string]vt.Cond{
	"eq": vt.CondEQ, "ne": vt.CondNE,
	"slt": vt.CondSLT, "sle": vt.CondSLE, "sgt": vt.CondSGT, "sge": vt.CondSGE,
	"ult": vt.CondULT, "ule": vt.CondULE, "ugt": vt.CondUGT, "uge": vt.CondUGE,
}

var rrOps = map[string]vt.Op{
	"add": vt.Add, "sub": vt.Sub, "mul": vt.Mul, "and": vt.And, "or": vt.Or,
	"xor": vt.Xor, "shl": vt.Shl, "shr": vt.Shr, "sar": vt.Sar, "rotr": vt.Rotr,
	"sdiv": vt.SDiv, "srem": vt.SRem, "udiv": vt.UDiv, "urem": vt.URem,
	"crc32": vt.Crc32,
}

var riOps = map[string]vt.Op{
	"addi": vt.AddI, "subi": vt.SubI, "muli": vt.MulI, "andi": vt.AndI,
	"ori": vt.OrI, "xori": vt.XorI, "shli": vt.ShlI, "shri": vt.ShrI,
	"sari": vt.SarI, "rotri": vt.RotrI, "lea": vt.Lea,
}

var loadOps = map[string]vt.Op{
	"ld8": vt.Load8, "ld8s": vt.Load8S, "ld16s": vt.Load16S,
	"ld32s": vt.Load32S, "ld64": vt.Load64,
	"ldu8": vt.LoadU8, "ldu8s": vt.LoadU8S, "ldu16s": vt.LoadU16S,
	"ldu32s": vt.LoadU32S, "ldu64": vt.LoadU64,
}

var storeOps = map[string]vt.Op{
	"st8": vt.Store8, "st16": vt.Store16, "st32": vt.Store32, "st64": vt.Store64,
	"stu8": vt.StoreU8, "stu16": vt.StoreU16, "stu32": vt.StoreU32, "stu64": vt.StoreU64,
}

var fOps = map[string]vt.Op{
	"fadd": vt.FAdd, "fsub": vt.FSub, "fmul": vt.FMul, "fdiv": vt.FDiv,
}

func emitAsmLine(asmb vt.Assembler, f []string, label func(string) vt.Label, relocSyms *[]string) error {
	op := f[0]
	reg := func(i int) (uint8, error) { return parseReg(f[i]) }
	imm := func(i int) (int64, error) { return parseImm(f[i]) }
	need := func(n int) error {
		if len(f) != n+1 {
			return fmt.Errorf("%s expects %d operands", op, n)
		}
		return nil
	}
	switch {
	case op == "ret":
		asmb.Emit(vt.Instr{Op: vt.Ret})
	case op == "trap":
		v, err := imm(1)
		if err != nil {
			return err
		}
		asmb.Emit(vt.Instr{Op: vt.Trap, Imm: v})
	case op == "trapnz":
		ra, err := reg(1)
		if err != nil {
			return err
		}
		v, err := imm(2)
		if err != nil {
			return err
		}
		asmb.Emit(vt.Instr{Op: vt.TrapNZ, RA: ra, Imm: v})
	case op == "mov":
		if err := need(2); err != nil {
			return err
		}
		rd, err := reg(1)
		if err != nil {
			return err
		}
		ra, err := reg(2)
		if err != nil {
			return err
		}
		asmb.Emit(vt.Instr{Op: vt.MovRR, RD: rd, RA: ra})
	case op == "fmov":
		rd, _ := reg(1)
		ra, _ := reg(2)
		asmb.Emit(vt.Instr{Op: vt.FMovRR, RD: rd, RA: ra})
	case op == "movi":
		rd, err := reg(1)
		if err != nil {
			return err
		}
		v, err := imm(2)
		if err != nil {
			return err
		}
		asmb.Emit(vt.Instr{Op: vt.MovRI, RD: rd, Imm: v})
	case op == "fmovi":
		rd, _ := reg(1)
		v, err := imm(2)
		if err != nil {
			return err
		}
		asmb.Emit(vt.Instr{Op: vt.FMovRI, RD: rd, Imm: v})
	case op == "movsym":
		rd, err := reg(1)
		if err != nil {
			return err
		}
		*relocSyms = append(*relocSyms, f[2])
		asmb.EmitMovSym(rd, int32(len(*relocSyms)-1))
	case op == "neg":
		rd, _ := reg(1)
		ra, _ := reg(2)
		asmb.Emit(vt.Instr{Op: vt.Neg, RD: rd, RA: ra})
	case op == "not":
		rd, _ := reg(1)
		ra, _ := reg(2)
		asmb.Emit(vt.Instr{Op: vt.Not, RD: rd, RA: ra})
	case rrOps[op] != 0:
		if err := need(3); err != nil {
			return err
		}
		rd, _ := reg(1)
		ra, _ := reg(2)
		rb, _ := reg(3)
		asmb.Emit(vt.Instr{Op: rrOps[op], RD: rd, RA: ra, RB: rb})
	case riOps[op] != 0:
		rd, _ := reg(1)
		ra, _ := reg(2)
		v, err := imm(3)
		if err != nil {
			return err
		}
		asmb.Emit(vt.Instr{Op: riOps[op], RD: rd, RA: ra, Imm: v})
	case loadOps[op] != 0:
		rd, _ := reg(1)
		ra, _ := reg(2)
		v, err := imm(3)
		if err != nil {
			return err
		}
		asmb.Emit(vt.Instr{Op: loadOps[op], RD: rd, RA: ra, Imm: v})
	case storeOps[op] != 0:
		ra, _ := reg(1)
		v, err := imm(2)
		if err != nil {
			return err
		}
		rb, err := reg(3)
		if err != nil {
			return err
		}
		asmb.Emit(vt.Instr{Op: storeOps[op], RA: ra, RB: rb, Imm: v})
	case op == "fld" || op == "fldu":
		rd, _ := reg(1)
		ra, _ := reg(2)
		v, _ := imm(3)
		fop := vt.FLoad
		if op == "fldu" {
			fop = vt.FLoadU
		}
		asmb.Emit(vt.Instr{Op: fop, RD: rd, RA: ra, Imm: v})
	case op == "fst" || op == "fstu":
		ra, _ := reg(1)
		v, _ := imm(2)
		rb, _ := reg(3)
		fop := vt.FStore
		if op == "fstu" {
			fop = vt.FStoreU
		}
		asmb.Emit(vt.Instr{Op: fop, RA: ra, RB: rb, Imm: v})
	case fOps[op] != 0:
		rd, _ := reg(1)
		ra, _ := reg(2)
		rb, _ := reg(3)
		asmb.Emit(vt.Instr{Op: fOps[op], RD: rd, RA: ra, RB: rb})
	case op == "fcmp":
		c, ok := condByName[f[1]]
		if !ok {
			return fmt.Errorf("bad condition %q", f[1])
		}
		rd, _ := reg(2)
		ra, _ := reg(3)
		rb, _ := reg(4)
		asmb.Emit(vt.Instr{Op: vt.FCmp, Cond: c, RD: rd, RA: ra, RB: rb})
	case op == "set":
		c, ok := condByName[f[1]]
		if !ok {
			return fmt.Errorf("bad condition %q", f[1])
		}
		rd, _ := reg(2)
		ra, _ := reg(3)
		rb, _ := reg(4)
		asmb.Emit(vt.Instr{Op: vt.SetCC, Cond: c, RD: rd, RA: ra, RB: rb})
	case op == "mulw":
		lo, _ := reg(1)
		hi, _ := reg(2)
		ra, _ := reg(3)
		rb, _ := reg(4)
		asmb.Emit(vt.Instr{Op: vt.MulWideU, RD: lo, RC: hi, RA: ra, RB: rb})
	case op == "mulws":
		lo, _ := reg(1)
		hi, _ := reg(2)
		ra, _ := reg(3)
		rb, _ := reg(4)
		asmb.Emit(vt.Instr{Op: vt.MulWideS, RD: lo, RC: hi, RA: ra, RB: rb})
	case op == "si2f":
		rd, _ := reg(1)
		ra, _ := reg(2)
		asmb.Emit(vt.Instr{Op: vt.CvtSI2F, RD: rd, RA: ra})
	case op == "f2si":
		rd, _ := reg(1)
		ra, _ := reg(2)
		asmb.Emit(vt.Instr{Op: vt.CvtF2SI, RD: rd, RA: ra})
	case op == "movrf":
		rd, _ := reg(1)
		ra, _ := reg(2)
		asmb.Emit(vt.Instr{Op: vt.MovRF, RD: rd, RA: ra})
	case op == "movfr":
		rd, _ := reg(1)
		ra, _ := reg(2)
		asmb.Emit(vt.Instr{Op: vt.MovFR, RD: rd, RA: ra})
	case op == "br":
		asmb.Emit(vt.Instr{Op: vt.Br, Target: int32(label(f[1]))})
	case op == "brnz":
		ra, _ := reg(1)
		asmb.Emit(vt.Instr{Op: vt.BrNZ, RA: ra, Target: int32(label(f[2]))})
	case op == "brcc":
		c, ok := condByName[f[1]]
		if !ok {
			return fmt.Errorf("bad condition %q", f[1])
		}
		ra, _ := reg(2)
		rb, _ := reg(3)
		asmb.Emit(vt.Instr{Op: vt.BrCC, Cond: c, RA: ra, RB: rb, Target: int32(label(f[4]))})
	case op == "callrt":
		v, err := imm(1)
		if err != nil {
			return err
		}
		asmb.Emit(vt.Instr{Op: vt.CallRT, Imm: v})
	default:
		return fmt.Errorf("unknown mnemonic %q", op)
	}
	return nil
}

// link concatenates the assembled functions (the `ld`/collect2 step),
// resolving symbol relocations.
func link(fns []*asmFunc, arch vt.Arch) (code []byte, offsets map[string]int32, err error) {
	offsets = map[string]int32{}
	align := 1
	if vt.ForArch(arch).FixedLen > 0 {
		align = vt.ForArch(arch).FixedLen
	}
	for _, f := range fns {
		for len(code)%align != 0 {
			code = append(code, 0)
		}
		offsets[f.name] = int32(len(code))
		code = append(code, f.code...)
	}
	for _, f := range fns {
		base := offsets[f.name]
		for _, r := range f.relocs {
			target, ok := offsets[r.sym]
			if !ok {
				return nil, nil, fmt.Errorf("cbe: undefined symbol %s", r.sym)
			}
			kind := vt.RelocAbs64
			if arch == vt.VA64 {
				kind = vt.RelocMovSeq64
			}
			vt.Reloc{Kind: kind, Offset: base + r.off}.Patch(code, int64(target))
		}
	}
	return code, offsets, nil
}
