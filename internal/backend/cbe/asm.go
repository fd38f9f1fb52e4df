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

var condByName = map[string]vt.Cond{
	"eq": vt.CondEQ, "ne": vt.CondNE,
	"slt": vt.CondSLT, "sle": vt.CondSLE, "sgt": vt.CondSGT, "sge": vt.CondSGE,
	"ult": vt.CondULT, "ule": vt.CondULE, "ugt": vt.CondUGT, "uge": vt.CondUGE,
}

// asmOps maps each mnemonic of the dialect to its operation: the vt table's
// name, except that MulWideU is spelled "mulw".
var asmOps = func() map[string]vt.Op {
	m := map[string]vt.Op{}
	for op := vt.Op(0); op < vt.NumOps; op++ {
		if _, ok := asmOperands[op.Info().Form]; ok {
			m[op.String()] = op
		}
	}
	delete(m, vt.MulWideU.String())
	m["mulw"] = vt.MulWideU
	return m
}()

// asmOperands is the text order of each form's operands: d, a, b and c the
// register fields RD, RA, RB and RC, i an immediate, ? a condition and l a
// label. Forms the dialect does not write are absent.
var asmOperands = map[vt.Form]string{
	vt.FormNone:    "",
	vt.FormUnary:   "da",
	vt.FormRR:      "dab",
	vt.FormRI:      "dai",
	vt.FormLoad:    "dai",
	vt.FormStore:   "aib",
	vt.FormSetCC:   "?dab",
	vt.FormMulWide: "dcab",
	vt.FormMovI:    "di",
	vt.FormBr:      "l",
	vt.FormBrCC:    "?abl",
	vt.FormBrNZ:    "al",
	vt.FormCallRT:  "i",
	vt.FormTrap:    "i",
	vt.FormTrapNZ:  "ai",
}

// parseReg parses a register operand of class cls: rN for a GPR, fN for an
// FPR, N below the target's register count.
func parseReg(s string, cls vt.RegClass, t *vt.Target) (uint8, error) {
	prefix, max := byte('r'), t.NumGPR
	if cls == vt.FPR {
		prefix, max = 'f', t.NumFPR
	}
	n, err := strconv.Atoi(s[1:])
	if s[0] != prefix || err != nil || n < 0 || n >= max {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return uint8(n), nil
}

func emitAsmLine(asmb vt.Assembler, f []string, label func(string) vt.Label, relocSyms *[]string) error {
	mn, t := f[0], asmb.Target()
	if mn == "movsym" {
		if len(f) != 3 {
			return fmt.Errorf("movsym expects 2 operands")
		}
		rd, err := parseReg(f[1], vt.GPR, t)
		if err != nil {
			return err
		}
		*relocSyms = append(*relocSyms, f[2])
		asmb.EmitMovSym(rd, int32(len(*relocSyms)-1))
		return nil
	}
	op, ok := asmOps[mn]
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mn)
	}
	info := op.Info()
	layout := asmOperands[info.Form]
	if len(f)-1 != len(layout) {
		return fmt.Errorf("%s expects %d operands", mn, len(layout))
	}
	in := vt.Instr{Op: op}
	for k, s := range f[1:] {
		var err error
		switch layout[k] {
		case 'i':
			in.Imm, err = strconv.ParseInt(s, 10, 64)
		case '?':
			c, ok := condByName[s]
			if !ok {
				return fmt.Errorf("bad condition %q", s)
			}
			in.Cond = c
		case 'l':
			in.Target = int32(label(s))
		case 'd':
			in.RD, err = parseReg(s, info.Class(vt.RD), t)
		case 'a':
			in.RA, err = parseReg(s, info.Class(vt.RA), t)
		case 'b':
			in.RB, err = parseReg(s, info.Class(vt.RB), t)
		case 'c':
			in.RC, err = parseReg(s, info.Class(vt.RC), t)
		}
		if err != nil {
			return err
		}
	}
	asmb.Emit(in)
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
