package vt

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
)

// Program is decoded machine code ready for execution or disassembly.
type Program struct {
	Arch   Arch
	Code   []byte
	Instrs []Instr
	// Index maps a byte offset in Code to the index in Instrs of the
	// instruction starting there, or -1.
	Index []int32
	// Offsets holds the starting byte offset of each instruction.
	Offsets []int32
}

// Decode parses machine code for the given architecture. Branch and call
// targets in the returned instructions are absolute byte offsets into code.
func Decode(arch Arch, code []byte) (*Program, error) {
	p := &Program{Arch: arch, Code: code}
	p.Index = make([]int32, len(code)+1)
	for i := range p.Index {
		p.Index[i] = -1
	}
	var err error
	switch arch {
	case VX64:
		err = p.decodeX64()
	case VA64:
		err = p.decodeA64()
	default:
		return nil, fmt.Errorf("vt: unknown arch %d", arch)
	}
	if err != nil {
		return nil, err
	}
	return p, nil
}

func (p *Program) add(off int, i Instr) {
	p.Index[off] = int32(len(p.Instrs))
	p.Offsets = append(p.Offsets, int32(off))
	p.Instrs = append(p.Instrs, i)
}

// x64Reader is the cursor of decodeX64: the operand readers of the
// variable-length encoding.
type x64Reader struct {
	code []byte
	pc   int
}

func (r *x64Reader) need(n int) bool { return r.pc+n <= len(r.code) }

func (r *x64Reader) regs() (uint8, uint8) {
	b := r.code[r.pc]
	r.pc++
	return b >> 4, b & 0xF
}

// imm reads a size byte and the 1, 2, 4 or 8 immediate bytes it announces.
func (r *x64Reader) imm() (int64, bool) {
	if !r.need(1) || r.code[r.pc] > 3 {
		return 0, false
	}
	n := 1 << r.code[r.pc]
	r.pc++
	if !r.need(n) {
		return 0, false
	}
	b := r.code[r.pc:]
	r.pc += n
	switch n {
	case 1:
		return int64(int8(b[0])), true
	case 2:
		return int64(int16(binary.LittleEndian.Uint16(b))), true
	case 4:
		return int64(int32(binary.LittleEndian.Uint32(b))), true
	}
	return int64(binary.LittleEndian.Uint64(b)), true
}

func (r *x64Reader) rel32() (int32, bool) {
	if !r.need(4) {
		return 0, false
	}
	v := int32(binary.LittleEndian.Uint32(r.code[r.pc:]))
	r.pc += 4
	return int32(r.pc) + v, true
}

// x64Scratch is where decodeX64 collects a program whose instruction count it
// cannot know up front, to copy it out at exact size.
type x64Scratch struct {
	instrs  []Instr
	offsets []int32
}

var x64Pool = sync.Pool{New: func() any { return new(x64Scratch) }}

func (p *Program) decodeX64() error {
	sc := x64Pool.Get().(*x64Scratch)
	p.Instrs, p.Offsets = sc.instrs[:0], sc.offsets[:0]
	err := p.scanX64()
	sc.instrs, sc.offsets = p.Instrs, p.Offsets
	p.Instrs, p.Offsets = make([]Instr, len(sc.instrs)), make([]int32, len(sc.offsets))
	copy(p.Instrs, sc.instrs)
	copy(p.Offsets, sc.offsets)
	x64Pool.Put(sc)
	return err
}

func x64Truncated(op Op, at int) error { return fmt.Errorf("vx64: truncated %s at %d", op, at) }

func (p *Program) scanX64() error {
	r := x64Reader{code: p.Code}
	code := r.code
	for r.pc < len(code) {
		start := r.pc
		op := Op(code[r.pc])
		r.pc++
		i := Instr{Op: op}
		info := op.Info()
		ok := true
		switch info.Form {
		case FormNone:
		case FormUnary:
			if ok = r.need(1); ok {
				i.RD, i.RA = r.regs()
				if info.TwoAddr {
					i.RA = i.RD
				}
			}
		case FormRR:
			if ok = r.need(1); ok {
				i.RD, i.RB = r.regs()
				i.RA = i.RD
			}
		case FormSetCC:
			if ok = r.need(2); ok {
				i.RD, i.RA = r.regs()
				c, rb := r.regs()
				i.Cond, i.RB = Cond(c), rb
			}
		case FormMulWide:
			if ok = r.need(2); ok {
				i.RD, i.RC = r.regs()
				i.RA, i.RB = r.regs()
			}
		case FormMovI:
			if ok = r.need(1); ok {
				i.RD, _ = r.regs()
				i.Imm, ok = r.imm()
			}
		case FormRI, FormLoad:
			if ok = r.need(1); ok {
				i.RD, i.RA = r.regs()
				i.Imm, ok = r.imm()
			}
		case FormStore:
			if ok = r.need(1); ok {
				i.RA, i.RB = r.regs()
				i.Imm, ok = r.imm()
			}
		case FormBr:
			i.Target, ok = r.rel32()
		case FormBrCC:
			if ok = r.need(2); ok {
				i.RA, i.RB = r.regs()
				i.Cond = Cond(code[r.pc])
				r.pc++
				i.Target, ok = r.rel32()
			}
		case FormBrNZ:
			if ok = r.need(1); ok {
				i.RA, _ = r.regs()
				i.Target, ok = r.rel32()
			}
		case FormCall:
			if ok = r.need(4); ok {
				i.Imm = int64(binary.LittleEndian.Uint32(code[r.pc:]))
				r.pc += 4
			}
		case FormCallInd:
			if ok = r.need(1); ok {
				i.RA, _ = r.regs()
			}
		case FormCallRT:
			if ok = r.need(2); ok {
				i.Imm = int64(binary.LittleEndian.Uint16(code[r.pc:]))
				r.pc += 2
			}
		case FormTrap:
			if ok = r.need(1); ok {
				i.Imm = int64(code[r.pc])
				r.pc++
			}
		case FormTrapNZ:
			if ok = r.need(2); ok {
				i.RA, _ = r.regs()
				i.Imm = int64(code[r.pc])
				r.pc++
			}
		default: // FormMovZK is va64 only
			return fmt.Errorf("vx64: bad opcode %d at %d", op, start)
		}
		if !ok {
			return x64Truncated(op, start)
		}
		p.add(start, i)
	}
	return nil
}

func (p *Program) decodeA64() error {
	code := p.Code
	if len(code)%4 != 0 {
		return fmt.Errorf("va64: code length %d not word-aligned", len(code))
	}
	p.Instrs, p.Offsets = make([]Instr, 0, len(code)/4), make([]int32, 0, len(code)/4)
	t := ForArch(VA64)
	for pc := 0; pc < len(code); pc += 4 {
		w := binary.LittleEndian.Uint32(code[pc:])
		op := Op(w & 0xFF)
		rd := uint8(w >> 8 & 0x3F)
		ra := uint8(w >> 14 & 0x3F)
		rb := uint8(w >> 20 & 0x3F)
		x := uint8(w >> 26 & 0x3F)

		i := Instr{Op: op}
		info := op.Info()
		switch info.Form {
		case FormNone:
			// nothing
		case FormUnary:
			i.RD, i.RA = rd, ra
		case FormRR:
			i.RD, i.RA, i.RB = rd, ra, rb
		case FormSetCC:
			i.RD, i.RA, i.RB, i.Cond = rd, ra, rb, Cond(x)
		case FormMulWide:
			i.RD, i.RA, i.RB, i.RC = rd, ra, rb, x
		case FormMovZK:
			i.RD = rd
			i.Cond = Cond(w >> 14 & 3)
			i.Imm = int64(w >> 16 & 0xFFFF)
		case FormRI, FormLoad:
			i.RD, i.RA = rd, ra
			i.Imm = int64(int32(w) >> 20)
		case FormStore:
			i.RB, i.RA = rd, ra // the value register sits in the rd slot
			i.Imm = int64(int32(w) >> 20)
		case FormBr:
			rel := int32(w) >> 8
			i.Target = int32(pc) + rel*4
		case FormBrNZ:
			i.RA = rd // the tested register sits in the rd slot
			rel := int32(w) >> 14
			i.Target = int32(pc) + rel*4
		case FormCall:
			i.Imm = int64(w>>8) * 4
		case FormCallInd:
			i.RA = ra
		case FormCallRT:
			i.Imm = int64(w >> 16 & 0xFFFF)
		case FormTrap:
			i.Imm = int64(rd)
		case FormTrapNZ:
			i.Imm, i.RA = int64(rd), ra
		default: // FormMovI and FormBrCC are vx64 only: va64 expands them
			return fmt.Errorf("va64: bad opcode %d at %d", op, pc)
		}
		// Register fields are 6 bits wide but the machine has only 32
		// integer and 16 float registers; reject encodings that name a
		// register that does not exist rather than aliasing it later.
		if regs := info.Use | info.Def; regs != 0 {
			if err := a64CheckRegs(t, &i, info, regs, pc); err != nil {
				return err
			}
		}
		p.add(pc, i)
	}
	return nil
}

// a64CheckRegs reports the first register field of i in regs that names a
// register the machine does not have.
func a64CheckRegs(t *Target, i *Instr, info *Info, regs Regs, pc int) error {
	for _, f := range [...]struct {
		field Regs
		name  string
		n     uint8
	}{{RD, "rd", i.RD}, {RA, "ra", i.RA}, {RB, "rb", i.RB}, {RC, "rc", i.RC}} {
		if regs&f.field == 0 {
			continue
		}
		cls, max := "r", t.NumGPR
		if info.Class(f.field) == FPR {
			cls, max = "f", t.NumFPR
		}
		if int(f.n) >= max {
			return fmt.Errorf("va64: %s: register field %s=%s%d out of range at %d", i.Op, f.name, cls, f.n, pc)
		}
	}
	return nil
}

// Disasm renders one instruction as assembly-like text.
func Disasm(i Instr) string {
	info := i.Op.Info()
	reg := func(f Regs) string {
		n := i.RD
		switch f {
		case RA:
			n = i.RA
		case RB:
			n = i.RB
		case RC:
			n = i.RC
		}
		if info.Class(f) == FPR {
			return fmt.Sprintf("f%d", n)
		}
		return fmt.Sprintf("r%d", n)
	}
	switch info.Form {
	case FormNone:
		return i.Op.String()
	case FormUnary:
		if info.TwoAddr {
			return fmt.Sprintf("%s %s", i.Op, reg(RD))
		}
		return fmt.Sprintf("%s %s, %s", i.Op, reg(RD), reg(RA))
	case FormMovI:
		if info.Class(RD) == FPR {
			return fmt.Sprintf("%s %s, %#x", i.Op, reg(RD), uint64(i.Imm))
		}
		return fmt.Sprintf("%s %s, %d", i.Op, reg(RD), i.Imm)
	case FormMovZK:
		return fmt.Sprintf("%s %s, %d, lsl %d", i.Op, reg(RD), i.Imm, uint8(i.Cond)*16)
	case FormRR:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, reg(RD), reg(RA), reg(RB))
	case FormRI:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, reg(RD), reg(RA), i.Imm)
	case FormLoad:
		return fmt.Sprintf("%s %s, [%s%+d]", i.Op, reg(RD), reg(RA), i.Imm)
	case FormStore:
		return fmt.Sprintf("%s [%s%+d], %s", i.Op, reg(RA), i.Imm, reg(RB))
	case FormSetCC:
		return fmt.Sprintf("%s.%s %s, %s, %s", i.Op, i.Cond, reg(RD), reg(RA), reg(RB))
	case FormMulWide:
		return fmt.Sprintf("%s %s:%s, %s, %s", i.Op, reg(RC), reg(RD), reg(RA), reg(RB))
	case FormBr:
		return fmt.Sprintf("br %d", i.Target)
	case FormBrCC:
		return fmt.Sprintf("br.%s %s, %s, %d", i.Cond, reg(RA), reg(RB), i.Target)
	case FormBrNZ:
		return fmt.Sprintf("brnz %s, %d", reg(RA), i.Target)
	case FormCall, FormCallRT:
		return fmt.Sprintf("%s %d", i.Op, i.Imm)
	case FormCallInd:
		return fmt.Sprintf("calli %s", reg(RA))
	case FormTrap:
		return fmt.Sprintf("trap %s", TrapCode(i.Imm))
	case FormTrapNZ:
		return fmt.Sprintf("trapnz %s, %s", reg(RA), TrapCode(i.Imm))
	}
	return fmt.Sprintf("?%d", i.Op)
}

// DisasmAll renders a whole program, one instruction per line with offsets.
func DisasmAll(p *Program) string {
	var sb strings.Builder
	for k, i := range p.Instrs {
		fmt.Fprintf(&sb, "%6d: %s\n", p.Offsets[k], Disasm(i))
	}
	return sb.String()
}
