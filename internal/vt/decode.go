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

		switch op {
		case Nop, Ret:
			// nothing
		case MovRR, FMovRR, MovRF, MovFR, CvtSI2F, CvtF2SI:
			if !r.need(1) {
				return x64Truncated(op, start)
			}
			i.RD, i.RA = r.regs()
		case Add, Sub, Mul, And, Or, Xor, Shl, Shr, Sar, Rotr, SDiv, SRem, UDiv, URem,
			Crc32, FAdd, FSub, FMul, FDiv:
			if !r.need(1) {
				return x64Truncated(op, start)
			}
			i.RD, i.RB = r.regs()
			i.RA = i.RD
		case Neg, Not:
			if !r.need(1) {
				return x64Truncated(op, start)
			}
			i.RD, _ = r.regs()
			i.RA = i.RD
		case SetCC, FCmp:
			if !r.need(2) {
				return x64Truncated(op, start)
			}
			i.RD, i.RA = r.regs()
			c, rb := r.regs()
			i.Cond, i.RB = Cond(c), rb
		case MulWideU, MulWideS:
			if !r.need(2) {
				return x64Truncated(op, start)
			}
			i.RD, i.RC = r.regs()
			i.RA, i.RB = r.regs()
		case MovRI, FMovRI:
			if !r.need(1) {
				return x64Truncated(op, start)
			}
			i.RD, _ = r.regs()
			v, ok := r.imm()
			if !ok {
				return x64Truncated(op, start)
			}
			i.Imm = v
		case AddI, SubI, MulI, AndI, OrI, XorI, ShlI, ShrI, SarI, RotrI, Lea,
			Load8, Load8S, Load16, Load16S, Load32, Load32S, Load64, FLoad,
			LoadU8, LoadU8S, LoadU16, LoadU16S, LoadU32, LoadU32S, LoadU64, FLoadU:
			if !r.need(1) {
				return x64Truncated(op, start)
			}
			i.RD, i.RA = r.regs()
			v, ok := r.imm()
			if !ok {
				return x64Truncated(op, start)
			}
			i.Imm = v
		case Store8, Store16, Store32, Store64, FStore,
			StoreU8, StoreU16, StoreU32, StoreU64, FStoreU:
			if !r.need(1) {
				return x64Truncated(op, start)
			}
			i.RA, i.RB = r.regs()
			v, ok := r.imm()
			if !ok {
				return x64Truncated(op, start)
			}
			i.Imm = v
		case Br:
			t, ok := r.rel32()
			if !ok {
				return x64Truncated(op, start)
			}
			i.Target = t
		case BrCC:
			if !r.need(2) {
				return x64Truncated(op, start)
			}
			i.RA, i.RB = r.regs()
			i.Cond = Cond(code[r.pc])
			r.pc++
			t, ok := r.rel32()
			if !ok {
				return x64Truncated(op, start)
			}
			i.Target = t
		case BrNZ:
			if !r.need(1) {
				return x64Truncated(op, start)
			}
			i.RA, _ = r.regs()
			t, ok := r.rel32()
			if !ok {
				return x64Truncated(op, start)
			}
			i.Target = t
		case Call:
			if !r.need(4) {
				return x64Truncated(op, start)
			}
			i.Imm = int64(binary.LittleEndian.Uint32(code[r.pc:]))
			r.pc += 4
		case CallInd:
			if !r.need(1) {
				return x64Truncated(op, start)
			}
			i.RA, _ = r.regs()
		case CallRT:
			if !r.need(2) {
				return x64Truncated(op, start)
			}
			i.Imm = int64(binary.LittleEndian.Uint16(code[r.pc:]))
			r.pc += 2
		case Trap:
			if !r.need(1) {
				return x64Truncated(op, start)
			}
			i.Imm = int64(code[r.pc])
			r.pc++
		case TrapNZ:
			if !r.need(2) {
				return x64Truncated(op, start)
			}
			i.RA, _ = r.regs()
			i.Imm = int64(code[r.pc])
			r.pc++
		default:
			return fmt.Errorf("vx64: bad opcode %d at %d", op, start)
		}
		p.add(start, i)
	}
	return nil
}

// a64RegCheck validates the register fields of one va64 instruction word,
// keeping the first that names a register the machine does not have.
type a64RegCheck struct {
	ngpr, nfpr uint8
	op         Op
	pc         int
	err        error
}

func (c *a64RegCheck) r(n uint8, field string) {
	if n >= c.ngpr {
		c.fail(n, field, "r")
	}
}

func (c *a64RegCheck) f(n uint8, field string) {
	if n >= c.nfpr {
		c.fail(n, field, "f")
	}
}

func (c *a64RegCheck) fail(n uint8, field, cls string) {
	if c.err == nil {
		c.err = fmt.Errorf("va64: %s: register field %s=%s%d out of range at %d", c.op, field, cls, n, c.pc)
	}
}

func (p *Program) decodeA64() error {
	code := p.Code
	if len(code)%4 != 0 {
		return fmt.Errorf("va64: code length %d not word-aligned", len(code))
	}
	p.Instrs, p.Offsets = make([]Instr, 0, len(code)/4), make([]int32, 0, len(code)/4)
	ck := a64RegCheck{ngpr: uint8(ForArch(VA64).NumGPR), nfpr: uint8(ForArch(VA64).NumFPR)}
	for pc := 0; pc < len(code); pc += 4 {
		w := binary.LittleEndian.Uint32(code[pc:])
		op := Op(w & 0xFF)
		rd := uint8(w >> 8 & 0x3F)
		ra := uint8(w >> 14 & 0x3F)
		rb := uint8(w >> 20 & 0x3F)
		x := uint8(w >> 26 & 0x3F)

		// Register fields are 6 bits wide but the machine has only 32
		// integer and 16 float registers; reject encodings that name a
		// register that does not exist rather than aliasing it later.
		ck.op, ck.pc = op, pc
		switch op {
		case MovRR, Neg, Not,
			AddI, SubI, MulI, AndI, OrI, XorI, ShlI, ShrI, SarI, RotrI, Lea,
			Load8, Load8S, Load16, Load16S, Load32, Load32S, Load64,
			LoadU8, LoadU8S, LoadU16, LoadU16S, LoadU32, LoadU32S, LoadU64:
			ck.r(rd, "rd")
			ck.r(ra, "ra")
		case FMovRR:
			ck.f(rd, "rd")
			ck.f(ra, "ra")
		case MovRF, CvtF2SI:
			ck.r(rd, "rd")
			ck.f(ra, "ra")
		case MovFR, CvtSI2F, FLoad, FLoadU:
			ck.f(rd, "rd")
			ck.r(ra, "ra")
		case Add, Sub, Mul, And, Or, Xor, Shl, Shr, Sar, Rotr, SDiv, SRem, UDiv, URem,
			Crc32, SetCC:
			ck.r(rd, "rd")
			ck.r(ra, "ra")
			ck.r(rb, "rb")
		case FAdd, FSub, FMul, FDiv:
			ck.f(rd, "rd")
			ck.f(ra, "ra")
			ck.f(rb, "rb")
		case FCmp:
			ck.r(rd, "rd")
			ck.f(ra, "ra")
			ck.f(rb, "rb")
		case MulWideU, MulWideS:
			ck.r(rd, "rd")
			ck.r(ra, "ra")
			ck.r(rb, "rb")
			ck.r(x, "rc")
		case MovZ, MovK:
			ck.r(rd, "rd")
		case Store8, Store16, Store32, Store64,
			StoreU8, StoreU16, StoreU32, StoreU64:
			ck.r(rd, "rb") // value field, encoded in the rd slot
			ck.r(ra, "ra")
		case FStore, FStoreU:
			ck.f(rd, "rb")
			ck.r(ra, "ra")
		case BrNZ:
			ck.r(rd, "ra") // tested register, encoded in the rd slot
		case CallInd, TrapNZ:
			ck.r(ra, "ra")
		}
		if ck.err != nil {
			return ck.err
		}

		i := Instr{Op: op}
		switch op {
		case Nop, Ret:
			// nothing
		case MovRR, FMovRR, MovRF, MovFR, CvtSI2F, CvtF2SI, Neg, Not:
			i.RD, i.RA = rd, ra
		case Add, Sub, Mul, And, Or, Xor, Shl, Shr, Sar, Rotr, SDiv, SRem, UDiv, URem,
			Crc32, FAdd, FSub, FMul, FDiv:
			i.RD, i.RA, i.RB = rd, ra, rb
		case SetCC, FCmp:
			i.RD, i.RA, i.RB, i.Cond = rd, ra, rb, Cond(x)
		case MulWideU, MulWideS:
			i.RD, i.RA, i.RB, i.RC = rd, ra, rb, x
		case MovZ, MovK:
			i.RD = rd
			i.Cond = Cond(w >> 14 & 3)
			i.Imm = int64(w >> 16 & 0xFFFF)
		case AddI, SubI, MulI, AndI, OrI, XorI, ShlI, ShrI, SarI, RotrI, Lea,
			Load8, Load8S, Load16, Load16S, Load32, Load32S, Load64, FLoad,
			LoadU8, LoadU8S, LoadU16, LoadU16S, LoadU32, LoadU32S, LoadU64, FLoadU:
			i.RD, i.RA = rd, ra
			i.Imm = int64(int32(w) >> 20)
		case Store8, Store16, Store32, Store64, FStore,
			StoreU8, StoreU16, StoreU32, StoreU64, FStoreU:
			i.RB, i.RA = rd, ra
			i.Imm = int64(int32(w) >> 20)
		case Br:
			rel := int32(w) >> 8
			i.Target = int32(pc) + rel*4
		case BrNZ:
			i.RA = rd
			rel := int32(w) >> 14
			i.Target = int32(pc) + rel*4
		case Call:
			i.Imm = int64(w>>8) * 4
		case CallInd:
			i.RA = ra
		case CallRT:
			i.Imm = int64(w >> 16 & 0xFFFF)
		case Trap:
			i.Imm = int64(rd)
		case TrapNZ:
			i.Imm, i.RA = int64(rd), ra
		default:
			return fmt.Errorf("va64: bad opcode %d at %d", op, pc)
		}
		p.add(pc, i)
	}
	return nil
}

// Disasm renders one instruction as assembly-like text.
func Disasm(i Instr) string {
	r := func(n uint8) string { return fmt.Sprintf("r%d", n) }
	f := func(n uint8) string { return fmt.Sprintf("f%d", n) }
	switch i.Op {
	case Nop, Ret:
		return i.Op.String()
	case MovRR:
		return fmt.Sprintf("mov %s, %s", r(i.RD), r(i.RA))
	case MovRI:
		return fmt.Sprintf("movi %s, %d", r(i.RD), i.Imm)
	case MovZ, MovK:
		return fmt.Sprintf("%s %s, %d, lsl %d", i.Op, r(i.RD), i.Imm, uint8(i.Cond)*16)
	case FMovRR:
		return fmt.Sprintf("fmov %s, %s", f(i.RD), f(i.RA))
	case FMovRI:
		return fmt.Sprintf("fmovi %s, %#x", f(i.RD), uint64(i.Imm))
	case MovRF:
		return fmt.Sprintf("movrf %s, %s", r(i.RD), f(i.RA))
	case MovFR:
		return fmt.Sprintf("movfr %s, %s", f(i.RD), r(i.RA))
	case CvtSI2F:
		return fmt.Sprintf("si2f %s, %s", f(i.RD), r(i.RA))
	case CvtF2SI:
		return fmt.Sprintf("f2si %s, %s", r(i.RD), f(i.RA))
	case Add, Sub, Mul, And, Or, Xor, Shl, Shr, Sar, Rotr, SDiv, SRem, UDiv, URem, Crc32:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, r(i.RD), r(i.RA), r(i.RB))
	case FAdd, FSub, FMul, FDiv:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, f(i.RD), f(i.RA), f(i.RB))
	case Neg, Not:
		return fmt.Sprintf("%s %s", i.Op, r(i.RD))
	case AddI, SubI, MulI, AndI, OrI, XorI, ShlI, ShrI, SarI, RotrI, Lea:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, r(i.RD), r(i.RA), i.Imm)
	case Load8, Load8S, Load16, Load16S, Load32, Load32S, Load64,
		LoadU8, LoadU8S, LoadU16, LoadU16S, LoadU32, LoadU32S, LoadU64:
		return fmt.Sprintf("%s %s, [%s%+d]", i.Op, r(i.RD), r(i.RA), i.Imm)
	case FLoad, FLoadU:
		return fmt.Sprintf("%s %s, [%s%+d]", i.Op, f(i.RD), r(i.RA), i.Imm)
	case Store8, Store16, Store32, Store64,
		StoreU8, StoreU16, StoreU32, StoreU64:
		return fmt.Sprintf("%s [%s%+d], %s", i.Op, r(i.RA), i.Imm, r(i.RB))
	case FStore, FStoreU:
		return fmt.Sprintf("%s [%s%+d], %s", i.Op, r(i.RA), i.Imm, f(i.RB))
	case SetCC:
		return fmt.Sprintf("set.%s %s, %s, %s", i.Cond, r(i.RD), r(i.RA), r(i.RB))
	case FCmp:
		return fmt.Sprintf("fcmp.%s %s, %s, %s", i.Cond, r(i.RD), f(i.RA), f(i.RB))
	case MulWideU, MulWideS:
		return fmt.Sprintf("%s %s:%s, %s, %s", i.Op, r(i.RC), r(i.RD), r(i.RA), r(i.RB))
	case Br:
		return fmt.Sprintf("br %d", i.Target)
	case BrCC:
		return fmt.Sprintf("br.%s %s, %s, %d", i.Cond, r(i.RA), r(i.RB), i.Target)
	case BrNZ:
		return fmt.Sprintf("brnz %s, %d", r(i.RA), i.Target)
	case Call:
		return fmt.Sprintf("call %d", i.Imm)
	case CallInd:
		return fmt.Sprintf("calli %s", r(i.RA))
	case CallRT:
		return fmt.Sprintf("callrt %d", i.Imm)
	case Trap:
		return fmt.Sprintf("trap %s", TrapCode(i.Imm))
	case TrapNZ:
		return fmt.Sprintf("trapnz %s, %s", r(i.RA), TrapCode(i.Imm))
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
