package vt

import (
	"encoding/binary"
	"fmt"
)

// Label identifies a forward- or backward-referenced code position within one
// Assembler. Labels are created with NewLabel and given a position with Bind.
type Label int32

// RelocKind describes how a relocation site must be patched by a linker.
type RelocKind uint8

// Relocation kinds.
const (
	// RelocCall32 patches a 32-bit absolute code offset (vx64 Call).
	RelocCall32 RelocKind = iota
	// RelocAbs64 patches a 64-bit absolute value (vx64 MovRI).
	RelocAbs64
	// RelocCall24 patches a 24-bit absolute code word offset (va64 Call).
	RelocCall24
	// RelocMovSeq64 patches the imm16 fields of a 4-instruction
	// MovZ/MovK sequence (va64 address materialization).
	RelocMovSeq64
)

// Reloc records a site in emitted code that a linker must patch with the
// final value of a symbol.
type Reloc struct {
	Kind   RelocKind
	Offset int32 // byte offset of the patch site within the code buffer
	Sym    int32 // symbol index, meaning is assigned by the consumer
}

// Patch writes the resolved symbol value into code at the relocation site.
func (r Reloc) Patch(code []byte, value int64) {
	switch r.Kind {
	case RelocCall32:
		binary.LittleEndian.PutUint32(code[r.Offset:], uint32(value))
	case RelocAbs64:
		binary.LittleEndian.PutUint64(code[r.Offset:], uint64(value))
	case RelocCall24:
		w := binary.LittleEndian.Uint32(code[r.Offset:])
		w = w&0xFF | uint32(value/4)<<8
		binary.LittleEndian.PutUint32(code[r.Offset:], w)
	case RelocMovSeq64:
		v := uint64(value)
		for i := 0; i < 4; i++ {
			off := int(r.Offset) + 4*i
			w := binary.LittleEndian.Uint32(code[off:])
			w = w&0x0000FFFF | uint32(v>>(16*i)&0xFFFF)<<16
			binary.LittleEndian.PutUint32(code[off:], w)
		}
	default:
		panic("vt: bad reloc kind")
	}
}

// Assembler encodes Instr values into target machine code. Branch targets
// are expressed via labels stored in Instr.Target; unresolved references are
// recorded as fixups and patched in Finish.
type Assembler interface {
	// Target returns the architecture descriptor being encoded for.
	Target() *Target
	// Emit appends one instruction. For branch operations Instr.Target
	// must hold a Label obtained from NewLabel.
	Emit(i Instr)
	// NewLabel allocates an unbound label.
	NewLabel() Label
	// Bind fixes a label to the current code position.
	Bind(l Label)
	// PCOffset returns the current code length in bytes.
	PCOffset() int
	// EmitCallSym emits a call to a not-yet-placed local function,
	// recording a relocation against sym.
	EmitCallSym(sym int32)
	// EmitMovSym emits code loading the final address of sym into rd,
	// recording a relocation.
	EmitMovSym(rd uint8, sym int32)
	// Finish resolves all label fixups and returns the code bytes and
	// relocations. The assembler must not be used afterwards.
	Finish() ([]byte, []Reloc, error)
}

// NewAssembler returns an encoder for the given architecture.
func NewAssembler(a Arch) Assembler {
	switch a {
	case VX64:
		return &x64Asm{t: vx64Target}
	case VA64:
		return &a64Asm{t: va64Target}
	}
	panic("vt: unknown arch")
}

// NewFastX64Assembler returns a vx64 encoder that always stores immediates
// in 8 bytes. This is the DirectEmit-style encoder described in the paper:
// it trades code compactness for a branch-free encoding path.
func NewFastX64Assembler() Assembler {
	return &x64Asm{t: vx64Target, fixedImm: true}
}

type fixup struct {
	label Label
	at    int32 // byte offset of the rel32 field
	end   int32 // byte offset the displacement is relative to (vx64) or instr start (va64)
	kind  uint8 // 0: vx64 rel32; 1: va64 rel24 word; 2: va64 rel18 word
}

const (
	fixRel32 uint8 = iota
	fixRel24
	fixRel18
)

// ---------------------------------------------------------------------------
// vx64: variable-length encoding.
//
// byte 0: opcode. Remaining bytes depend on the operation's Form (table.go):
//
//	none      -
//	unary     byte1 = rd<<4|ra (two-address: rd<<4)
//	rr        byte1 = rd<<4|rb (two-address: RA is RD)
//	setcc     byte1 = rd<<4|ra, byte2 = cond<<4|rb
//	mulwide   byte1 = rd<<4|rc, byte2 = ra<<4|rb
//	movi      byte1 = rd<<4, then the immediate as in ri
//	ri, load  byte1 = rd<<4|ra, byte2 = size code 0..3 (1/2/4/8 bytes), imm LE
//	store     byte1 = ra<<4|rb, then the immediate as in ri
//	br        rel32
//	brcc      byte1 = ra<<4|rb, byte2 = cond, rel32
//	brnz      byte1 = ra<<4, rel32
//	call      abs32 (relocated)
//	callrt    uint16 id
//	trap      byte1 = code
//	trapnz    byte1 = ra<<4, byte2 = code
// ---------------------------------------------------------------------------

type x64Asm struct {
	t        *Target
	code     []byte
	labels   []int32
	fixups   []fixup
	relocs   []Reloc
	fixedImm bool
	err      error
}

func (a *x64Asm) Target() *Target { return a.t }
func (a *x64Asm) PCOffset() int   { return len(a.code) }

func (a *x64Asm) NewLabel() Label {
	a.labels = append(a.labels, -1)
	return Label(len(a.labels) - 1)
}

func (a *x64Asm) Bind(l Label) {
	if a.labels[l] != -1 {
		a.fail("label %d bound twice", l)
		return
	}
	a.labels[l] = int32(len(a.code))
}

func (a *x64Asm) fail(format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf("vx64: "+format, args...)
	}
}

func (a *x64Asm) byte(b byte) { a.code = append(a.code, b) }
func (a *x64Asm) regs(hi, lo uint8) {
	if hi > 15 || lo > 15 {
		a.fail("register out of range: %d, %d", hi, lo)
	}
	a.byte(hi<<4 | lo&0xF)
}

func (a *x64Asm) imm(v int64) {
	if a.fixedImm {
		a.byte(3)
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		a.code = append(a.code, b[:]...)
		return
	}
	switch {
	case v >= -128 && v < 128:
		a.byte(0)
		a.byte(byte(v))
	case v >= -32768 && v < 32768:
		a.byte(1)
		var b [2]byte
		binary.LittleEndian.PutUint16(b[:], uint16(v))
		a.code = append(a.code, b[:]...)
	case v >= -(1<<31) && v < 1<<31:
		a.byte(2)
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		a.code = append(a.code, b[:]...)
	default:
		a.byte(3)
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		a.code = append(a.code, b[:]...)
	}
}

// rel32 emits a 4-byte displacement field, recording a fixup if the label is
// not yet bound.
func (a *x64Asm) rel32(l Label) {
	at := int32(len(a.code))
	a.code = append(a.code, 0, 0, 0, 0)
	end := int32(len(a.code))
	if int(l) >= len(a.labels) {
		a.fail("branch to unknown label %d", l)
		return
	}
	a.fixups = append(a.fixups, fixup{label: l, at: at, end: end, kind: fixRel32})
}

func (a *x64Asm) Emit(i Instr) {
	op := i.Op
	info := op.Info()
	a.byte(byte(op))
	if info.TwoAddr && i.RD != i.RA {
		a.fail("%s: two-address form requires RD==RA (got r%d, r%d)", op, i.RD, i.RA)
	}
	switch info.Form {
	case FormNone:
		// no operands
	case FormUnary:
		if info.TwoAddr {
			a.regs(i.RD, 0)
		} else {
			a.regs(i.RD, i.RA)
		}
	case FormRR:
		a.regs(i.RD, i.RB)
	case FormSetCC:
		a.regs(i.RD, i.RA)
		a.byte(byte(i.Cond)<<4 | i.RB&0xF)
	case FormMulWide:
		a.regs(i.RD, i.RC)
		a.regs(i.RA, i.RB)
	case FormMovI:
		a.regs(i.RD, 0)
		a.imm(i.Imm)
	case FormRI, FormLoad:
		a.regs(i.RD, i.RA)
		a.imm(i.Imm)
	case FormStore:
		a.regs(i.RA, i.RB)
		a.imm(i.Imm)
	case FormBr:
		a.rel32(Label(i.Target))
	case FormBrCC:
		a.regs(i.RA, i.RB)
		a.byte(byte(i.Cond))
		a.rel32(Label(i.Target))
	case FormBrNZ:
		a.regs(i.RA, 0)
		a.rel32(Label(i.Target))
	case FormCall:
		// Direct call with a known offset: encode absolute 32-bit.
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(i.Imm))
		a.code = append(a.code, b[:]...)
	case FormCallInd:
		a.regs(i.RA, 0)
	case FormCallRT:
		var b [2]byte
		binary.LittleEndian.PutUint16(b[:], uint16(i.Imm))
		a.code = append(a.code, b[:]...)
	case FormTrap:
		a.byte(byte(i.Imm))
	case FormTrapNZ:
		a.regs(i.RA, 0)
		a.byte(byte(i.Imm))
	case FormMovZK:
		a.fail("%s not supported on vx64", op)
	default:
		a.fail("cannot encode %s", op)
	}
}

func (a *x64Asm) EmitCallSym(sym int32) {
	a.byte(byte(Call))
	a.relocs = append(a.relocs, Reloc{Kind: RelocCall32, Offset: int32(len(a.code)), Sym: sym})
	a.code = append(a.code, 0, 0, 0, 0)
}

func (a *x64Asm) EmitMovSym(rd uint8, sym int32) {
	a.byte(byte(MovRI))
	a.regs(rd, 0)
	a.byte(3) // always 8-byte immediate for relocated values
	a.relocs = append(a.relocs, Reloc{Kind: RelocAbs64, Offset: int32(len(a.code)), Sym: sym})
	a.code = append(a.code, 0, 0, 0, 0, 0, 0, 0, 0)
}

func (a *x64Asm) Finish() ([]byte, []Reloc, error) {
	if a.err != nil {
		return nil, nil, a.err
	}
	for _, f := range a.fixups {
		pos := a.labels[f.label]
		if pos < 0 {
			return nil, nil, fmt.Errorf("vx64: unbound label %d", f.label)
		}
		binary.LittleEndian.PutUint32(a.code[f.at:], uint32(pos-f.end))
	}
	return a.code, a.relocs, nil
}

// ---------------------------------------------------------------------------
// va64: fixed 4-byte encoding.
//
// Register-register word: [op:8][rd:6][ra:6][rb:6][x:6] where x carries the
// condition (SetCC, FCmp), the second destination (MulWide), or is unused.
// Register-immediate word:  [op:8][rd:6][ra:6][imm:12 signed]
// MovZ/MovK:                [op:8][rd:6][shift:2][imm:16]
// Br:                       [op:8][rel:24 signed words]
// BrNZ:                     [op:8][ra:6][rel:18 signed words]
// Call:                     [op:8][abs:24 words, relocated]
// CallRT:                   [op:8][x:8][id:16]
//
// Out-of-range immediates, displacements and BrCC are expanded into
// multi-instruction sequences using the reserved scratch register.
// ---------------------------------------------------------------------------

type a64Asm struct {
	t      *Target
	code   []byte
	labels []int32
	fixups []fixup
	relocs []Reloc
	err    error
}

func (a *a64Asm) Target() *Target { return a.t }
func (a *a64Asm) PCOffset() int   { return len(a.code) }

func (a *a64Asm) NewLabel() Label {
	a.labels = append(a.labels, -1)
	return Label(len(a.labels) - 1)
}

func (a *a64Asm) Bind(l Label) {
	if a.labels[l] != -1 {
		a.fail("label %d bound twice", l)
		return
	}
	a.labels[l] = int32(len(a.code))
}

func (a *a64Asm) fail(format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf("va64: "+format, args...)
	}
}

func (a *a64Asm) word(w uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], w)
	a.code = append(a.code, b[:]...)
}

func r6(r uint8) uint32 {
	return uint32(r) & 0x3F
}

func (a *a64Asm) rrWord(op Op, rd, ra, rb, x uint8) {
	a.word(uint32(op) | r6(rd)<<8 | r6(ra)<<14 | r6(rb)<<20 | r6(x)<<26)
}

func (a *a64Asm) riWord(op Op, rd, ra uint8, imm int64) {
	a.word(uint32(op) | r6(rd)<<8 | r6(ra)<<14 | uint32(imm&0xFFF)<<20)
}

func fitsImm12(v int64) bool { return v >= -2048 && v < 2048 }

// movConst synthesizes an arbitrary 64-bit constant into rd via MovZ/MovK.
func (a *a64Asm) movConst(rd uint8, v int64) {
	u := uint64(v)
	emitted := false
	for sh := 0; sh < 4; sh++ {
		part := u >> (16 * sh) & 0xFFFF
		if part == 0 && !(sh == 3 && !emitted) {
			continue
		}
		op := MovK
		if !emitted {
			op = MovZ
			emitted = true
		}
		a.word(uint32(op) | r6(rd)<<8 | uint32(sh)<<14 | uint32(part)<<16)
	}
	if !emitted {
		a.word(uint32(MovZ) | r6(rd)<<8)
	}
}

func (a *a64Asm) Emit(i Instr) {
	op := i.Op
	info := op.Info()
	sc := a.t.Scratch
	switch info.Form {
	case FormNone:
		a.word(uint32(op))
	case FormUnary:
		a.rrWord(op, i.RD, i.RA, 0, 0)
	case FormRR:
		a.rrWord(op, i.RD, i.RA, i.RB, 0)
	case FormSetCC:
		a.rrWord(op, i.RD, i.RA, i.RB, uint8(i.Cond))
	case FormMulWide:
		a.rrWord(op, i.RD, i.RA, i.RB, i.RC)
	case FormMovZK:
		a.word(uint32(op) | r6(i.RD)<<8 | uint32(i.Cond&3)<<14 | uint32(uint16(i.Imm))<<16)
	case FormMovI:
		if info.Class(RD) == GPR {
			a.movConst(i.RD, i.Imm)
			return
		}
		a.movConst(sc, i.Imm)
		a.rrWord(MovFR, i.RD, sc, 0, 0)
	case FormRI:
		if fitsImm12(i.Imm) {
			a.riWord(op, i.RD, i.RA, i.Imm)
			return
		}
		a.movConst(sc, i.Imm)
		a.rrWord(info.RR, i.RD, i.RA, sc, 0)
	case FormLoad, FormStore:
		// A store carries its value register in the rd slot.
		rd := i.RD
		if info.Form == FormStore {
			rd = i.RB
		}
		if fitsImm12(i.Imm) {
			a.riWord(op, rd, i.RA, i.Imm)
			return
		}
		a.movConst(sc, i.Imm)
		a.rrWord(Add, sc, sc, i.RA, 0)
		a.riWord(op, rd, sc, 0)
	case FormBr:
		at := int32(len(a.code))
		a.word(uint32(op))
		a.fixups = append(a.fixups, fixup{label: Label(i.Target), at: at, end: at, kind: fixRel24})
	case FormBrNZ:
		at := int32(len(a.code))
		a.word(uint32(op) | r6(i.RA)<<8)
		a.fixups = append(a.fixups, fixup{label: Label(i.Target), at: at, end: at, kind: fixRel18})
	case FormBrCC:
		// Expand: SetCC scratch; BrNZ scratch.
		a.rrWord(SetCC, sc, i.RA, i.RB, uint8(i.Cond))
		at := int32(len(a.code))
		a.word(uint32(BrNZ) | r6(sc)<<8)
		a.fixups = append(a.fixups, fixup{label: Label(i.Target), at: at, end: at, kind: fixRel18})
	case FormCall:
		a.word(uint32(op) | uint32(i.Imm/4)<<8)
	case FormCallInd:
		a.rrWord(op, 0, i.RA, 0, 0)
	case FormCallRT:
		a.word(uint32(op) | uint32(uint16(i.Imm))<<16)
	case FormTrap:
		a.rrWord(op, uint8(i.Imm), 0, 0, 0)
	case FormTrapNZ:
		a.rrWord(op, uint8(i.Imm), i.RA, 0, 0)
	default:
		a.fail("cannot encode %s", op)
	}
}

func (a *a64Asm) EmitCallSym(sym int32) {
	a.relocs = append(a.relocs, Reloc{Kind: RelocCall24, Offset: int32(len(a.code)), Sym: sym})
	a.word(uint32(Call))
}

func (a *a64Asm) EmitMovSym(rd uint8, sym int32) {
	a.relocs = append(a.relocs, Reloc{Kind: RelocMovSeq64, Offset: int32(len(a.code)), Sym: sym})
	for sh := 0; sh < 4; sh++ {
		op := MovK
		if sh == 0 {
			op = MovZ
		}
		a.word(uint32(op) | r6(rd)<<8 | uint32(sh)<<14)
	}
}

func (a *a64Asm) Finish() ([]byte, []Reloc, error) {
	if a.err != nil {
		return nil, nil, a.err
	}
	for _, f := range a.fixups {
		pos := a.labels[f.label]
		if pos < 0 {
			return nil, nil, fmt.Errorf("va64: unbound label %d", f.label)
		}
		relWords := (pos - f.at) / 4
		w := binary.LittleEndian.Uint32(a.code[f.at:])
		switch f.kind {
		case fixRel24:
			if relWords < -(1<<23) || relWords >= 1<<23 {
				return nil, nil, fmt.Errorf("va64: branch out of range (%d words)", relWords)
			}
			w = w&0xFF | uint32(relWords&0xFFFFFF)<<8
		case fixRel18:
			if relWords < -(1<<17) || relWords >= 1<<17 {
				return nil, nil, fmt.Errorf("va64: brnz out of range (%d words)", relWords)
			}
			w = w&0x3FFF | uint32(relWords&0x3FFFF)<<14
		default:
			return nil, nil, fmt.Errorf("va64: bad fixup kind")
		}
		binary.LittleEndian.PutUint32(a.code[f.at:], w)
	}
	return a.code, a.relocs, nil
}
