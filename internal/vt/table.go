package vt

// The target ISA table: one row per Op saying what the operation reads,
// writes, encodes and commutes. The encoders, decoders, disassembler and
// predicates of this package and every back-end's operand walk, two-address
// rewrite and latency model read it; adding an operation means adding its
// row here, its meaning in internal/sem and its case in the vm.

// RegClass is the register file a register field names.
type RegClass uint8

// Register classes. GPR is the zero value.
const (
	GPR RegClass = iota // integer register R0..
	FPR                 // floating-point register F0..
)

// Regs is a set of the register fields of an Instr.
type Regs uint8

// Register fields.
const (
	RD Regs = 1 << iota
	RA
	RB
	RC
)

// Form is an operation's operand layout: which fields an encoder writes and
// a decoder fills, and how the va64 encoder expands what does not fit.
type Form uint8

// Operand layouts. The zero Form marks a byte that is no operation.
const (
	FormInvalid Form = iota
	FormNone         // no operands
	FormRR           // RD = RA op RB
	FormUnary        // RD = op RA
	FormRI           // RD = RA op Imm; va64 expands a wide Imm into the RR twin
	FormLoad         // RD = mem[RA+Imm]
	FormStore        // mem[RA+Imm] = RB
	FormSetCC        // RD = RA Cond RB
	FormMulWide      // RD, RC = low, high of RA*RB
	FormMovI         // RD = Imm (va64 expands it)
	FormMovZK        // RD = Imm16 at Cond*16 (va64 only)
	FormBr           // Target
	FormBrCC         // RA Cond RB, Target (va64 expands it)
	FormBrNZ         // RA, Target
	FormCall         // Imm = code offset
	FormCallInd      // RA = code offset
	FormCallRT       // Imm = runtime function id
	FormTrap         // Imm = TrapCode
	FormTrapNZ       // RA, Imm = TrapCode
)

// Info is one row of the table.
type Info struct {
	Name string
	Form Form
	// Use and Def are the register fields the operation reads and writes;
	// Float are those that name an FPR rather than a GPR.
	Use, Def, Float Regs
	// TwoAddr: vx64 requires RD == RA.
	TwoAddr  bool
	Commutes bool
	// RR is the register-register twin of a FormRI operation.
	RR Op
	// Mem is the access width in bytes of a memory operation (0 for none);
	// Store says it writes memory. The address is RA+Imm.
	Mem   uint8
	Store bool
	// Traps: executing the operation may raise a trap (memory bounds,
	// division by zero, explicit traps, call-target resolution).
	Traps bool
	// Latency is the scheduling latency class of lbe's target model, in
	// cycles; 0 reads as 1.
	Latency uint8
}

// Class returns the register class of field f.
func (i *Info) Class(f Regs) RegClass {
	if i.Float&f != 0 {
		return FPR
	}
	return GPR
}

var table = [NumOps]Info{
	Nop:   {Name: "nop", Form: FormNone},
	MovRR: {Name: "mov", Form: FormUnary, Use: RA, Def: RD},
	MovRI: {Name: "movi", Form: FormMovI, Def: RD},
	MovZ:  {Name: "movz", Form: FormMovZK, Def: RD},
	MovK:  {Name: "movk", Form: FormMovZK, Use: RD, Def: RD},

	Load8:   {Name: "ld8", Form: FormLoad, Use: RA, Def: RD, Mem: 1, Traps: true},
	Load8S:  {Name: "ld8s", Form: FormLoad, Use: RA, Def: RD, Mem: 1, Traps: true},
	Load16:  {Name: "ld16", Form: FormLoad, Use: RA, Def: RD, Mem: 2, Traps: true},
	Load16S: {Name: "ld16s", Form: FormLoad, Use: RA, Def: RD, Mem: 2, Traps: true},
	Load32:  {Name: "ld32", Form: FormLoad, Use: RA, Def: RD, Mem: 4, Traps: true, Latency: 4},
	Load32S: {Name: "ld32s", Form: FormLoad, Use: RA, Def: RD, Mem: 4, Traps: true},
	Load64:  {Name: "ld64", Form: FormLoad, Use: RA, Def: RD, Mem: 8, Traps: true, Latency: 4},
	Store8:  {Name: "st8", Form: FormStore, Use: RA | RB, Mem: 1, Store: true, Traps: true},
	Store16: {Name: "st16", Form: FormStore, Use: RA | RB, Mem: 2, Store: true, Traps: true},
	Store32: {Name: "st32", Form: FormStore, Use: RA | RB, Mem: 4, Store: true, Traps: true},
	Store64: {Name: "st64", Form: FormStore, Use: RA | RB, Mem: 8, Store: true, Traps: true},
	Lea:     {Name: "lea", Form: FormRI, Use: RA, Def: RD, RR: Add},

	Add:  {Name: "add", Form: FormRR, Use: RA | RB, Def: RD, TwoAddr: true, Commutes: true},
	Sub:  {Name: "sub", Form: FormRR, Use: RA | RB, Def: RD, TwoAddr: true},
	Mul:  {Name: "mul", Form: FormRR, Use: RA | RB, Def: RD, TwoAddr: true, Commutes: true, Latency: 3},
	And:  {Name: "and", Form: FormRR, Use: RA | RB, Def: RD, TwoAddr: true, Commutes: true},
	Or:   {Name: "or", Form: FormRR, Use: RA | RB, Def: RD, TwoAddr: true, Commutes: true},
	Xor:  {Name: "xor", Form: FormRR, Use: RA | RB, Def: RD, TwoAddr: true, Commutes: true},
	Shl:  {Name: "shl", Form: FormRR, Use: RA | RB, Def: RD, TwoAddr: true},
	Shr:  {Name: "shr", Form: FormRR, Use: RA | RB, Def: RD, TwoAddr: true},
	Sar:  {Name: "sar", Form: FormRR, Use: RA | RB, Def: RD, TwoAddr: true},
	Rotr: {Name: "rotr", Form: FormRR, Use: RA | RB, Def: RD, TwoAddr: true},
	SDiv: {Name: "sdiv", Form: FormRR, Use: RA | RB, Def: RD, TwoAddr: true, Traps: true, Latency: 20},
	SRem: {Name: "srem", Form: FormRR, Use: RA | RB, Def: RD, TwoAddr: true, Traps: true, Latency: 20},
	UDiv: {Name: "udiv", Form: FormRR, Use: RA | RB, Def: RD, TwoAddr: true, Traps: true, Latency: 20},
	URem: {Name: "urem", Form: FormRR, Use: RA | RB, Def: RD, TwoAddr: true, Traps: true, Latency: 20},

	AddI:  {Name: "addi", Form: FormRI, Use: RA, Def: RD, TwoAddr: true, RR: Add},
	SubI:  {Name: "subi", Form: FormRI, Use: RA, Def: RD, TwoAddr: true, RR: Sub},
	MulI:  {Name: "muli", Form: FormRI, Use: RA, Def: RD, TwoAddr: true, RR: Mul, Latency: 3},
	AndI:  {Name: "andi", Form: FormRI, Use: RA, Def: RD, TwoAddr: true, RR: And},
	OrI:   {Name: "ori", Form: FormRI, Use: RA, Def: RD, TwoAddr: true, RR: Or},
	XorI:  {Name: "xori", Form: FormRI, Use: RA, Def: RD, TwoAddr: true, RR: Xor},
	ShlI:  {Name: "shli", Form: FormRI, Use: RA, Def: RD, TwoAddr: true, RR: Shl},
	ShrI:  {Name: "shri", Form: FormRI, Use: RA, Def: RD, TwoAddr: true, RR: Shr},
	SarI:  {Name: "sari", Form: FormRI, Use: RA, Def: RD, TwoAddr: true, RR: Sar},
	RotrI: {Name: "rotri", Form: FormRI, Use: RA, Def: RD, TwoAddr: true, RR: Rotr},

	Neg: {Name: "neg", Form: FormUnary, Use: RA, Def: RD, TwoAddr: true},
	Not: {Name: "not", Form: FormUnary, Use: RA, Def: RD, TwoAddr: true},

	MulWideU: {Name: "mulwu", Form: FormMulWide, Use: RA | RB, Def: RD | RC, Latency: 3},
	MulWideS: {Name: "mulws", Form: FormMulWide, Use: RA | RB, Def: RD | RC, Latency: 3},
	SetCC:    {Name: "set", Form: FormSetCC, Use: RA | RB, Def: RD},

	Br:      {Name: "br", Form: FormBr},
	BrCC:    {Name: "brcc", Form: FormBrCC, Use: RA | RB},
	BrNZ:    {Name: "brnz", Form: FormBrNZ, Use: RA},
	Call:    {Name: "call", Form: FormCall},
	CallInd: {Name: "calli", Form: FormCallInd, Use: RA, Traps: true},
	CallRT:  {Name: "callrt", Form: FormCallRT, Traps: true},
	Ret:     {Name: "ret", Form: FormNone},
	Trap:    {Name: "trap", Form: FormTrap, Traps: true},
	TrapNZ:  {Name: "trapnz", Form: FormTrapNZ, Use: RA, Traps: true},
	Crc32:   {Name: "crc32", Form: FormRR, Use: RA | RB, Def: RD, TwoAddr: true},

	FMovRR:  {Name: "fmov", Form: FormUnary, Use: RA, Def: RD, Float: RD | RA},
	FMovRI:  {Name: "fmovi", Form: FormMovI, Def: RD, Float: RD},
	FLoad:   {Name: "fld", Form: FormLoad, Use: RA, Def: RD, Float: RD, Mem: 8, Traps: true, Latency: 4},
	FStore:  {Name: "fst", Form: FormStore, Use: RA | RB, Float: RB, Mem: 8, Store: true, Traps: true},
	FAdd:    {Name: "fadd", Form: FormRR, Use: RA | RB, Def: RD, Float: RD | RA | RB, TwoAddr: true, Commutes: true},
	FSub:    {Name: "fsub", Form: FormRR, Use: RA | RB, Def: RD, Float: RD | RA | RB, TwoAddr: true},
	FMul:    {Name: "fmul", Form: FormRR, Use: RA | RB, Def: RD, Float: RD | RA | RB, TwoAddr: true, Commutes: true},
	FDiv:    {Name: "fdiv", Form: FormRR, Use: RA | RB, Def: RD, Float: RD | RA | RB, TwoAddr: true, Latency: 20},
	FCmp:    {Name: "fcmp", Form: FormSetCC, Use: RA | RB, Def: RD, Float: RA | RB},
	CvtSI2F: {Name: "si2f", Form: FormUnary, Use: RA, Def: RD, Float: RD},
	CvtF2SI: {Name: "f2si", Form: FormUnary, Use: RA, Def: RD, Float: RA},
	MovRF:   {Name: "movrf", Form: FormUnary, Use: RA, Def: RD, Float: RA},
	MovFR:   {Name: "movfr", Form: FormUnary, Use: RA, Def: RD, Float: RD},

	LoadU8:   {Name: "ldu8", Form: FormLoad, Use: RA, Def: RD, Mem: 1},
	LoadU8S:  {Name: "ldu8s", Form: FormLoad, Use: RA, Def: RD, Mem: 1},
	LoadU16:  {Name: "ldu16", Form: FormLoad, Use: RA, Def: RD, Mem: 2},
	LoadU16S: {Name: "ldu16s", Form: FormLoad, Use: RA, Def: RD, Mem: 2},
	LoadU32:  {Name: "ldu32", Form: FormLoad, Use: RA, Def: RD, Mem: 4, Latency: 4},
	LoadU32S: {Name: "ldu32s", Form: FormLoad, Use: RA, Def: RD, Mem: 4},
	LoadU64:  {Name: "ldu64", Form: FormLoad, Use: RA, Def: RD, Mem: 8, Latency: 4},
	StoreU8:  {Name: "stu8", Form: FormStore, Use: RA | RB, Mem: 1, Store: true},
	StoreU16: {Name: "stu16", Form: FormStore, Use: RA | RB, Mem: 2, Store: true},
	StoreU32: {Name: "stu32", Form: FormStore, Use: RA | RB, Mem: 4, Store: true},
	StoreU64: {Name: "stu64", Form: FormStore, Use: RA | RB, Mem: 8, Store: true},
	FLoadU:   {Name: "fldu", Form: FormLoad, Use: RA, Def: RD, Float: RD, Mem: 8, Latency: 4},
	FStoreU:  {Name: "fstu", Form: FormStore, Use: RA | RB, Float: RB, Mem: 8, Store: true},
}

// Info returns op's row of the table, which callers must not modify; a
// byte that is no operation gets the zero row (FormInvalid).
func (o Op) Info() *Info {
	if o < NumOps {
		return &table[o]
	}
	return &noOp
}

var noOp Info

// Walk calls fn for every register operand of an instruction of op whose
// fields, in a back-end's own register numbering, are rd, ra, rb and rc:
// first the fields op reads (RA, RB, RD), then those it writes (RD, RC),
// each with its register class. Fields holding none are skipped.
func Walk[R comparable](op Op, none R, rd, ra, rb, rc *R, fn func(r *R, def bool, cls RegClass)) {
	i := op.Info()
	if i.Use&RA != 0 && *ra != none {
		fn(ra, false, i.Class(RA))
	}
	if i.Use&RB != 0 && *rb != none {
		fn(rb, false, i.Class(RB))
	}
	if i.Use&RD != 0 && *rd != none {
		fn(rd, false, i.Class(RD))
	}
	if i.Def&RD != 0 && *rd != none {
		fn(rd, true, i.Class(RD))
	}
	if i.Def&RC != 0 && *rc != none {
		fn(rc, true, i.Class(RC))
	}
}

// MovOf returns the register-to-register move of class c.
func MovOf(c RegClass) Op {
	if c == FPR {
		return FMovRR
	}
	return MovRR
}
