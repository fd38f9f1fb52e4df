package lbe

import (
	"encoding/binary"
	"fmt"

	"qcc/internal/backend"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// prologEpilog finalizes the stack frame: it computes the layout (spill
// slots plus the callee-saved area), rewrites every frame-index reference,
// and inserts the prologue and epilogues — the pass the paper reports at 4%
// of cheap compile time.
func prologEpilog(mf *mfunc, st *raState, tgt *vt.Target) {
	slotBase := int64(0)
	calleeBase := slotBase + int64(st.numSlots)*8
	frame := calleeBase + int64(len(st.usedCallee))*8
	frame = (frame + 15) &^ 15
	if frame == 0 {
		frame = 16
	}
	sp := mpreg(tgt.SP)

	// Rewrite frame-index references.
	for b := range mf.blocks {
		for i := range mf.blocks[b].insts {
			in := &mf.blocks[b].insts[i]
			if in.sym == -2 {
				in.imm = slotBase + in.imm*8
				in.sym = -1
			}
		}
	}

	// Prologue at function entry.
	var pro []minst
	sub := newMinst(vt.SubI)
	sub.rd, sub.ra, sub.imm = sp, sp, frame
	pro = append(pro, sub)
	for i, r := range st.usedCallee {
		s := newMinst(vt.Store64)
		s.ra, s.rb, s.imm = sp, mpreg(r), calleeBase+int64(i)*8
		pro = append(pro, s)
	}
	mf.blocks[0].insts = append(pro, mf.blocks[0].insts...)

	// Epilogues before every return.
	for b := range mf.blocks {
		blk := &mf.blocks[b]
		var out []minst
		for _, in := range blk.insts {
			if in.op == vt.Ret {
				for i, r := range st.usedCallee {
					l := newMinst(vt.Load64)
					l.rd, l.ra, l.imm = mpreg(r), sp, calleeBase+int64(i)*8
					out = append(out, l)
				}
				add := newMinst(vt.AddI)
				add.rd, add.ra, add.imm = sp, sp, frame
				out = append(out, add)
			}
			out = append(out, in)
		}
		blk.insts = out
	}
}

// mcStreamer abstracts the emission target, mirroring LLVM's MCStreamer:
// every instruction goes through virtual dispatch, and hooks observe each
// instruction, basic block, and function (used here for the DWARF unwind
// writer) — the indirection costs the paper describes.
type mcStreamer interface {
	emitLabel(name string)
	emitInstruction(inst *mcInst)
	emitFunctionStart(name string)
	emitFunctionEnd(name string)
}

// mcInst is the MC-layer instruction: a second in-memory form between MIR
// and encoded bytes.
type mcInst struct {
	op       vt.Op
	cond     vt.Cond
	rd       uint8
	ra       uint8
	rb       uint8
	rc       uint8
	imm      int64
	labelRef string // branch target label ("" none)
	symRef   int32  // relocation symbol (-1 none)
}

// objEmitter implements mcStreamer, encoding into an object-file text
// section with string-keyed labels (hashed on every reference, as in LLVM).
type objEmitter struct {
	asm      vt.Assembler
	arch     vt.Arch
	labels   map[string]vt.Label
	cfi      []byte
	fnStarts map[string]int32
	fnEnds   map[string]int32
	hooks    []func(*mcInst) // per-instruction hooks (unwind writer)
	// callFixups are local call sites patched at finish (label name and
	// byte offset of the call instruction).
	callFixups []callFixup
	labelPos   map[string]int32 // filled from labels at finish
}

// callFixup is a call site referencing a text label by name; sites whose
// label lives outside the emitter's own buffer (a function unit calling a
// module PLT stub) survive finish unresolved and are patched by the link
// step once the stub addresses are known.
type callFixup struct {
	at    int32
	label string
}

func newObjEmitter(arch vt.Arch) *objEmitter {
	oe := &objEmitter{
		asm:      vt.NewAssembler(arch),
		arch:     arch,
		labels:   map[string]vt.Label{},
		fnStarts: map[string]int32{},
		fnEnds:   map[string]int32{},
		labelPos: map[string]int32{},
	}
	// The DWARF unwind hook observes every instruction.
	oe.hooks = append(oe.hooks, func(in *mcInst) {
		if in.op == vt.CallRT || in.op == vt.Call {
			oe.cfi = appendCFIAdvance(oe.cfi, oe.asm.PCOffset())
		}
	})
	return oe
}

func appendCFIAdvance(cfi []byte, off int) []byte {
	cfi = append(cfi, 0x02) // DW_CFA_advance_loc-like
	for v := uint(off); ; {
		c := byte(v & 0x7F)
		v >>= 7
		if v != 0 {
			cfi = append(cfi, c|0x80)
		} else {
			cfi = append(cfi, c)
			break
		}
	}
	return cfi
}

func (oe *objEmitter) label(name string) vt.Label {
	if l, ok := oe.labels[name]; ok {
		return l
	}
	l := oe.asm.NewLabel()
	oe.labels[name] = l
	return l
}

func (oe *objEmitter) emitLabel(name string) {
	oe.asm.Bind(oe.label(name))
	oe.labelPos[name] = int32(oe.asm.PCOffset())
}

func (oe *objEmitter) emitFunctionStart(name string) {
	oe.fnStarts[name] = int32(oe.asm.PCOffset())
}

func (oe *objEmitter) emitFunctionEnd(name string) {
	oe.fnEnds[name] = int32(oe.asm.PCOffset())
}

func (oe *objEmitter) emitInstruction(in *mcInst) {
	for _, h := range oe.hooks {
		h(in)
	}
	if in.symRef >= 0 {
		oe.asm.EmitMovSym(in.rd, in.symRef)
		return
	}
	if in.op == vt.Call && in.labelRef != "" {
		// Local call: patch the absolute target at finish time.
		at := int32(oe.asm.PCOffset())
		if oe.arch == vt.VX64 {
			at++ // opcode byte precedes the abs32 field
		}
		oe.callFixups = append(oe.callFixups, callFixup{at, in.labelRef})
		oe.asm.Emit(vt.Instr{Op: vt.Call, Imm: 0})
		return
	}
	i := vt.Instr{
		Op: in.op, Cond: in.cond, RD: in.rd, RA: in.ra, RB: in.rb, RC: in.rc,
		Imm: in.imm,
	}
	if in.labelRef != "" {
		i.Target = int32(oe.label(in.labelRef))
	}
	oe.asm.Emit(i)
}

// finish resolves label fixups and local calls, returning the text bytes,
// the external (function-symbol) relocations, and any call fixups whose
// label is not defined in this buffer — those reference module PLT stubs
// and are resolved by the link step.
func (oe *objEmitter) finish() ([]byte, []vt.Reloc, []callFixup, error) {
	code, relocs, err := oe.asm.Finish()
	if err != nil {
		return nil, nil, nil, err
	}
	var ext []callFixup
	for _, f := range oe.callFixups {
		pos, ok := oe.labelPos[f.label]
		if !ok {
			ext = append(ext, f)
			continue
		}
		oe.patchCall(code, f.at, int64(pos))
	}
	return code, relocs, ext, nil
}

// patchCall writes the absolute call target at a call fixup site.
func (oe *objEmitter) patchCall(code []byte, at int32, pos int64) {
	kind := vt.RelocCall32
	if oe.arch == vt.VA64 {
		kind = vt.RelocCall24
	}
	vt.Reloc{Kind: kind, Offset: at}.Patch(code, pos)
}

// rebaseCFIAdvances re-encodes a unit-relative CFI advance stream against a
// new base offset, so per-function CFI fragments can be concatenated into
// the module's unwind section.
func rebaseCFIAdvances(dst, cfi []byte, base int) ([]byte, error) {
	for i := 0; i < len(cfi); {
		if cfi[i] != 0x02 {
			return nil, fmt.Errorf("lbe: bad CFI opcode 0x%02x", cfi[i])
		}
		i++
		var off uint
		for shift := 0; ; shift += 7 {
			if i >= len(cfi) {
				return nil, fmt.Errorf("lbe: truncated CFI advance")
			}
			c := cfi[i]
			i++
			off |= uint(c&0x7F) << shift
			if c&0x80 == 0 {
				break
			}
		}
		dst = appendCFIAdvance(dst, int(off)+base)
	}
	return dst, nil
}

// asmPrint lowers one allocated, frame-finalized MIR function through the
// streamer.
func asmPrint(mf *mfunc, tgt *vt.Target, out mcStreamer, fnIdx int, cfg Config, rtUsed map[uint32]bool) error {
	out.emitFunctionStart(mf.name)
	out.emitLabel(fmt.Sprintf("%s$entry", mf.name))
	for b := range mf.blocks {
		out.emitLabel(fmt.Sprintf("%s$bb%d", mf.name, b))
		for i := range mf.blocks[b].insts {
			in := &mf.blocks[b].insts[i]
			// Branch folding: an unconditional branch to the next block
			// in layout order falls through.
			if in.op == vt.Br && i == len(mf.blocks[b].insts)-1 && in.target == int32(b)+1 {
				continue
			}
			mc := &mcInst{op: in.op, cond: in.cond, imm: in.imm, symRef: -1}
			reg := func(r mreg) (uint8, error) {
				if r == mnone {
					return 0, nil
				}
				if !isMPreg(r) {
					return 0, fmt.Errorf("lbe: %s: unallocated vreg %d in %s", mf.name, r, in)
				}
				return mpregNum(r), nil
			}
			var err error
			mc.rd, err = reg(in.rd)
			if err != nil {
				return err
			}
			mc.ra, err = reg(in.ra)
			if err != nil {
				return err
			}
			mc.rb, err = reg(in.rb)
			if err != nil {
				return err
			}
			mc.rc, err = reg(in.rc)
			if err != nil {
				return err
			}
			switch {
			case in.op == vt.MovRR && mc.rd == mc.ra,
				in.op == vt.FMovRR && mc.rd == mc.ra:
				continue // identity copies from coalescing
			case in.op.IsBranch():
				mc.labelRef = fmt.Sprintf("%s$bb%d", mf.name, in.target)
			case in.op == vt.MovRI && in.sym >= 0:
				mc.symRef = in.sym
			case in.op == vt.CallRT && !cfg.LargeCodeModel:
				// Small-PIC: route through the module PLT (one extra
				// jump pair at run time, cf. Sec. V-A2).
				rtUsed[uint32(in.imm)] = true
				out.emitInstruction(&mcInst{op: vt.Call, labelRef: fmt.Sprintf("$plt%d", in.imm), symRef: -1})
				continue
			}
			out.emitInstruction(mc)
		}
	}
	out.emitFunctionEnd(mf.name)
	return nil
}

// emitPLT writes the PLT stubs for the runtime functions the module calls
// (Small-PIC code model): each stub performs the actual runtime call and
// returns, costing the extra jump pair the paper discusses.
func emitPLT(out *objEmitter, rtUsed map[uint32]bool, max uint32) {
	for id := uint32(0); id <= max; id++ {
		if !rtUsed[id] {
			continue
		}
		out.emitLabel(fmt.Sprintf("$plt%d", id))
		out.emitInstruction(&mcInst{op: vt.CallRT, imm: int64(id), symRef: -1})
		out.emitInstruction(&mcInst{op: vt.Ret, symRef: -1})
	}
}

// object is the in-memory ELF-like object file.
type object struct {
	text    []byte
	symbols []objSymbol
	relocs  []objReloc
	cfi     []byte
	names   []byte // string table
}

type objSymbol struct {
	nameOff int32
	nameLen int32
	value   int32 // offset in text
	size    int32
}

type objReloc struct {
	off  int32
	kind vt.RelocKind
	sym  int32
}

// encodeObject serializes the object to bytes (section header + payloads),
// the format JITLink parses back.
func encodeObject(o *object) []byte {
	var buf []byte
	w32 := func(v int32) {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], uint32(v))
		buf = append(buf, b[:]...)
	}
	buf = append(buf, 'Q', 'E', 'L', 'F')
	w32(int32(len(o.text)))
	w32(int32(len(o.symbols)))
	w32(int32(len(o.relocs)))
	w32(int32(len(o.cfi)))
	w32(int32(len(o.names)))
	buf = append(buf, o.text...)
	for _, s := range o.symbols {
		w32(s.nameOff)
		w32(s.nameLen)
		w32(s.value)
		w32(s.size)
	}
	for _, r := range o.relocs {
		w32(r.off)
		w32(int32(r.kind))
		w32(r.sym)
	}
	buf = append(buf, o.cfi...)
	buf = append(buf, o.names...)
	return buf
}

// jitLink maps the object into executable form in four phases, mirroring
// the JITLink flow of the paper: (1) recover symbols and allocate memory,
// (2) assign addresses and resolve, (3) apply relocations and copy, (4)
// look up entry addresses.
func jitLink(objBytes []byte, fnNames []string) (*backend.Image, error) {
	// Phase 1: parse the object, recover symbols, allocate.
	if len(objBytes) < 24 || string(objBytes[:4]) != "QELF" {
		return nil, fmt.Errorf("lbe: bad object file")
	}
	r32 := func(off int) int32 {
		return int32(binary.LittleEndian.Uint32(objBytes[off:]))
	}
	textLen := int(r32(4))
	nsyms := int(r32(8))
	nrels := int(r32(12))
	cfiLen := int(r32(16))
	namesLen := int(r32(20))
	pos := 24
	text := objBytes[pos : pos+textLen]
	pos += textLen
	syms := make([]objSymbol, nsyms)
	for i := range syms {
		syms[i] = objSymbol{r32(pos), r32(pos + 4), r32(pos + 8), r32(pos + 12)}
		pos += 16
	}
	rels := make([]objReloc, nrels)
	for i := range rels {
		rels[i] = objReloc{off: r32(pos), kind: vt.RelocKind(r32(pos + 4)), sym: r32(pos + 8)}
		pos += 12
	}
	cfi := objBytes[pos : pos+cfiLen]
	pos += cfiLen
	names := objBytes[pos : pos+namesLen]
	mem := make([]byte, len(text)) // allocation of the final memory

	// Phase 2: assign addresses and resolve symbols by name.
	symAddr := make(map[string]int64, nsyms)
	for _, s := range syms {
		symAddr[string(names[s.nameOff:s.nameOff+s.nameLen])] = int64(s.value)
	}

	// Phase 3: copy sections and apply relocations.
	copy(mem, text)
	for _, r := range rels {
		s := syms[r.sym]
		name := string(names[s.nameOff : s.nameOff+s.nameLen])
		vt.Reloc{Kind: r.kind, Offset: r.off, Sym: r.sym}.Patch(mem, symAddr[name])
	}

	// Phase 4: look up the entry addresses of the compiled functions.
	offsets := make([]int32, len(fnNames))
	var unwind []vm.UnwindRange
	for i, n := range fnNames {
		a, ok := symAddr[n]
		if !ok {
			return nil, fmt.Errorf("lbe: symbol %s not found", n)
		}
		offsets[i] = int32(a)
	}
	// Map symbol names back to function indices so ranges carry source
	// attribution; helper stubs and non-function symbols get -1.
	fnIdx := make(map[string]int32, len(fnNames))
	for i, n := range fnNames {
		fnIdx[n] = int32(i)
	}
	for _, s := range syms {
		name := string(names[s.nameOff : s.nameOff+s.nameLen])
		fi, ok := fnIdx[name]
		if !ok {
			fi = -1
		}
		unwind = append(unwind, vm.UnwindRange{
			Start: s.value, End: s.value + s.size,
			Name: name,
			CFI:  cfi,
			Func: fi,
		})
	}
	return &backend.Image{Code: mem, Unwind: unwind, Offsets: offsets}, nil
}
