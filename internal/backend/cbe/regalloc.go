package cbe

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"qcc/internal/vt"
)

// asmgen lowers optimized TAC to textual assembly, which is then fed to the
// assembler — the separate process step of the GCC flow.
//
// Register allocation works from one backward liveness pass over the TAC.
// The values most used among those live across blocks or calls get a
// callee-saved register for the whole function (their home). Every other
// value lives in whatever register computed it until the end of its region
// — the code from one label to the next — and is stored to a stack slot
// only when it must be: evicted while live, held in a caller-saved register
// across a call, or live into a block entered by a branch. Single-definition
// constants are never stored; a use that finds none in a register
// rematerializes it.
type asmgen struct {
	gf  *gimpleFunc
	tgt *vt.Target
	sb  strings.Builder // the body; finish adds prologue and epilogues

	pos, end  int32 // TAC index being lowered, last index of its region
	reachable bool

	words  int      // uint64 words per liveness set
	liveIn []uint64 // per label, the variables live at it
	// Per variable, where it is read (pos<<1) and written (pos<<1|1), in code
	// order, ev[evAt[v]:evEnd[v]] being those not yet passed. A branch reads
	// what is live at its target.
	ev          []int32
	evAt, evEnd []int32

	konst []bool // single-definition constants, and their values
	kval  []int64

	// A unit is one register's worth of a variable: 2v, and 2v+1 for the
	// high half of an i128.
	home  []reg   // per unit: its callee-saved register, if it has one
	loc   []reg   // per unit: the register holding it now
	slot  []int64 // per variable: frame offset, -1 until first spilled
	frame int64

	held     [numRegs]int32 // per register: the unit in it, -1 when free
	dirty    uint64         // registers whose unit is newer than its slot
	pins     uint64         // registers the current instruction is using
	homes    uint64         // registers that are some unit's home
	saved    uint64         // callee-saved registers the function writes
	gprs     []reg          // allocation order: caller-saved first
	fprs     []reg
	homeMove []reg           // pairs (home, temporary) to move when the instruction ends
	pro      strings.Builder // prologue lines that fill homes
	rets     []int           // body offsets where an epilogue goes
}

// reg numbers both register files: integer registers from 0, float from fpr0.
type reg int16

const (
	noR     reg = -1
	fpr0    reg = 32
	numRegs     = 48
)

var regNames = func() (n [numRegs]string) {
	for r := range n {
		if reg(r) < fpr0 {
			n[r] = "r" + strconv.Itoa(r)
		} else {
			n[r] = "f" + strconv.Itoa(r-int(fpr0))
		}
	}
	return
}()

// label is a branch target operand.
type label int32

// ins writes one instruction: the mnemonic, then registers, immediates,
// labels and condition names separated by commas.
func (g *asmgen) ins(mnem string, ops ...any) {
	sb := &g.sb
	sb.WriteString("  ")
	sb.WriteString(mnem)
	var num [24]byte
	for i, o := range ops {
		if i == 0 {
			sb.WriteByte(' ')
		} else {
			sb.WriteString(", ")
		}
		switch o := o.(type) {
		case reg:
			sb.WriteString(regNames[o])
		case int64:
			sb.Write(strconv.AppendInt(num[:0], o, 10))
		case label:
			sb.WriteString(".L")
			sb.Write(strconv.AppendInt(num[:0], int64(o), 10))
		case string:
			sb.WriteString(o)
		default:
			panic(fmt.Sprintf("cbe: operand %v of %s is a %T", o, mnem, o))
		}
	}
	sb.WriteByte('\n')
}

// genAsm prints one function.
func genAsm(gf *gimpleFunc, tgt *vt.Target, out *strings.Builder) error {
	g := &asmgen{gf: gf, tgt: tgt, reachable: true}
	g.end = g.regionEnd(0)
	if err := g.analyze(); err != nil {
		return fmt.Errorf("cbe: %s: %w", gf.name, err)
	}
	for i := range gf.code {
		t := &gf.code[i]
		g.pos = int32(i)
		if !g.reachable && t.op != gLabel {
			continue
		}
		g.pinOperands(t)
		if err := g.inst(t); err != nil {
			return fmt.Errorf("cbe: %s: %w", gf.name, err)
		}
		g.release(t)
	}
	g.finish(out)
	return nil
}

// regionEnd returns the index of the instruction that ends the region
// starting at from: the next label, or a transfer nothing falls out of.
func (g *asmgen) regionEnd(from int32) int32 {
	code := g.gf.code
	for i := from; int(i) < len(code); i++ {
		switch code[i].op {
		case gLabel, gGoto, gRet, gTrap:
			return i
		}
	}
	return int32(len(code))
}

func (g *asmgen) halves(v int32) int32 {
	if g.gf.vars[v] == ctI128 {
		return 2
	}
	return 1
}

// analyze computes liveness and next-use events, picks the homes and sets up
// the register state at function entry.
func (g *asmgen) analyze() error {
	gf, tgt := g.gf, g.tgt
	code, nv := gf.code, len(gf.vars)
	counts := defCounts(gf)
	g.konst, g.kval = make([]bool, nv), make([]int64, nv)
	for i := range code {
		if t := &code[i]; t.op == gConst && counts[t.dst] == 1 && t.ct != ctI128 {
			g.konst[t.dst], g.kval[t.dst] = true, t.imm
		}
	}

	// Backward liveness to a fixpoint. crossing collects what is live into
	// a block or over a call: what would otherwise pass through memory.
	W := (nv + 63) / 64
	g.words = W
	g.liveIn = make([]uint64, int(gf.nlabels)*W)
	live, crossing := make([]uint64, W), make([]uint64, W)
	at := func(l int32) []uint64 { return g.liveIn[int(l)*W : int(l+1)*W] }
	read := func(v int32) {
		if !g.konst[v] {
			live[v>>6] |= 1 << (v & 63)
		}
	}
	for changed := true; changed; {
		changed = false
		clear(live)
		for i := len(code) - 1; i >= 0; i-- {
			t := &code[i]
			switch t.op {
			case gLabel:
				for k, in := range at(t.label) {
					if in != live[k] {
						at(t.label)[k], changed = live[k], true
					}
					crossing[k] |= live[k]
				}
				continue
			case gGoto:
				copy(live, at(t.label))
			case gRet, gTrap:
				clear(live)
			case gIfGoto:
				for k, in := range at(t.label) {
					live[k] |= in
				}
			}
			if t.dst >= 0 {
				live[t.dst>>6] &^= 1 << (t.dst & 63)
			}
			if t.op == gCall {
				for k := range crossing {
					crossing[k] |= live[k]
				}
			}
			t.eachUse(read)
		}
	}

	// Loops, from the backward branches: each encloses the code from its
	// target to itself. depth sums to the number of loops around a position.
	depth := make([]int32, len(code)+1)
	labelAt := make([]int32, gf.nlabels)
	for i := range code {
		if code[i].op == gLabel {
			labelAt[code[i].label] = int32(i)
		}
	}
	for i := range code {
		if t := &code[i]; (t.op == gGoto || t.op == gIfGoto) && labelAt[t.label] <= int32(i) {
			depth[labelAt[t.label]]++
			depth[i+1]--
		}
	}

	// Events, gathered in code order and then grouped by variable.
	var evs []int64 // v<<32 | event
	weight := make([]int64, nv)
	event := func(v int32, e int32) { evs = append(evs, int64(v)<<32|int64(e)) }
	exit := func(l int32, e int32) {
		for k, in := range at(l) {
			for ; in != 0; in &= in - 1 {
				event(int32(k<<6+bits.TrailingZeros64(in)), e)
			}
		}
	}
	falls, d := true, int32(0)
	for i := range code {
		t, e := &code[i], int32(i)<<1
		d += depth[i]
		w := int64(1) // an access in a loop weighs eight outside
		if d > 0 {
			w = 8
		}
		switch t.op {
		case gLabel:
			if falls {
				exit(t.label, e)
			}
		case gGoto, gIfGoto:
			exit(t.label, e)
		}
		t.eachUse(func(v int32) {
			event(v, e)
			weight[v] += w
		})
		if t.dst >= 0 && !g.konst[t.dst] {
			event(t.dst, e|1)
			weight[t.dst] += w
		}
		falls = t.op != gGoto && t.op != gRet && t.op != gTrap
	}
	g.evAt, g.evEnd = make([]int32, nv+1), make([]int32, nv)
	for _, e := range evs {
		g.evAt[e>>32+1]++
	}
	for v := 0; v < nv; v++ {
		g.evAt[v+1] += g.evAt[v]
		g.evEnd[v] = g.evAt[v]
	}
	g.ev = make([]int32, len(evs))
	for _, e := range evs {
		v := e >> 32
		g.ev[g.evEnd[v]] = int32(e)
		g.evEnd[v]++
	}

	// Homes: callee-saved registers go to the crossing values and the
	// constants read and written most, while that beats the save and
	// restore a home costs each call of the function.
	g.home, g.loc = make([]reg, 2*nv), make([]reg, 2*nv)
	for u := range g.home {
		g.home[u], g.loc[u] = noR, noR
	}
	g.slot = make([]int64, nv)
	for v := range g.slot {
		g.slot[v] = -1
	}
	for r := range g.held {
		g.held[r] = -1
	}
	var cands []int32
	for v := int32(0); int(v) < nv; v++ {
		if weight[v] > 3 && gf.vars[v] != ctF64 && (g.konst[v] || crossing[v>>6]&(1<<(v&63)) != 0) {
			cands = append(cands, v)
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if weight[cands[i]] != weight[cands[j]] {
			return weight[cands[i]] > weight[cands[j]]
		}
		return cands[i] < cands[j]
	})
	free := tgt.CalleeSaved
	for _, v := range cands {
		n := int(g.halves(v))
		if n > len(free) {
			continue
		}
		for h := 0; h < n; h++ {
			r := reg(free[h])
			g.home[2*int(v)+h], g.loc[2*int(v)+h], g.held[r] = r, r, 2*v+int32(h)
			g.homes |= 1 << r
			if g.konst[v] {
				g.pro.WriteString("  movi " + regNames[r] + ", " + strconv.FormatInt(g.kval[v], 10) + "\n")
			}
		}
		free = free[n:]
	}
	g.saved = g.homes

	for _, r := range tgt.CallerSaved {
		g.gprs = append(g.gprs, reg(r))
	}
	for _, r := range tgt.CalleeSaved {
		g.gprs = append(g.gprs, reg(r))
	}
	for r := 0; r < tgt.NumFPR; r++ {
		g.fprs = append(g.fprs, fpr0+reg(r))
	}

	// Parameters arrive in the argument registers.
	arg := 0
	for p := int32(0); int(p) < gf.nparams; p++ {
		if gf.vars[p] == ctF64 {
			return fmt.Errorf("f64 parameter %d: the query compiler passes none", p)
		}
		for h := int32(0); h < g.halves(p); h++ {
			a, u := reg(tgt.IntArgs[arg]), 2*p+h
			arg++
			switch {
			case g.evAt[p] == g.evEnd[p]: // never read
			case g.home[u] != noR:
				g.pro.WriteString("  mov " + regNames[g.home[u]] + ", " + regNames[a] + "\n")
			default:
				g.bind(u, a)
				g.dirty |= 1 << a
			}
		}
	}
	return nil
}

// next returns where v's present value is next read, at or before the end of
// the region and after the current instruction, or -1 if it is dead: not read
// again, or rewritten first.
func (g *asmgen) next(v int32) int32 {
	i, e := g.evAt[v], g.evEnd[v]
	for i < e && g.ev[i]>>1 <= g.pos {
		i++
	}
	g.evAt[v] = i
	if i == e || g.ev[i]&1 != 0 || g.ev[i]>>1 > g.end {
		return -1
	}
	return g.ev[i] >> 1
}

func (g *asmgen) bind(u int32, r reg) { g.held[r], g.loc[u] = u, r }

// unbind forgets the register copy of a unit that has no home.
func (g *asmgen) unbind(u int32) {
	if r := g.loc[u]; r != noR && g.home[u] == noR {
		g.held[r], g.loc[u] = -1, noR
		g.dirty &^= 1 << r
	}
}

// slotOf returns v's frame offset, assigning one on first use.
func (g *asmgen) slotOf(v int32) int64 {
	if g.slot[v] < 0 {
		g.slot[v] = g.frame
		g.frame += 8 * int64(g.halves(v))
	}
	return g.slot[v]
}

// store writes the unit in r to its slot.
func (g *asmgen) store(r reg) {
	u, sp := g.held[r], reg(g.tgt.SP)
	if r >= fpr0 {
		g.ins("fst", sp, g.slotOf(u>>1), r)
	} else {
		g.ins("st64", sp, g.slotOf(u>>1)+int64(u&1)*8, r)
	}
	g.dirty &^= 1 << r
}

// alloc returns a free register of the file, evicting the value whose next
// use is farthest when there is none, and pins it for the instruction.
func (g *asmgen) alloc(float bool) reg {
	pool := g.gprs
	if float {
		pool = g.fprs
	}
	best, far := noR, int32(-1)
	for _, r := range pool {
		if (g.pins|g.homes)&(1<<r) != 0 {
			continue
		}
		u := g.held[r]
		if u < 0 {
			best = r
			break
		}
		n := g.next(u >> 1)
		if n < 0 {
			n = 1 << 30
		}
		if n > far {
			best, far = r, n
		}
	}
	if best == noR {
		panic("cbe: out of registers")
	}
	if u := g.held[best]; u >= 0 {
		if g.dirty&(1<<best) != 0 && g.next(u>>1) >= 0 {
			g.store(best)
		}
		g.unbind(u)
	}
	g.pins |= 1 << best
	g.saved |= 1 << best
	return best
}

// tmp returns a scratch integer register for the current instruction.
func (g *asmgen) tmp() reg { return g.alloc(false) }

// useU returns a register holding unit u, reloading or rematerializing it
// if it is in none.
func (g *asmgen) useU(u int32) reg {
	r := g.loc[u]
	if r == noR {
		v, sp := u>>1, reg(g.tgt.SP)
		float := g.gf.vars[v] == ctF64
		r = g.alloc(float)
		switch {
		case g.konst[v]:
			g.ins("movi", r, g.kval[v])
		case float:
			g.ins("fld", r, sp, g.slotOf(v))
		default:
			g.ins("ld64", r, sp, g.slotOf(v)+int64(u&1)*8)
		}
		g.bind(u, r)
	}
	g.pins |= 1 << r
	return r
}

func (g *asmgen) use(v int32) reg   { return g.useU(2 * v) }
func (g *asmgen) useHi(v int32) reg { return g.useU(2*v + 1) }

// dies reports that v's value is not needed after the current instruction
// and its register may be taken over by the result.
func (g *asmgen) dies(v int32) bool { return g.home[2*v] == noR && g.next(v) < 0 }

// defU returns the register the current instruction computes unit u into.
// It is u's home if it has one, else src if the value there dies with this
// instruction — the caller reads src no later than it writes the result —
// else a fresh register; never another register the instruction has in use.
func (g *asmgen) defU(u int32, src reg) reg {
	if h := g.home[u]; h != noR {
		if h != src && g.pins&(1<<h) != 0 {
			// The home is an operand still to be read: compute beside it.
			r := g.tmp()
			g.homeMove = append(g.homeMove, h, r)
			return r
		}
		g.pins |= 1 << h
		return h
	}
	float := g.gf.vars[u>>1] == ctF64
	if src != noR && g.homes&(1<<src) == 0 && (src >= fpr0) == float {
		if o := g.held[src]; o < 0 || o == u || g.next(o>>1) < 0 {
			if o >= 0 {
				g.unbind(o)
			}
			g.unbind(u)
			g.bind(u, src)
			g.dirty |= 1 << src
			return src
		}
	}
	g.unbind(u)
	r := g.alloc(float)
	g.bind(u, r)
	g.dirty |= 1 << r
	return r
}

func (g *asmgen) def(v int32) reg            { return g.defU(2*v, noR) }
func (g *asmgen) defHi(v int32) reg          { return g.defU(2*v+1, noR) }
func (g *asmgen) defFrom(v int32, s reg) reg { return g.defU(2*v, s) }

// pinOperands keeps what the instruction reads and is in a register there
// until it has read it: next speaks of the time after the instruction.
func (g *asmgen) pinOperands(t *tac) {
	t.eachUse(func(v int32) {
		for _, r := range [2]reg{g.loc[2*v], g.loc[2*v+1]} {
			if r != noR {
				g.pins |= 1 << r
			}
		}
	})
}

// release ends an instruction: results computed beside their home move in,
// registers are unpinned, and operands that died give theirs up.
func (g *asmgen) release(t *tac) {
	for i := 0; i < len(g.homeMove); i += 2 {
		g.ins("mov", g.homeMove[i], g.homeMove[i+1])
	}
	g.homeMove = g.homeMove[:0]
	g.pins = 0
	drop := func(v int32) {
		if g.next(v) < 0 {
			g.unbind(2 * v)
			g.unbind(2*v + 1)
		}
	}
	t.eachUse(drop)
	if t.dst >= 0 {
		drop(t.dst)
	}
}

// flush stores what is live at label l and newer in a register than in its
// slot; the code there reloads it.
func (g *asmgen) flush(l int32) {
	in := g.liveIn[int(l)*g.words:]
	for m := g.dirty; m != 0; m &= m - 1 {
		r := reg(bits.TrailingZeros64(m))
		if v := g.held[r] >> 1; in[v>>6]&(1<<(v&63)) != 0 {
			g.store(r)
		}
	}
}

// forget empties every register that is not a home.
func (g *asmgen) forget(regs uint64) {
	for m := regs &^ g.homes & (1<<numRegs - 1); m != 0; m &= m - 1 {
		if u := g.held[bits.TrailingZeros64(m)]; u >= 0 {
			g.unbind(u)
		}
	}
}

// parMove performs the register moves dst[i] = src[i] as if all at once.
func (g *asmgen) parMove(dst, src []reg) {
	var written uint64
	for _, d := range dst {
		written |= 1 << d
	}
	for n := len(dst); n > 0; {
		progress := false
		for i := 0; i < n; i++ {
			blocked := false
			for j := 0; j < n && !blocked; j++ {
				blocked = j != i && src[j] == dst[i]
			}
			if blocked {
				continue
			}
			if dst[i] != src[i] {
				g.ins("mov", dst[i], src[i])
			}
			n--
			dst[i], src[i] = dst[n], src[n]
			i--
			progress = true
		}
		if progress {
			continue
		}
		// Only cycles remain: free dst[0] by parking what it holds in a
		// caller-saved register that takes no part in the moves.
		busy := written
		for i := 0; i < n; i++ {
			busy |= 1 << src[i]
		}
		for _, c := range g.tgt.CallerSaved {
			if busy&(1<<c) == 0 {
				g.ins("mov", reg(c), dst[0])
				for j := 0; j < n; j++ {
					if src[j] == dst[0] {
						src[j] = reg(c)
					}
				}
				break
			}
		}
	}
}

// finish assembles the function: the frame is known only now — spill slots
// first, then the callee-saved registers the body turned out to write.
func (g *asmgen) finish(out *strings.Builder) {
	sp := regNames[g.tgt.SP]
	var save, epi strings.Builder
	size := g.frame
	for _, r := range g.tgt.CalleeSaved {
		if g.saved&(1<<r) != 0 {
			off := strconv.FormatInt(size, 10)
			save.WriteString("  st64 " + sp + ", " + off + ", " + regNames[r] + "\n")
			epi.WriteString("  ld64 " + regNames[r] + ", " + sp + ", " + off + "\n")
			size += 8
		}
	}
	out.WriteString(".func " + g.gf.name + "\n")
	if size = (size + 15) &^ 15; size > 0 {
		adjust := sp + ", " + sp + ", " + strconv.FormatInt(size, 10) + "\n"
		out.WriteString("  subi " + adjust)
		epi.WriteString("  addi " + adjust)
	}
	epi.WriteString("  ret\n")
	out.WriteString(save.String())
	out.WriteString(g.pro.String())
	body, from := g.sb.String(), 0
	for _, at := range g.rets {
		out.WriteString(body[from:at])
		out.WriteString(epi.String())
		from = at
	}
	out.WriteString(body[from:])
	out.WriteString(".endfunc\n")
}
