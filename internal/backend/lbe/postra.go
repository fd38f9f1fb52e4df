package lbe

import (
	"fmt"
	"sort"

	"qcc/internal/vt"
)

// PHIElimination lowers SSA PHIs into copies: each phi gets a staging vreg
// copied in every predecessor before the block-ending branches, and the phi
// itself becomes a copy at the block head.
func phiElim(mf *mfunc) {
	type edgeCopy struct {
		pred int32
		src  mreg
		dst  mreg
		cls  vt.RegClass
	}
	var copies []edgeCopy
	for b := range mf.blocks {
		blk := &mf.blocks[b]
		var rest []minst
		for i := range blk.insts {
			in := &blk.insts[i]
			if in.phi == nil {
				rest = append(rest, *in)
				continue
			}
			if in.rd == mnone {
				continue
			}
			cls := mf.classOf(in.rd)
			tmp := mf.newVReg(cls)
			for k := range in.phi.srcs {
				copies = append(copies, edgeCopy{pred: in.phi.blocks[k], src: in.phi.srcs[k], dst: tmp, cls: cls})
			}
			cp := newMinst(vt.MovOf(cls))
			cp.rd, cp.ra = in.rd, tmp
			// The head copy replaces the phi in place (before rest).
			rest = append([]minst{cp}, rest...)
		}
		blk.insts = rest
	}
	// Insert predecessor copies before the first branch of each block.
	for _, c := range copies {
		blk := &mf.blocks[c.pred]
		pos := len(blk.insts)
		for i := range blk.insts {
			if blk.insts[i].op.IsBranch() || blk.insts[i].op == vt.Ret {
				pos = i
				break
			}
		}
		cp := newMinst(vt.MovOf(c.cls))
		cp.rd, cp.ra = c.dst, c.src
		blk.insts = append(blk.insts[:pos], append([]minst{cp}, blk.insts[pos:]...)...)
	}
}

// twoAddress rewrites register-register operations into the two-address
// form the vx64 target requires: `a = op b, c` becomes `a = copy b; a = op
// a, c`, commuting or staging through a temporary when the destination
// aliases the second source. On three-address targets the pass scans but
// changes nothing.
func twoAddress(mf *mfunc, tgt *vt.Target) int {
	if !tgt.TwoAddress {
		// Scan only (the pass still runs).
		n := 0
		for b := range mf.blocks {
			n += len(mf.blocks[b].insts)
		}
		return 0
	}
	rewrites := 0
	for b := range mf.blocks {
		blk := &mf.blocks[b]
		var out []minst
		for _, in := range blk.insts {
			info := in.op.Info()
			if !info.TwoAddr || in.rd == in.ra {
				out = append(out, in)
				continue
			}
			cls := info.Class(vt.RD)
			if info.Use&vt.RB != 0 && in.rd == in.rb {
				if info.Commutes {
					in.ra, in.rb = in.rb, in.ra
				} else {
					t := mf.newVReg(cls)
					cp := newMinst(vt.MovOf(cls))
					cp.rd, cp.ra = t, in.rb
					out = append(out, cp)
					in.rb = t
				}
			}
			if in.rd != in.ra {
				cp := newMinst(vt.MovOf(cls))
				cp.rd, cp.ra = in.rd, in.ra
				out = append(out, cp)
				in.ra = in.rd
				rewrites++
			}
			out = append(out, in)
		}
		blk.insts = out
	}
	return rewrites
}

// raState is the outcome of register allocation handed to prologue/epilogue
// insertion: rewritten preg-only MIR plus the frame demands.
type raState struct {
	numSlots   int32
	usedCallee []uint8
	spills     int
}

// fastRegAlloc is the -O0 allocator: a linear per-block scan that assigns
// registers greedily, stores every definition to its stack slot, and drops
// caches at calls and block ends. It needs no analyses at all (the paper's
// key property of the fast allocator).
func fastRegAlloc(mf *mfunc, tgt *vt.Target) (*raState, error) {
	st := &raState{}
	slotOf := make([]int32, mf.nvregs)
	for i := range slotOf {
		slotOf[i] = -1
	}
	slot := func(v mreg) int32 {
		if slotOf[v] == -1 {
			slotOf[v] = st.numSlots
			st.numSlots++
		}
		return slotOf[v]
	}

	gprs := tgt.AllocatableGPRs()
	nfpr := tgt.NumFPR
	usedCallee := map[uint8]bool{}

	// Dense vreg -> preg caches (128 = none), shared across blocks and
	// cleared per block via an epoch counter to avoid map overhead.
	const noCache = uint8(0xFF)
	cachedArr := make([]uint8, mf.nvregs)
	fcachedArr := make([]uint8, mf.nvregs)
	cacheEpoch := make([]uint32, mf.nvregs)
	fcacheEpoch := make([]uint32, mf.nvregs)
	epoch := uint32(0)

	for b := range mf.blocks {
		blk := &mf.blocks[b]
		var out []minst
		epoch++
		// Per-block state.
		regOwner := make([]mreg, tgt.NumGPR)
		fregOwner := make([]mreg, nfpr)
		for i := range regOwner {
			regOwner[i] = mnone
		}
		for i := range fregOwner {
			fregOwner[i] = mnone
		}
		cached := cacheView{vals: cachedArr, epochs: cacheEpoch, epoch: epoch, none: noCache}
		fcached := cacheView{vals: fcachedArr, epochs: fcacheEpoch, epoch: epoch, none: noCache}
		// reserved holds physical registers that carry live fixed values:
		// staged call arguments (until the call) and, in the entry block,
		// the incoming argument registers (until first read).
		reserved := uint32(0)
		freserved := uint32(0)
		if b == 0 {
			for _, p := range tgt.IntArgs {
				reserved |= 1 << p
			}
			for _, p := range tgt.FloatArgs {
				freserved |= 1 << p
			}
		}

		dropReg := func(p uint8, cls vt.RegClass) {
			if cls == vt.FPR {
				if o := fregOwner[p]; o != mnone {
					fcached.del(o)
					fregOwner[p] = mnone
				}
			} else {
				if o := regOwner[p]; o != mnone {
					cached.del(o)
					regOwner[p] = mnone
				}
			}
		}

		emit := func(in minst) { out = append(out, in) }

		for ii := range blk.insts {
			in := blk.insts[ii]
			// Registers referenced by this instruction cannot be
			// grabbed while resolving its other operands.
			inUse := uint32(0)
			finUse := uint32(0)
			in.operands(func(r *mreg, isDef bool, cls vt.RegClass) {
				if isMPreg(*r) {
					if cls == vt.FPR {
						finUse |= 1 << mpregNum(*r)
					} else {
						inUse |= 1 << mpregNum(*r)
					}
					return
				}
				if p, ok := cached.get(*r); ok && mf.classOf(*r) == vt.GPR {
					inUse |= 1 << p
				}
				if p, ok := fcached.get(*r); ok {
					finUse |= 1 << p
				}
			})

			allocGPR := func() (uint8, error) {
				// Every handed-out callee-saved register must reach the
				// prologue's save list: caches over callee-saved registers
				// survive calls, so an unsaved one would be clobbered by the
				// callee underneath a live cache.
				grab := func(p uint8) uint8 {
					if tgt.IsCalleeSaved(p) {
						usedCallee[p] = true
					}
					inUse |= 1 << p
					return p
				}
				for _, p := range gprs {
					if inUse&(1<<p) != 0 || reserved&(1<<p) != 0 {
						continue
					}
					if regOwner[p] == mnone {
						return grab(p), nil
					}
				}
				for _, p := range gprs {
					if inUse&(1<<p) != 0 || reserved&(1<<p) != 0 {
						continue
					}
					dropReg(p, vt.GPR) // values are stored at def: drop is free
					return grab(p), nil
				}
				return 0, fmt.Errorf("lbe: fast RA out of registers")
			}
			allocFPR := func() (uint8, error) {
				for p := 0; p < nfpr; p++ {
					if finUse&(1<<uint(p)) != 0 || freserved&(1<<uint(p)) != 0 {
						continue
					}
					if fregOwner[p] == mnone {
						finUse |= 1 << uint(p)
						return uint8(p), nil
					}
				}
				for p := 0; p < nfpr; p++ {
					if finUse&(1<<uint(p)) != 0 || freserved&(1<<uint(p)) != 0 {
						continue
					}
					dropReg(uint8(p), vt.FPR)
					finUse |= 1 << uint(p)
					return uint8(p), nil
				}
				return 0, fmt.Errorf("lbe: fast RA out of float registers")
			}

			var err error
			var defs []struct {
				r   *mreg
				cls vt.RegClass
			}
			in.operands(func(r *mreg, isDef bool, cls vt.RegClass) {
				if err != nil {
					return
				}
				if isMPreg(*r) {
					p := mpregNum(*r)
					if isDef {
						dropReg(p, cls)
						if cls == vt.FPR {
							freserved |= 1 << p
						} else {
							reserved |= 1 << p
						}
					} else {
						// A fixed value was consumed; release it.
						if cls == vt.FPR {
							freserved &^= 1 << p
						} else {
							reserved &^= 1 << p
						}
					}
					return
				}
				v := *r
				cls = mf.classOf(v)
				if isDef {
					defs = append(defs, struct {
						r   *mreg
						cls vt.RegClass
					}{r, cls})
					return
				}
				// Use: reload if not cached.
				if cls == vt.FPR {
					if p, ok := fcached.get(v); ok {
						*r = mpreg(p)
						return
					}
					p, e := allocFPR()
					if e != nil {
						err = e
						return
					}
					ld := newMinst(vt.FLoad)
					ld.rd = mpreg(p)
					ld.ra = mpreg(tgt.SP)
					ld.imm = int64(slot(v))
					ld.sym = -2 // frame-index marker
					ld.inserted, ld.mval = true, v
					emit(ld)
					fcached.set(v, p)
					fregOwner[p] = v
					*r = mpreg(p)
					return
				}
				if p, ok := cached.get(v); ok {
					*r = mpreg(p)
					return
				}
				p, e := allocGPR()
				if e != nil {
					err = e
					return
				}
				ld := newMinst(vt.Load64)
				ld.rd = mpreg(p)
				ld.ra = mpreg(tgt.SP)
				ld.imm = int64(slot(v))
				ld.sym = -2
				ld.inserted, ld.mval = true, v
				emit(ld)
				cached.set(v, p)
				regOwner[p] = v
				*r = mpreg(p)
			})
			if err != nil {
				return nil, err
			}
			// Allocate defs after uses.
			var defStores []minst
			for _, d := range defs {
				v := *d.r
				if d.cls == vt.FPR {
					p, ok := fcached.get(v)
					if !ok {
						var e error
						p, e = allocFPR()
						if e != nil {
							return nil, e
						}
						dropReg(p, vt.FPR)
						fcached.set(v, p)
						fregOwner[p] = v
					}
					*d.r = mpreg(p)
					stn := newMinst(vt.FStore)
					stn.ra = mpreg(tgt.SP)
					stn.rb = mpreg(p)
					stn.imm = int64(slot(v))
					stn.sym = -2
					stn.inserted, stn.mval = true, v
					defStores = append(defStores, stn)
				} else {
					// Reuse the register the value was just read from
					// (preserves the two-address rd==ra constraint).
					p, ok := cached.get(v)
					if !ok {
						var e error
						p, e = allocGPR()
						if e != nil {
							return nil, e
						}
						dropReg(p, vt.GPR)
						cached.set(v, p)
						regOwner[p] = v
					}
					*d.r = mpreg(p)
					stn := newMinst(vt.Store64)
					stn.ra = mpreg(tgt.SP)
					stn.rb = mpreg(p)
					stn.imm = int64(slot(v))
					stn.sym = -2
					stn.inserted, stn.mval = true, v
					defStores = append(defStores, stn)
				}
				if tgt.IsCalleeSaved(mpregNum(*d.r)) && d.cls == vt.GPR {
					usedCallee[mpregNum(*d.r)] = true
				}
			}
			emit(in)
			// Store-at-def keeps slots authoritative.
			out = append(out, defStores...)
			if in.isCall {
				// Caller-saved registers die; caches over them drop.
				for _, p := range tgt.CallerSaved {
					dropReg(p, vt.GPR)
				}
				for p := 0; p < nfpr; p++ {
					dropReg(uint8(p), vt.FPR)
				}
				reserved = 0
				freserved = 0
				// Return registers may carry results until read.
				for _, p := range tgt.IntRet {
					reserved |= 1 << p
				}
			}
		}
		blk.insts = out
	}
	// Sorted so the prologue save order is deterministic (byte-identical
	// recompiles; map iteration order is randomized), matching the greedy
	// allocator.
	for p := range usedCallee {
		st.usedCallee = append(st.usedCallee, p)
	}
	sort.Slice(st.usedCallee, func(i, j int) bool { return st.usedCallee[i] < st.usedCallee[j] })
	st.spills = int(st.numSlots)
	return st, nil
}

// cacheView is a dense epoch-validated vreg->preg cache (fast-RA state).
type cacheView struct {
	vals   []uint8
	epochs []uint32
	epoch  uint32
	none   uint8
}

func (c cacheView) get(v mreg) (uint8, bool) {
	if int(v) >= len(c.vals) || c.epochs[v] != c.epoch {
		return 0, false
	}
	p := c.vals[v]
	return p, p != c.none
}

func (c cacheView) set(v mreg, p uint8) {
	if int(v) < len(c.vals) {
		c.vals[v] = p
		c.epochs[v] = c.epoch
	}
}

func (c cacheView) del(v mreg) {
	if int(v) < len(c.vals) {
		c.vals[v] = c.none
		c.epochs[v] = c.epoch
	}
}
