package lbe

import (
	"fmt"
	"sort"

	"qcc/internal/vt"
)

// The greedy register allocator used for optimized builds. As the paper
// describes, it requires several analyses — virtual-register liveness, loop
// information, and block execution-frequency estimates — builds live
// intervals, and assigns registers in priority order with spill-weight-based
// eviction. Move-related intervals are coalesced first. Spilled values are
// rewritten through reserved scratch registers.

type gInterval struct {
	vreg       mreg // representative after coalescing
	start, end int32
	weight     float64
	cls        vt.RegClass
	preg       int32 // assigned preg or -1
	slot       int32 // spill slot or -1
}

// greedyRegAlloc allocates, rewriting mf in place to preg-only form.
func greedyRegAlloc(mf *mfunc, tgt *vt.Target) (*raState, error) {
	mf.computeCFG()
	computeFreqs(mf)

	// Linear numbering.
	idx := make([][]int32, len(mf.blocks))
	blockStart := make([]int32, len(mf.blocks))
	blockEnd := make([]int32, len(mf.blocks))
	n := int32(0)
	for b := range mf.blocks {
		blockStart[b] = n
		idx[b] = make([]int32, len(mf.blocks[b].insts))
		for i := range mf.blocks[b].insts {
			idx[b][i] = n
			n++
		}
		blockEnd[b] = n
	}

	// Liveness (vreg level).
	nv := int(mf.nvregs)
	gen := make([]map[mreg]struct{}, len(mf.blocks))
	kill := make([]map[mreg]struct{}, len(mf.blocks))
	for b := range mf.blocks {
		gen[b] = map[mreg]struct{}{}
		kill[b] = map[mreg]struct{}{}
		for i := range mf.blocks[b].insts {
			mf.blocks[b].insts[i].operands(func(r *mreg, isDef bool, cls vt.RegClass) {
				if isMPreg(*r) {
					return
				}
				if isDef {
					kill[b][*r] = struct{}{}
				} else if _, k := kill[b][*r]; !k {
					gen[b][*r] = struct{}{}
				}
			})
		}
	}
	liveIn := make([]map[mreg]struct{}, len(mf.blocks))
	for b := range mf.blocks {
		liveIn[b] = map[mreg]struct{}{}
	}
	liveOut := make([]map[mreg]struct{}, len(mf.blocks))
	for b := range mf.blocks {
		liveOut[b] = map[mreg]struct{}{}
	}
	for changed := true; changed; {
		changed = false
		for b := len(mf.blocks) - 1; b >= 0; b-- {
			for _, s := range mf.blocks[b].succs {
				for v := range liveIn[s] {
					if _, ok := liveOut[b][v]; !ok {
						liveOut[b][v] = struct{}{}
						changed = true
					}
				}
			}
			for v := range gen[b] {
				if _, ok := liveIn[b][v]; !ok {
					liveIn[b][v] = struct{}{}
					changed = true
				}
			}
			for v := range liveOut[b] {
				if _, k := kill[b][v]; k {
					continue
				}
				if _, ok := liveIn[b][v]; !ok {
					liveIn[b][v] = struct{}{}
					changed = true
				}
			}
		}
	}

	// Intervals and spill weights.
	start := make([]int32, nv)
	end := make([]int32, nv)
	weight := make([]float64, nv)
	for v := range start {
		start[v], end[v] = -1, -1
	}
	touch := func(v mreg, at int32, w float64) {
		if start[v] == -1 || at < start[v] {
			start[v] = at
		}
		if at > end[v] {
			end[v] = at
		}
		weight[v] += w
	}
	for b := range mf.blocks {
		freq := mf.blocks[b].freq
		for v := range liveIn[b] {
			touch(v, blockStart[b], 0)
		}
		for v := range liveOut[b] {
			touch(v, blockEnd[b], 0)
		}
		for i := range mf.blocks[b].insts {
			at := idx[b][i]
			mf.blocks[b].insts[i].operands(func(r *mreg, isDef bool, cls vt.RegClass) {
				if !isMPreg(*r) {
					touch(*r, at, freq)
				}
			})
		}
	}

	// Coalesce move-related vregs with non-overlapping intervals.
	parent := make([]mreg, nv)
	for v := range parent {
		parent[v] = mreg(v)
	}
	var find func(v mreg) mreg
	find = func(v mreg) mreg {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for b := range mf.blocks {
		for i := range mf.blocks[b].insts {
			in := &mf.blocks[b].insts[i]
			if (in.op == vt.MovRR || in.op == vt.FMovRR) && !isMPreg(in.rd) && !isMPreg(in.ra) &&
				in.rd != mnone && in.ra != mnone {
				a, c := find(in.rd), find(in.ra)
				if a == c || mf.classes[in.rd] != mf.classes[in.ra] {
					continue
				}
				if start[a] == -1 || start[c] == -1 {
					continue
				}
				if start[a] < end[c] && start[c] < end[a] {
					continue
				}
				parent[c] = a
				if start[c] < start[a] {
					start[a] = start[c]
				}
				if end[c] > end[a] {
					end[a] = end[c]
				}
				weight[a] += weight[c]
			}
		}
	}

	// Collect intervals for representatives.
	var ivs []*gInterval
	for v := 0; v < nv; v++ {
		if find(mreg(v)) != mreg(v) || start[v] == -1 {
			continue
		}
		ivs = append(ivs, &gInterval{
			vreg: mreg(v), start: start[v], end: end[v],
			weight: weight[v] / float64(end[v]-start[v]+1),
			cls:    mf.classes[v], preg: -1, slot: -1,
		})
	}
	// Priority: larger weight first (hot values get registers).
	sort.Slice(ivs, func(i, j int) bool {
		if ivs[i].weight != ivs[j].weight {
			return ivs[i].weight > ivs[j].weight
		}
		return ivs[i].vreg < ivs[j].vreg
	})

	// Fixed occupancy (preg refs, call clobbers) per preg.
	type occ struct{ from, to int32 }
	fixedInt := make([][]occ, tgt.NumGPR)
	fixedFlt := make([][]occ, tgt.NumFPR)
	for b := range mf.blocks {
		var callIdx []int32
		for i := range mf.blocks[b].insts {
			if mf.blocks[b].insts[i].isCall {
				callIdx = append(callIdx, idx[b][i])
			}
		}
		nextCall := func(at int32) int32 {
			for _, c := range callIdx {
				if c >= at {
					return c
				}
			}
			return at
		}
		prevCall := func(at int32) int32 {
			from := blockStart[b]
			for _, c := range callIdx {
				if c <= at {
					from = c
				}
			}
			return from
		}
		for i := range mf.blocks[b].insts {
			in := &mf.blocks[b].insts[i]
			at := idx[b][i]
			in.operands(func(r *mreg, isDef bool, cls vt.RegClass) {
				if !isMPreg(*r) {
					return
				}
				p := mpregNum(*r)
				var o occ
				if isDef {
					o = occ{at, nextCall(at)}
				} else {
					o = occ{prevCall(at), at}
				}
				if cls == vt.FPR {
					fixedFlt[p] = append(fixedFlt[p], o)
				} else {
					fixedInt[p] = append(fixedInt[p], o)
				}
			})
			if in.isCall {
				for _, p := range tgt.CallerSaved {
					fixedInt[p] = append(fixedInt[p], occ{at, at})
				}
				for p := 0; p < tgt.NumFPR; p++ {
					fixedFlt[p] = append(fixedFlt[p], occ{at, at})
				}
			}
		}
	}

	// Per-preg assigned interval lists.
	assigned := map[int][]*gInterval{} // key: preg | class<<8
	key := func(p uint8, cls vt.RegClass) int { return int(p) | int(cls)<<8 }
	overlapsFixed := func(p uint8, cls vt.RegClass, s, e int32) bool {
		var list []occ
		if cls == vt.FPR {
			list = fixedFlt[p]
		} else {
			list = fixedInt[p]
		}
		for _, o := range list {
			if o.from <= e && o.to >= s {
				return true
			}
		}
		return false
	}

	allGPR := tgt.AllocatableGPRs()
	gprs := allGPR[:len(allGPR)-2] // two reserved emission scratches
	var fprs []uint8
	for p := 0; p < tgt.NumFPR-2; p++ {
		fprs = append(fprs, uint8(p))
	}

	st := &raState{}
	assignOf := make([]int32, nv)
	slotOf := make([]int32, nv)
	for v := range assignOf {
		assignOf[v] = -1
		slotOf[v] = -1
	}
	usedCallee := map[uint8]bool{}

	var queue []*gInterval
	queue = append(queue, ivs...)
	for len(queue) > 0 {
		iv := queue[0]
		queue = queue[1:]
		cands := gprs
		if iv.cls == vt.FPR {
			cands = fprs
		}
		done := false
		for _, p := range cands {
			if overlapsFixed(p, iv.cls, iv.start, iv.end) {
				continue
			}
			conflict := false
			for _, other := range assigned[key(p, iv.cls)] {
				if other.start <= iv.end && iv.start <= other.end {
					conflict = true
					break
				}
			}
			if conflict {
				continue
			}
			iv.preg = int32(p)
			assigned[key(p, iv.cls)] = append(assigned[key(p, iv.cls)], iv)
			if iv.cls == vt.GPR && tgt.IsCalleeSaved(p) {
				usedCallee[p] = true
			}
			done = true
			break
		}
		if done {
			continue
		}
		// Eviction: find a register whose conflicting intervals all have
		// lower weight; evict and retry them.
		bestP := -1
		var bestVictims []*gInterval
		bestW := iv.weight
		for _, p := range cands {
			if overlapsFixed(p, iv.cls, iv.start, iv.end) {
				continue
			}
			var victims []*gInterval
			var w float64
			for _, other := range assigned[key(p, iv.cls)] {
				if other.start <= iv.end && iv.start <= other.end {
					victims = append(victims, other)
					w += other.weight
				}
			}
			if w < bestW {
				bestW = w
				bestP = int(p)
				bestVictims = victims
			}
		}
		if bestP >= 0 {
			lst := assigned[key(uint8(bestP), iv.cls)]
			var kept []*gInterval
			for _, o := range lst {
				evict := false
				for _, v := range bestVictims {
					if o == v {
						evict = true
						break
					}
				}
				if !evict {
					kept = append(kept, o)
				}
			}
			assigned[key(uint8(bestP), iv.cls)] = append(kept, iv)
			iv.preg = int32(bestP)
			if iv.cls == vt.GPR && tgt.IsCalleeSaved(uint8(bestP)) {
				usedCallee[uint8(bestP)] = true
			}
			for _, v := range bestVictims {
				v.preg = -1
				queue = append(queue, v)
			}
			continue
		}
		// Spill.
		iv.slot = st.numSlots
		st.numSlots++
		st.spills++
	}

	// Propagate assignments to all coalesced members.
	repIv := make(map[mreg]*gInterval, len(ivs))
	for _, iv := range ivs {
		repIv[iv.vreg] = iv
	}
	for v := 0; v < nv; v++ {
		if iv, ok := repIv[find(mreg(v))]; ok {
			assignOf[v] = iv.preg
			slotOf[v] = iv.slot
		}
	}

	// Rewrite MIR: replace vregs with pregs; spilled operands go through
	// the reserved scratch registers with frame-index loads/stores.
	s0 := allGPR[len(allGPR)-2]
	s1 := allGPR[len(allGPR)-1]
	fs0 := uint8(tgt.NumFPR - 2)
	fs1 := uint8(tgt.NumFPR - 1)
	if tgt.IsCalleeSaved(s0) {
		usedCallee[s0] = true
	}
	if tgt.IsCalleeSaved(s1) {
		usedCallee[s1] = true
	}

	// Rematerialization: spilled vregs whose single definition is a plain
	// constant load are recomputed at each use instead of reloaded from
	// the stack (LLVM marks such intervals as rematerializable).
	rematImm := map[mreg]int64{}
	defCount := make([]int32, nv)
	for b := range mf.blocks {
		for i := range mf.blocks[b].insts {
			in := &mf.blocks[b].insts[i]
			in.operands(func(r *mreg, isDef bool, cls vt.RegClass) {
				if isDef && !isMPreg(*r) {
					defCount[*r]++
				}
			})
		}
	}
	for b := range mf.blocks {
		for i := range mf.blocks[b].insts {
			in := &mf.blocks[b].insts[i]
			if in.op == vt.MovRI && in.sym < 0 && !isMPreg(in.rd) && in.rd != mnone &&
				defCount[in.rd] == 1 && slotOf[in.rd] >= 0 {
				rematImm[in.rd] = in.imm
			}
		}
	}

	for b := range mf.blocks {
		blk := &mf.blocks[b]
		var out []minst
		for i := range blk.insts {
			in := blk.insts[i]
			var pre, post []minst
			scratchI := []uint8{s0, s1}
			scratchF := []uint8{fs0, fs1}
			// Spilled vregs appearing more than once in the same
			// instruction share one scratch (this also preserves the
			// two-address rd==ra constraint through spills).
			perInst := map[mreg]uint8{}
			var err error
			in.operands(func(r *mreg, isDef bool, cls vt.RegClass) {
				if err != nil || isMPreg(*r) {
					return
				}
				v := *r
				if assignOf[v] >= 0 {
					*r = mpreg(uint8(assignOf[v]))
					return
				}
				if p, ok := perInst[v]; ok {
					*r = mpreg(p)
					if isDef {
						stn := newMinst(vt.Store64)
						if cls == vt.FPR {
							stn.op = vt.FStore
						}
						stn.ra = mpreg(tgt.SP)
						stn.rb = mpreg(p)
						stn.imm = int64(slotOf[v])
						stn.sym = -2
						stn.inserted, stn.mval = true, v
						post = append(post, stn)
					}
					return
				}
				var p uint8
				if cls == vt.FPR {
					if len(scratchF) == 0 {
						err = fmt.Errorf("lbe: greedy RA out of float scratch registers")
						return
					}
					p = scratchF[0]
					scratchF = scratchF[1:]
				} else {
					if len(scratchI) == 0 {
						err = fmt.Errorf("lbe: greedy RA out of scratch registers")
						return
					}
					p = scratchI[0]
					scratchI = scratchI[1:]
				}
				perInst[v] = p
				if slotOf[v] < 0 {
					// Dead value with no assignment.
					*r = mpreg(p)
					return
				}
				if isDef {
					if _, remat := rematImm[v]; !remat {
						stn := newMinst(vt.Store64)
						if cls == vt.FPR {
							stn.op = vt.FStore
						}
						stn.ra = mpreg(tgt.SP)
						stn.rb = mpreg(p)
						stn.imm = int64(slotOf[v])
						stn.sym = -2
						stn.inserted, stn.mval = true, v
						post = append(post, stn)
					}
				} else if imm, remat := rematImm[v]; remat {
					mv := newMinst(vt.MovRI)
					mv.rd = mpreg(p)
					mv.imm = imm
					mv.inserted, mv.mval = true, v
					pre = append(pre, mv)
				} else {
					ld := newMinst(vt.Load64)
					if cls == vt.FPR {
						ld.op = vt.FLoad
					}
					ld.rd = mpreg(p)
					ld.ra = mpreg(tgt.SP)
					ld.imm = int64(slotOf[v])
					ld.sym = -2
					ld.inserted, ld.mval = true, v
					pre = append(pre, ld)
				}
				*r = mpreg(p)
			})
			if err != nil {
				return nil, err
			}
			out = append(out, pre...)
			out = append(out, in)
			out = append(out, post...)
		}
		blk.insts = out
	}

	for p := range usedCallee {
		if usedCallee[p] {
			st.usedCallee = append(st.usedCallee, p)
		}
	}
	sort.Slice(st.usedCallee, func(i, j int) bool { return st.usedCallee[i] < st.usedCallee[j] })
	return st, nil
}

// computeFreqs estimates block execution frequencies from loop depth
// (the block-frequency analysis the greedy allocator requires).
func computeFreqs(mf *mfunc) {
	// Loop depth via back edges on the MIR CFG (dominator-based).
	n := len(mf.blocks)
	num := make([]int32, n)
	for i := range num {
		num[i] = -1
	}
	var rpo []int32
	seen := make([]bool, n)
	var dfs func(b int32)
	var post []int32
	dfs = func(b int32) {
		seen[b] = true
		for _, s := range mf.blocks[b].succs {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	dfs(0)
	for i := len(post) - 1; i >= 0; i-- {
		rpo = append(rpo, post[i])
	}
	for i, b := range rpo {
		num[b] = int32(i)
	}
	idom := make([]int32, n)
	for i := range idom {
		idom[i] = -1
	}
	idom[0] = 0
	intersect := func(a, b int32) int32 {
		for a != b {
			for num[a] > num[b] {
				a = idom[a]
			}
			for num[b] > num[a] {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for _, b := range rpo[1:] {
			var ni int32 = -1
			for _, p := range mf.blocks[b].preds {
				if num[p] < 0 || idom[p] == -1 {
					continue
				}
				if ni == -1 {
					ni = p
				} else {
					ni = intersect(ni, p)
				}
			}
			if ni != -1 && idom[b] != ni {
				idom[b] = ni
				changed = true
			}
		}
	}
	dominates := func(a, b int32) bool {
		if num[b] < 0 {
			return false
		}
		for {
			if a == b {
				return true
			}
			nx := idom[b]
			if nx == b || nx == -1 {
				return false
			}
			b = nx
		}
	}
	for b := range mf.blocks {
		mf.blocks[b].loopDepth = 0
	}
	for _, b := range rpo {
		for _, s := range mf.blocks[b].succs {
			if !dominates(s, b) {
				continue
			}
			// Loop body: preds of b back to s.
			inLoop := map[int32]bool{s: true}
			work := []int32{b}
			for len(work) > 0 {
				x := work[len(work)-1]
				work = work[:len(work)-1]
				if inLoop[x] {
					continue
				}
				inLoop[x] = true
				work = append(work, mf.blocks[x].preds...)
			}
			for blk := range inLoop {
				mf.blocks[blk].loopDepth++
			}
		}
	}
	for b := range mf.blocks {
		f := 1.0
		for d := int32(0); d < mf.blocks[b].loopDepth; d++ {
			f *= 10
		}
		mf.blocks[b].freq = f
	}
}
