package clift

import (
	"sort"

	"qcc/internal/backend"
	"qcc/internal/obs"
	"qcc/internal/vt"
)

// Process-wide allocator counters: slab/tree growth in the hot path is an
// allocation-volume signal the wall clock alone does not show.
var (
	statBTreeInserts = obs.NewCounter("clift.ra_btree_inserts")
	statBundles      = obs.NewCounter("clift.ra_bundles")
	statSpilled      = obs.NewCounter("clift.ra_spilled")
)

// The register allocator follows the shape the paper describes for
// Cranelift: live ranges are computed by iterating over the code several
// times (def/use collection, data-flow liveness, backward range building),
// move-related ranges are merged into bundles, and a linear scan assigns
// registers while tracking occupancy in one B-tree per physical register.
// Unassigned bundles spill to stack slots; spilled operands are fixed up at
// emission via reserved scratch registers.

// raResult is the allocation outcome consumed by emission.
type raResult struct {
	// assign[v]: >= 0 physical register; < 0: spill slot -1-slot.
	assign []int32
	spills int32 // number of spill slots
	// usedCalleeSaved are callee-saved registers handed out.
	usedCalleeSaved []uint8
	// stats
	numBundles   int
	numSpilled   int
	btreeInserts int
}

const (
	assignNone = int32(-0x40000000)
)

// operands calls fn for every register operand of in: first uses, then
// defs (vt.Walk).
func (in *vinst) operands(fn func(r *vreg, isDef bool, cls vt.RegClass)) {
	vt.Walk(in.op, vnone, &in.rd, &in.ra, &in.rb, &in.rc, fn)
}

// allocate runs register allocation over vc for the given target; ph
// (optional, nil-safe) receives the live-range / merge / assign sub-phase
// spans for the Figure 4 breakdown.
func allocate(vc *vcode, tgt *vt.Target, ph *backend.Phaser) *raResult {
	sp := ph.Begin("RegAlloc.liveranges")
	nv := int(vc.nvregs)

	// Reserve the two highest allocatable GPRs (and FPRs) as emission
	// scratch registers for spill fixups and move cycles.
	allGPR := tgt.AllocatableGPRs()
	gprs := allGPR[:len(allGPR)-2]
	numFPR := tgt.NumFPR
	fprs := make([]uint8, 0, numFPR-2)
	for i := 0; i < numFPR-2; i++ {
		fprs = append(fprs, uint8(i))
	}

	// Linear indices: instruction i of block b gets a global index; block
	// boundaries are recorded for range building.
	idxOf := make([][]int32, len(vc.blocks))
	blockStart := make([]int32, len(vc.blocks))
	blockEnd := make([]int32, len(vc.blocks))
	n := int32(0)
	for b := range vc.blocks {
		blockStart[b] = n
		idxOf[b] = make([]int32, len(vc.blocks[b].insts))
		for i := range vc.blocks[b].insts {
			idxOf[b][i] = n
			n++
		}
		blockEnd[b] = n
	}

	// Pass over the code: collect per-block use/def sets (edge-move
	// sources count as uses at the branch; destinations as defs).
	gen := make([]map[vreg]struct{}, len(vc.blocks))
	kill := make([]map[vreg]struct{}, len(vc.blocks))
	for b := range vc.blocks {
		gen[b] = map[vreg]struct{}{}
		kill[b] = map[vreg]struct{}{}
		blk := &vc.blocks[b]
		for i := range blk.insts {
			blk.insts[i].operands(func(r *vreg, isDef bool, cls vt.RegClass) {
				if isPreg(*r) {
					return
				}
				if isDef {
					kill[b][*r] = struct{}{}
				} else if _, killed := kill[b][*r]; !killed {
					gen[b][*r] = struct{}{}
				}
			})
		}
		for _, mv := range blk.moves {
			for _, s := range mv[1] {
				if _, killed := kill[b][s]; !killed {
					gen[b][s] = struct{}{}
				}
			}
			for _, d := range mv[0] {
				kill[b][d] = struct{}{}
			}
		}
	}

	// Data-flow liveness iteration.
	liveIn := make([]map[vreg]struct{}, len(vc.blocks))
	liveOut := make([]map[vreg]struct{}, len(vc.blocks))
	for b := range vc.blocks {
		liveIn[b] = map[vreg]struct{}{}
		liveOut[b] = map[vreg]struct{}{}
	}
	for changed := true; changed; {
		changed = false
		for b := len(vc.blocks) - 1; b >= 0; b-- {
			out := liveOut[b]
			for _, s := range vc.blocks[b].succs {
				for v := range liveIn[s] {
					if _, ok := out[v]; !ok {
						out[v] = struct{}{}
						changed = true
					}
				}
			}
			in := liveIn[b]
			for v := range gen[b] {
				if _, ok := in[v]; !ok {
					in[v] = struct{}{}
					changed = true
				}
			}
			for v := range out {
				if _, k := kill[b][v]; k {
					continue
				}
				if _, ok := in[v]; !ok {
					in[v] = struct{}{}
					changed = true
				}
			}
		}
	}

	// Backward range building: each vreg gets one covering interval.
	start := make([]int32, nv)
	end := make([]int32, nv)
	for v := range start {
		start[v] = -1
		end[v] = -1
	}
	touch := func(v vreg, at int32) {
		if v < 0 {
			return
		}
		if start[v] == -1 || at < start[v] {
			start[v] = at
		}
		if at > end[v] {
			end[v] = at
		}
	}
	for b := range vc.blocks {
		blk := &vc.blocks[b]
		for v := range liveIn[b] {
			touch(v, blockStart[b])
		}
		for v := range liveOut[b] {
			touch(v, blockEnd[b])
		}
		for i := range blk.insts {
			at := idxOf[b][i]
			blk.insts[i].operands(func(r *vreg, isDef bool, cls vt.RegClass) {
				if !isPreg(*r) {
					touch(*r, at)
				}
			})
		}
		for _, mv := range blk.moves {
			for _, s := range mv[1] {
				touch(s, blockEnd[b]-1)
			}
			for _, d := range mv[0] {
				touch(d, blockEnd[b]-1)
			}
		}
	}

	sp.End()
	sp = ph.Begin("RegAlloc.merge")

	// Bundle merging: coalesce move-related vregs whose intervals do not
	// properly overlap.
	parent := make([]int32, nv)
	for v := range parent {
		parent[v] = int32(v)
	}
	var find func(v int32) int32
	find = func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	tryMerge := func(a, b vreg) {
		ra, rb := find(a), find(b)
		if ra == rb || vc.classes[a] != vc.classes[b] {
			return
		}
		if start[ra] == -1 || start[rb] == -1 {
			return
		}
		// Properly overlapping ranges cannot share a register.
		if start[ra] < end[rb] && start[rb] < end[ra] {
			return
		}
		parent[rb] = ra
		if start[rb] < start[ra] {
			start[ra] = start[rb]
		}
		if end[rb] > end[ra] {
			end[ra] = end[rb]
		}
	}
	for b := range vc.blocks {
		blk := &vc.blocks[b]
		for i := range blk.insts {
			in := &blk.insts[i]
			if in.op == vt.MovRR || in.op == vt.FMovRR {
				if !isPreg(in.rd) && !isPreg(in.ra) {
					tryMerge(in.rd, in.ra)
				}
			}
		}
		for _, mv := range blk.moves {
			for k := range mv[0] {
				if !isPreg(mv[0][k]) && !isPreg(mv[1][k]) {
					tryMerge(mv[0][k], mv[1][k])
				}
			}
		}
	}

	sp.End()
	sp = ph.Begin("RegAlloc.assign")

	// Physical register occupancy, seeded with fixed preg references and
	// call clobbers.
	intTrees := make([]*intervalTree, tgt.NumGPR)
	fltTrees := make([]*intervalTree, tgt.NumFPR)
	for i := range intTrees {
		intTrees[i] = &intervalTree{}
	}
	for i := range fltTrees {
		fltTrees[i] = &intervalTree{}
	}
	res := &raResult{assign: make([]int32, nv)}
	for v := range res.assign {
		res.assign[v] = assignNone
	}
	// Fixed occupancy: physical-register references stay blocked between
	// their def and the consuming call (argument staging), or between the
	// producing call/entry and their use (results, incoming parameters);
	// calls clobber every caller-saved register at their position.
	// Overlapping fixed ranges are merged before seeding the B-trees.
	fixedInt := make([][]ival, tgt.NumGPR)
	fixedFlt := make([][]ival, tgt.NumFPR)
	for b := range vc.blocks {
		blk := &vc.blocks[b]
		var callIdx []int32
		for i := range blk.insts {
			if blk.insts[i].isCall {
				callIdx = append(callIdx, idxOf[b][i])
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
		for i := range blk.insts {
			in := &blk.insts[i]
			at := idxOf[b][i]
			in.operands(func(r *vreg, isDef bool, cls vt.RegClass) {
				if !isPreg(*r) {
					return
				}
				p := pregNum(*r)
				var iv ival
				if isDef {
					iv = ival{at, nextCall(at)}
				} else {
					iv = ival{prevCall(at), at}
				}
				if cls == vt.FPR {
					fixedFlt[p] = append(fixedFlt[p], iv)
				} else {
					fixedInt[p] = append(fixedInt[p], iv)
				}
			})
			if in.isCall {
				for _, p := range tgt.CallerSaved {
					fixedInt[p] = append(fixedInt[p], ival{at, at})
				}
				for p := 0; p < tgt.NumFPR; p++ {
					fixedFlt[p] = append(fixedFlt[p], ival{at, at})
				}
			}
		}
	}
	seed := func(tree *intervalTree, ivs []ival) {
		if len(ivs) == 0 {
			return
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].from < ivs[j].from })
		cur := ivs[0]
		for _, iv := range ivs[1:] {
			if iv.from <= cur.to+1 {
				if iv.to > cur.to {
					cur.to = iv.to
				}
				continue
			}
			tree.insert(cur.from, cur.to)
			res.btreeInserts++
			cur = iv
		}
		tree.insert(cur.from, cur.to)
		res.btreeInserts++
	}
	for p := range fixedInt {
		seed(intTrees[p], fixedInt[p])
	}
	for p := range fixedFlt {
		seed(fltTrees[p], fixedFlt[p])
	}

	// Collect and sort bundles by start position.
	type bundle struct {
		rep        int32
		start, end int32
	}
	var bundles []bundle
	for v := 0; v < nv; v++ {
		if find(int32(v)) == int32(v) && start[v] != -1 {
			bundles = append(bundles, bundle{rep: int32(v), start: start[v], end: end[v]})
		}
	}
	sort.Slice(bundles, func(i, j int) bool {
		if bundles[i].start != bundles[j].start {
			return bundles[i].start < bundles[j].start
		}
		return bundles[i].rep < bundles[j].rep
	})
	res.numBundles = len(bundles)

	usedCallee := map[uint8]bool{}
	for _, bd := range bundles {
		cls := vc.classes[bd.rep]
		var cands []uint8
		var trees []*intervalTree
		if cls == vt.FPR {
			cands, trees = fprs, fltTrees
		} else {
			cands, trees = gprs, intTrees
		}
		assigned := false
		for _, p := range cands {
			if trees[p].overlaps(bd.start, bd.end) {
				continue
			}
			trees[p].insert(bd.start, bd.end)
			res.btreeInserts++
			res.assign[bd.rep] = int32(p)
			if cls == vt.GPR && tgt.IsCalleeSaved(p) {
				usedCallee[p] = true
			}
			assigned = true
			break
		}
		if !assigned {
			res.assign[bd.rep] = -1 - res.spills
			res.spills++
			res.numSpilled++
		}
	}
	// Propagate assignments from bundle representatives.
	for v := 0; v < nv; v++ {
		r := find(int32(v))
		if r != int32(v) {
			res.assign[v] = res.assign[r]
		}
	}
	for p := range usedCallee {
		res.usedCalleeSaved = append(res.usedCalleeSaved, p)
	}
	sort.Slice(res.usedCalleeSaved, func(i, j int) bool {
		return res.usedCalleeSaved[i] < res.usedCalleeSaved[j]
	})
	sp.End()
	statBTreeInserts.Add(int64(res.btreeInserts))
	statBundles.Add(int64(res.numBundles))
	statSpilled.Add(int64(res.numSpilled))
	return res
}
