package sa

import (
	"fmt"

	"qcc/internal/qir"
)

// FindingKind classifies a lint diagnostic.
type FindingKind uint8

// Lint finding kinds.
const (
	// FindUnreachable flags a basic block no path from entry reaches.
	FindUnreachable FindingKind = iota
	// FindDeadStore flags a store whose bytes are overwritten in the same
	// block before any possible read.
	FindDeadStore
	// FindAlwaysTrap flags an operation that traps on every execution:
	// a load/store whose address range lies entirely inside the null guard
	// page, or a division whose divisor is the constant zero.
	FindAlwaysTrap
	// FindContradiction flags a conditional branch whose comparison is
	// decided by the inferred value ranges (one arm can never execute).
	FindContradiction
)

var findingNames = [...]string{"unreachable-block", "dead-store", "always-trap", "range-contradiction"}

func (k FindingKind) String() string {
	if int(k) < len(findingNames) {
		return findingNames[k]
	}
	return fmt.Sprintf("finding(%d)", uint8(k))
}

// Finding is one lint diagnostic, locatable by function/block/instruction.
type Finding struct {
	Kind  FindingKind
	Func  string
	Block qir.BlockID
	// Instr is the offending instruction id, or qir.NoValue for
	// block-level findings.
	Instr qir.Value
	Msg   string
}

func (f Finding) String() string {
	loc := fmt.Sprintf("%s:b%d", f.Func, f.Block)
	if f.Instr != qir.NoValue {
		loc += fmt.Sprintf(":%%%d", f.Instr)
	}
	return fmt.Sprintf("%s: %s: %s", loc, f.Kind, f.Msg)
}

// Lint reports the diagnostics the analysis can prove for the function.
func (a *Analysis) Lint() []Finding {
	var out []Finding
	f := a.F
	for b := range f.Blocks {
		if a.Dom.Num[b] < 0 {
			out = append(out, Finding{
				Kind: FindUnreachable, Func: f.Name, Block: qir.BlockID(b),
				Instr: qir.NoValue,
				Msg:   fmt.Sprintf("block b%d is unreachable from entry", b),
			})
		}
	}
	for _, b := range a.Dom.RPO {
		out = a.lintBlock(b, out)
	}
	return out
}

func (a *Analysis) lintBlock(b qir.BlockID, out []Finding) []Finding {
	f := a.F
	// pending tracks in-block stores not yet observable by a read, keyed the
	// same way the redundancy tier keys addresses.
	type pstore struct {
		v    qir.Value
		size int64
	}
	pending := map[accessKey]pstore{}
	clobberAll := func() {
		for k := range pending {
			delete(pending, k)
		}
	}
	for _, v := range f.Blocks[b].List {
		in := &f.Instrs[v]
		switch in.Op {
		case qir.OpLoad, qir.OpStore, qir.OpAtomicAdd:
			size := in.Type.Size()
			if in.Op == qir.OpStore {
				size = f.ValueType(in.B).Size()
			}
			av := a.addrVal(b, v)
			// Definite null-page access: every possible address is below
			// the guard page.
			if av.r.Lo >= 0 && av.r.Hi < a.Facts.MinValid && !av.nonNull {
				out = append(out, Finding{
					Kind: FindAlwaysTrap, Func: f.Name, Block: b, Instr: v,
					Msg: fmt.Sprintf("%s address always in [%d,%d], inside the %d-byte null guard page",
						in.Op, av.r.Lo, av.r.Hi, a.Facts.MinValid),
				})
			}
			if in.Op == qir.OpLoad || in.Op == qir.OpAtomicAdd {
				// Any read (address may alias anything) observes all
				// pending stores.
				clobberAll()
				continue
			}
			k := a.addrKey(in.A, av)
			if prev, ok := pending[k]; ok && size >= prev.size {
				out = append(out, Finding{
					Kind: FindDeadStore, Func: f.Name, Block: b, Instr: prev.v,
					Msg: fmt.Sprintf("store %%%d is overwritten by %%%d at the same address before any read", prev.v, v),
				})
			}
			pending[k] = pstore{v: v, size: size}
		case qir.OpCall:
			// Calls may read memory.
			clobberAll()
		case qir.OpSDiv, qir.OpSRem, qir.OpUDiv, qir.OpURem:
			dr := a.RangeAt(b, in.B)
			if dr == Point(0) {
				out = append(out, Finding{
					Kind: FindAlwaysTrap, Func: f.Name, Block: b, Instr: v,
					Msg: fmt.Sprintf("%s divisor is always zero", in.Op),
				})
			}
		case qir.OpCondBr:
			ci := &f.Instrs[in.A]
			if ci.Op != qir.OpICmp {
				continue
			}
			xr := a.RangeAt(b, ci.A)
			yr := a.RangeAt(b, ci.B)
			if val, known := cmpEval(ci.Cmp(), xr, yr); known {
				always := "true"
				dead := in.B
				if !val {
					always = "false"
					dead = qir.BlockID(in.Aux)
				}
				out = append(out, Finding{
					Kind: FindContradiction, Func: f.Name, Block: b, Instr: v,
					Msg: fmt.Sprintf("condition %%%d is always %s given ranges %s %s %s; the b%d arm is dead",
						in.A, always, xr, ci.Cmp(), yr, dead),
				})
			}
		}
	}
	return out
}

// LintFunc is the convenience entry point: analyze f under facts and lint it.
func LintFunc(f *qir.Func, facts *Facts) []Finding {
	return Analyze(f, facts).Lint()
}
