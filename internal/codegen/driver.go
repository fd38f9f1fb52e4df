package codegen

import (
	"fmt"

	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vm"
)

// CallFunc invokes compiled function fn of the query with the given integer
// arguments. Back-ends provide this; the driver stays back-end agnostic.
type CallFunc func(fn int, args ...uint64) ([2]uint64, error)

// DefaultMorselSize is the driver's scan granularity, the morsel-driven
// parallelism unit from the paper (we execute morsels sequentially but keep
// the call structure).
const DefaultMorselSize = 16384

// Run executes a compiled query against db: it binds the module's hoisted
// literals into the runtime constant pool, allocates and zeroes the query
// state, then for every pipeline runs setup, the main function once per
// morsel of the pipeline's source, and cleanup. Results accumulate in db.Out.
func Run(db *rt.DB, cat *rt.Catalog, c *Compiled, call CallFunc) error {
	return RunMorsels(db, cat, c, call, DefaultMorselSize)
}

// RunMorsels is Run with an explicit morsel size.
func RunMorsels(db *rt.DB, cat *rt.Catalog, c *Compiled, call CallFunc, morsel int64) error {
	return runConsts(db, cat, c, call, c.Module.Pool, morsel)
}

// RunConsts is Run with consts in the constant pool in place of
// c.Module.Pool: code compiled for one plan executes another that differs in
// the literals it reads from the pool (ExecOptions.Consts is the same for
// RunParallel).
func RunConsts(db *rt.DB, cat *rt.Catalog, c *Compiled, call CallFunc, consts []qir.PoolConst) error {
	return runConsts(db, cat, c, call, consts, DefaultMorselSize)
}

func runConsts(db *rt.DB, cat *rt.Catalog, c *Compiled, call CallFunc, consts []qir.PoolConst, morsel int64) (err error) {
	defer vm.CatchOOM(&err) // the state block is allocated outside any call
	if morsel <= 0 {
		return fmt.Errorf("codegen: bad morsel size %d", morsel)
	}
	// Compiled bodies read their literals from the pool slots at execution
	// time. Idempotent and cheap when already bound.
	if err := db.BindConstPool(consts); err != nil {
		return err
	}
	state := db.M.Alloc(uint64(c.StateSize))
	for i := int64(0); i < c.StateSize; i++ {
		db.M.Mem[state+uint64(i)] = 0
	}
	for pi := range c.Pipelines {
		p := &c.Pipelines[pi]
		n, err := sourceRows(db, cat, p, state)
		if err != nil {
			return fmt.Errorf("pipeline %d: %w", pi, err)
		}
		if err := runPipelineSeq(p, pi, call, state, n, morsel); err != nil {
			return err
		}
	}
	return nil
}

// runPipelineSeq runs one pipeline on the calling goroutine: setup, the main
// function once per morsel of its n source rows, cleanup. A pipeline's
// source handle is stored by an earlier pipeline's sink, so n is known
// before setup runs.
func runPipelineSeq(p *Pipeline, pi int, call CallFunc, state uint64, n, morsel int64) error {
	if _, err := call(p.SetupFn, state); err != nil {
		return fmt.Errorf("pipeline %d setup: %w", pi, err)
	}
	for lo := int64(0); lo < n; lo += morsel {
		hi := lo + morsel
		if hi > n {
			hi = n
		}
		if _, err := call(p.MainFn, state, uint64(lo), uint64(hi)); err != nil {
			return fmt.Errorf("pipeline %d morsel [%d,%d): %w", pi, lo, hi, err)
		}
	}
	if _, err := call(p.CleanupFn, state); err != nil {
		return fmt.Errorf("pipeline %d cleanup: %w", pi, err)
	}
	return nil
}

func sourceRows(db *rt.DB, cat *rt.Catalog, p *Pipeline, state uint64) (int64, error) {
	switch p.Source {
	case SrcTable:
		t, err := cat.Table(p.Table)
		if err != nil {
			return 0, err
		}
		return t.Rows, nil
	case SrcGroups, SrcVector:
		h, err := db.ReadU64(state + uint64(p.SourceOff))
		if err != nil {
			return 0, err
		}
		return db.HandleCount(h)
	}
	return 0, fmt.Errorf("codegen: bad source kind %d", p.Source)
}
