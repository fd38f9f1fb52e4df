package codegen

import (
	"fmt"

	"qcc/internal/rt"
)

// CallFunc invokes compiled function fn of the query with the given integer
// arguments. Back-ends provide this; the driver stays back-end agnostic.
type CallFunc func(fn int, args ...uint64) ([2]uint64, error)

// DefaultMorselSize is the sequential scan granularity: the morsel-driven
// parallelism unit from the paper, which a one-worker run keeps as its call
// structure.
const DefaultMorselSize = 16384

// Run executes a compiled query against db on the calling goroutine: it is
// RunParallel at one worker, with DefaultMorselSize morsels and the module's
// own constant pool. Results accumulate in db.Out.
func Run(db *rt.DB, cat *rt.Catalog, c *Compiled, call CallFunc) error {
	return RunParallel(db, cat, c, call, ExecOptions{})
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
