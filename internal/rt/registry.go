package rt

import (
	"math/bits"

	"qcc/internal/qir"
	"qcc/internal/sem"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// Names of all runtime functions callable from generated code. Code
// generators reference these names; Bind resolves them to ids.
const (
	FnAlloc     = "alloc"
	FnOutBegin  = "out_begin"
	FnOutI64    = "out_i64"
	FnOutI128   = "out_i128"
	FnOutF64    = "out_f64"
	FnOutStr    = "out_str"
	FnOutRow    = "out_row"
	FnHTCreate  = "ht_create"
	FnAggCreate = "agg_create"
	FnHTInsert  = "ht_insert"
	FnHTFinal   = "ht_finalize"
	FnHTLookup  = "ht_lookup"
	FnVecCreate = "vec_create"
	FnVecAppend = "vec_append"
	FnVecData   = "vec_data"
	FnVecCount  = "vec_count"
	FnSortCB    = "sort_cb"
	FnSortI64   = "sort_i64"
	FnStrEq     = "str_eq"
	FnStrCmp    = "str_cmp"
	FnStrLike   = "str_like"
	FnStrHash   = "str_hash"
	FnStrConcat = "str_concat"
	FnI128Div   = "i128_div"
	FnI128MulOv = "i128_mul_ov"
	FnI128Rem   = "i128_rem"
	FnOverflow  = "throw_overflow"
	FnHTEntry   = "ht_entry"

	// Batch (vectorized) kernels: prepare decodes a serialized BatchSpec
	// into a kernel program handle during pipeline setup; exec runs the
	// kernel over one morsel against the pipeline's sink hash table.
	FnBatchPrep = "batch_prepare"
	FnBatchExec = "batch_exec"

	// Helper functions used by back-ends that lack dedicated instructions
	// for these operations (the Cranelift custom-instruction ablation of
	// Table II lowers to these).
	FnCrc32Help = "crc32_helper"
	FnAddOv64   = "sadd_ov64"
	FnSubOv64   = "ssub_ov64"
	FnMulOv64   = "smul_ov64"
	FnMulWide   = "mul_wide"
)

// The helpers that are one QIR operation each, evaluated by internal/sem.
var (
	i128Helpers    = map[string]qir.Op{FnI128Div: qir.OpSDiv, FnI128Rem: qir.OpSRem, FnI128MulOv: qir.OpSMulTrap}
	checkedHelpers = map[string]qir.Op{FnAddOv64: qir.OpSAddTrap, FnSubOv64: qir.OpSSubTrap, FnMulOv64: qir.OpSMulTrap}
)

// mul128Msg is the message of a 128-bit multiplication's overflow trap,
// raised alike by the runtime helper and the batch kernels.
const mul128Msg = "128-bit multiplication"

// impl builds the handler for one runtime function name, or nil if unknown.
func (db *DB) impl(name string) vm.RTFunc {
	switch name {
	case FnAlloc:
		return func(m *vm.Machine) error {
			db.ret(db.M.Alloc(db.arg(0)))
			return nil
		}
	case FnOutBegin:
		return func(m *vm.Machine) error {
			db.Out.BeginRow()
			return nil
		}
	case FnOutI64:
		return func(m *vm.Machine) error {
			db.Out.AddI64(int64(db.arg(0)))
			return nil
		}
	case FnOutI128:
		return func(m *vm.Machine) error {
			db.Out.AddI128(I128{Lo: db.arg(0), Hi: db.arg(1)})
			return nil
		}
	case FnOutF64:
		return func(m *vm.Machine) error {
			db.Out.AddF64(fbits(db.arg(0)))
			return nil
		}
	case FnOutStr:
		return func(m *vm.Machine) error {
			s, err := db.LoadString(db.arg(0), db.arg(1))
			if err != nil {
				return err
			}
			db.Out.AddStr(s)
			return nil
		}
	case FnOutRow:
		return func(m *vm.Machine) error {
			db.Out.EndRow()
			return nil
		}
	case FnHTCreate:
		return func(m *vm.Machine) error {
			db.ret(db.htCreate(db.arg(0), false))
			return nil
		}
	case FnAggCreate:
		return func(m *vm.Machine) error {
			db.ret(db.htCreate(db.arg(0), true))
			return nil
		}
	case FnHTInsert:
		return func(m *vm.Machine) error {
			ht, ok := db.handle(db.arg(0)).(*hashTable)
			if !ok {
				return db.badHandle("ht_insert", db.arg(0))
			}
			db.ret(db.htInsert(ht, db.arg(1)))
			return nil
		}
	case FnHTFinal:
		return func(m *vm.Machine) error {
			ht, ok := db.handle(db.arg(0)).(*hashTable)
			if !ok {
				return db.badHandle("ht_finalize", db.arg(0))
			}
			db.htFinalize(ht)
			return nil
		}
	case FnHTLookup:
		return func(m *vm.Machine) error {
			ht, ok := db.handle(db.arg(0)).(*hashTable)
			if !ok {
				return db.badHandle("ht_lookup", db.arg(0))
			}
			db.ret(db.htLookup(ht, db.arg(1)))
			return nil
		}
	case FnVecCreate:
		return func(m *vm.Machine) error {
			db.ret(db.newHandle(&vector{width: db.arg(0)}))
			return nil
		}
	case FnVecAppend:
		return func(m *vm.Machine) error {
			v, ok := db.handle(db.arg(0)).(*vector)
			if !ok {
				return db.badHandle("vec_append", db.arg(0))
			}
			db.ret(db.vecAppend(v))
			return nil
		}
	case FnVecData:
		return func(m *vm.Machine) error {
			v, ok := db.handle(db.arg(0)).(*vector)
			if !ok {
				return db.badHandle("vec_data", db.arg(0))
			}
			db.ret(v.base)
			return nil
		}
	case FnVecCount:
		return func(m *vm.Machine) error {
			v, ok := db.handle(db.arg(0)).(*vector)
			if !ok {
				return db.badHandle("vec_count", db.arg(0))
			}
			db.ret(v.count)
			return nil
		}
	case FnSortCB:
		return func(m *vm.Machine) error {
			v, ok := db.handle(db.arg(0)).(*vector)
			if !ok {
				return db.badHandle("sort_cb", db.arg(0))
			}
			return db.sortVec(v, db.arg(1), true, 0, false)
		}
	case FnSortI64:
		return func(m *vm.Machine) error {
			v, ok := db.handle(db.arg(0)).(*vector)
			if !ok {
				return db.badHandle("sort_i64", db.arg(0))
			}
			return db.sortVec(v, 0, false, db.arg(1), db.arg(2) != 0)
		}
	case FnStrEq:
		return func(m *vm.Machine) error {
			var abuf, bbuf [16]byte
			a, err := db.strBytes(db.arg(0), db.arg(1), &abuf)
			if err != nil {
				return err
			}
			b, err := db.strBytes(db.arg(2), db.arg(3), &bbuf)
			if err != nil {
				return err
			}
			db.ret(b2u(string(a) == string(b)))
			return nil
		}
	case FnStrCmp:
		return func(m *vm.Machine) error {
			var abuf, bbuf [16]byte
			a, err := db.strBytes(db.arg(0), db.arg(1), &abuf)
			if err != nil {
				return err
			}
			b, err := db.strBytes(db.arg(2), db.arg(3), &bbuf)
			if err != nil {
				return err
			}
			db.ret(uint64(int64(cmpBytes(a, b))))
			return nil
		}
	case FnStrLike:
		return func(m *vm.Machine) error {
			var abuf, bbuf [16]byte
			s, err := db.strBytes(db.arg(0), db.arg(1), &abuf)
			if err != nil {
				return err
			}
			p, err := db.strBytes(db.arg(2), db.arg(3), &bbuf)
			if err != nil {
				return err
			}
			db.ret(b2u(likeMatch(s, p)))
			return nil
		}
	case FnStrHash:
		return func(m *vm.Machine) error {
			var buf [16]byte
			s, err := db.strBytes(db.arg(0), db.arg(1), &buf)
			if err != nil {
				return err
			}
			h := vt.Crc32c(0, s)
			db.ret(uint64(h) | uint64(len(s))<<32)
			return nil
		}
	case FnStrConcat:
		return func(m *vm.Machine) error {
			var abuf, bbuf [16]byte
			a, err := db.strBytes(db.arg(0), db.arg(1), &abuf)
			if err != nil {
				return err
			}
			b, err := db.strBytes(db.arg(2), db.arg(3), &bbuf)
			if err != nil {
				return err
			}
			lo, hi := db.makeString(string(a) + string(b))
			db.ret2(lo, hi)
			return nil
		}
	case FnI128Div, FnI128Rem, FnI128MulOv:
		op := i128Helpers[name]
		return func(m *vm.Machine) error {
			r, trap, ok := sem.Eval128(op, I128{Lo: db.arg(0), Hi: db.arg(1)}, I128{Lo: db.arg(2), Hi: db.arg(3)})
			if !ok {
				t := &vm.Trap{Code: trap}
				if trap == vt.TrapOverflow {
					t.Msg = mul128Msg
				}
				return t
			}
			db.ret2(r.Lo, r.Hi)
			return nil
		}
	case FnOverflow:
		return func(m *vm.Machine) error {
			return &vm.Trap{Code: vt.TrapOverflow}
		}
	case FnBatchPrep:
		return func(m *vm.Machine) error {
			var buf [16]byte
			desc, err := db.strBytes(db.arg(0), db.arg(1), &buf)
			if err != nil {
				return err
			}
			bp, err := db.batchPrepare(desc)
			if err != nil {
				return err
			}
			db.ret(db.newHandle(bp))
			return nil
		}
	case FnBatchExec:
		return func(m *vm.Machine) error {
			bp, ok := db.handle(db.arg(0)).(*batchProg)
			if !ok {
				return db.badHandle("batch_exec", db.arg(0))
			}
			ht, ok := db.handle(db.arg(1)).(*hashTable)
			if !ok {
				return db.badHandle("batch_exec sink", db.arg(1))
			}
			return db.batchExec(bp, ht, int64(db.arg(2)), int64(db.arg(3)))
		}
	case FnHTEntry:
		return func(m *vm.Machine) error {
			ht, ok := db.handle(db.arg(0)).(*hashTable)
			if !ok {
				return db.badHandle("ht_entry", db.arg(0))
			}
			i := db.arg(1)
			if i >= uint64(len(ht.entries)) {
				return &vm.Trap{Code: vt.TrapOOB, Msg: "ht_entry index"}
			}
			db.ret(ht.entries[i])
			return nil
		}
	case FnCrc32Help:
		return func(m *vm.Machine) error {
			db.ret(vt.Crc32c8(db.arg(0), db.arg(1)))
			return nil
		}
	case FnAddOv64, FnSubOv64, FnMulOv64:
		op := checkedHelpers[name]
		return func(m *vm.Machine) error {
			r, trap, ok := sem.Eval(op, qir.I64, db.arg(0), db.arg(1))
			if !ok {
				return &vm.Trap{Code: trap}
			}
			db.ret(r)
			return nil
		}
	case FnMulWide:
		return func(m *vm.Machine) error {
			hi, lo := bits.Mul64(db.arg(0), db.arg(1))
			db.ret2(lo, hi)
			return nil
		}
	}
	return nil
}

// HandleCount returns the number of entries in a hash table or vector
// handle; the execution driver uses it to size morsel loops over pipeline
// intermediates.
func (db *DB) HandleCount(id uint64) (int64, error) {
	switch h := db.handle(id).(type) {
	case *hashTable:
		return int64(len(h.entries)), nil
	case *vector:
		return int64(h.count), nil
	}
	return 0, db.badHandle("HandleCount", id)
}

// ReadU64 reads a 64-bit value from machine memory (driver access to query
// state).
func (db *DB) ReadU64(addr uint64) (uint64, error) {
	b, err := db.M.Bytes(addr, 8)
	if err != nil {
		return 0, err
	}
	return le64(b), nil
}

// Bind installs handlers for the given runtime-import name table (from a
// qir.Module) into the machine, returning the id-indexed table. Unknown
// names yield an error at bind time rather than a trap at run time.
func (db *DB) Bind(names []string) error {
	tbl := make([]vm.RTFunc, len(names))
	for i, n := range names {
		fn := db.impl(n)
		if fn == nil {
			return &UnknownRuntimeFunc{Name: n}
		}
		tbl[i] = fn
	}
	db.M.RT = tbl
	return nil
}

// UnknownRuntimeFunc reports a runtime-import name with no implementation.
type UnknownRuntimeFunc struct{ Name string }

func (e *UnknownRuntimeFunc) Error() string {
	return "rt: unknown runtime function " + e.Name
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func cmpBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single byte).
func likeMatch(s, p []byte) bool {
	// Iterative two-pointer algorithm with backtracking on %.
	si, pi := 0, 0
	star, ss := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star, ss = pi, si
			pi++
		case star != -1:
			pi = star + 1
			ss++
			si = ss
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
