// Package rt implements the database runtime that generated query code
// calls into: memory allocation, join and aggregation hash tables, row
// vectors, sorting (with comparator callbacks into generated code), string
// operations on the 16-byte by-value string representation, 128-bit decimal
// helpers, and the query output buffer.
//
// Runtime state lives in a DB bound to one vm.Machine. Bulk data (table
// columns, hash-table entries, string bodies) is stored in machine memory so
// that generated code reads and writes it directly; only bookkeeping (bucket
// directories, handles) is kept on the Go side, mirroring how Umbra's
// runtime keeps C++ objects next to raw buffers.
package rt

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"

	"qcc/internal/sem"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// DB is the runtime environment for one machine.
type DB struct {
	M *vm.Machine
	// Out receives query results.
	Out *OutBuffer

	handles     []any // hash tables and vectors, indexed by handle id
	strings     map[string][2]uint64
	baseStrings map[string][2]uint64
	mark        uint64
	target      *vt.Target
	frozen      bool

	// internTop is the heap position after the most recent string body
	// InternString allocated; ReleaseTo scans the intern map only when it
	// lies above the release mark.
	internTop uint64

	// poolBase is the machine address of the runtime constant-pool area
	// (ConstPoolSlots 16-byte slots). It is allocated eagerly in NewDB —
	// before any Checkpoint — so the address compiled code bakes in stays
	// valid across ResetToCheckpoint, which is what lets constant-only query
	// variants share cached code. Worker DBs copy it and read the main DB's
	// pool through the shared machine memory.
	poolBase uint64

	// shared/ownerGID implement the concurrency-misuse guard: while a DB is
	// frozen (parallel compilation) or shared with the morsel-parallel
	// executor, mutating its handle table from any goroutine but the owner
	// panics loudly instead of racing (mirroring the obs Fork/Adopt guard).
	shared   bool
	ownerGID int64

	// stamping assigns every hash-table insert and vector append a
	// monotonically increasing stamp ((morsel index << 32) | sequence).
	// Worker DBs run with stamping on so the executor can merge
	// partition-local sinks back into the sequential insertion order.
	stamping  bool
	stampNext uint64

	// bscr is the batch kernels' reusable vector memory (batch.go).
	bscr batchScratch
}

// Freeze marks the compile-time intern table read-only: interning a string
// that is not already materialized panics until Unfreeze. The parallel
// compilation driver freezes the DB while worker goroutines compile, so a
// back-end that forgot to pre-intern a constant in BeginModule fails loudly
// instead of racing on the intern map and the machine allocator.
func (db *DB) Freeze() {
	db.frozen = true
	db.ownerGID = goid()
}
func (db *DB) Unfreeze() { db.frozen = false }

// ShareForExec marks the DB as shared with the morsel-parallel executor:
// until EndShare, handle-table mutation from any other goroutine panics.
// The calling goroutine becomes the owner.
func (db *DB) ShareForExec() {
	db.shared = true
	db.ownerGID = goid()
}

// EndShare lifts the ShareForExec guard.
func (db *DB) EndShare() { db.shared = false }

// checkOwner panics when a frozen or shared DB is mutated off its owner
// goroutine. Only rare structural mutations (handle creation) are guarded —
// the check parses the runtime stack for the goroutine id, far too slow for
// per-row paths, and per-row mutations always follow a handle creation.
func (db *DB) checkOwner(op string) {
	if (db.frozen || db.shared) && goid() != db.ownerGID {
		panic("rt: " + op + " on a frozen/shared DB from a non-owner goroutine; " +
			"parallel executor workers must mutate only their own worker DB (NewWorkerDB)")
	}
}

// goid parses the current goroutine's id from the runtime stack header
// ("goroutine N [running]:"); only taken on guarded structural mutations.
func goid() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id int64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// NewDB creates a runtime environment on machine m.
func NewDB(m *vm.Machine) *DB {
	db := &DB{
		M:       m,
		Out:     &OutBuffer{},
		strings: make(map[string][2]uint64),
		target:  m.Target(),
	}
	// The constant-pool area is allocated up front, never lazily: it must
	// sit below every Checkpoint mark so its address survives
	// ResetToCheckpoint and stays a stable compile-time immediate.
	db.poolBase = m.Alloc(ConstPoolSlots * constPoolSlotBytes)
	return db
}

// arg returns the i-th integer argument register value.
func (db *DB) arg(i int) uint64 { return db.M.R[db.target.IntArgs[i]] }

// ret sets the return registers.
func (db *DB) ret(v uint64) { db.M.R[db.target.IntRet[0]] = v }

func (db *DB) ret2(lo, hi uint64) {
	db.M.R[db.target.IntRet[0]] = lo
	db.M.R[db.target.IntRet[1]] = hi
}

func (db *DB) handle(id uint64) any {
	if id == 0 || int(id) > len(db.handles) {
		return nil
	}
	return db.handles[id-1]
}

func (db *DB) newHandle(v any) uint64 {
	db.checkOwner("handle-table mutation")
	db.handles = append(db.handles, v)
	return uint64(len(db.handles))
}

// ResetQueryState drops hash tables, vectors and output rows accumulated by
// a query execution, keeping loaded table data intact.
func (db *DB) ResetQueryState() {
	db.handles = db.handles[:0]
	db.Out.Reset()
}

// Checkpoint records the post-load state (heap position and interned
// strings) so the benchmark harness can roll back per-query allocations.
func (db *DB) Checkpoint() {
	db.mark = db.M.HeapMark()
	db.baseStrings = make(map[string][2]uint64, len(db.strings))
	for k, v := range db.strings {
		db.baseStrings[k] = v
	}
}

// ResetToCheckpoint releases everything allocated since Checkpoint: query
// heap allocations, hash-table/vector handles, output rows, and string
// constants interned by compiled queries (whose baked addresses die with
// their code).
func (db *DB) ResetToCheckpoint() {
	if db.baseStrings == nil {
		db.ResetQueryState()
		return
	}
	db.handles = db.handles[:0]
	db.Out.Reset()
	db.strings = make(map[string][2]uint64, len(db.baseStrings))
	for k, v := range db.baseStrings {
		db.strings[k] = v
	}
	db.M.ResetHeapTo(db.mark)
}

// ReleaseTo drops the state of one execution: hash tables, vectors, output
// rows, and every heap allocation above mark (a db.M.HeapMark() taken after
// the module's constant pool was bound, so compile-time and pooled strings
// sit below it). Strings interned above the mark — a back-end compiling
// during execution, as the adaptive tier driver does — are forgotten with
// their bodies, so a later InternString cannot hand out a freed address.
func (db *DB) ReleaseTo(mark uint64) {
	db.ResetQueryState()
	db.M.ResetHeapTo(mark)
	if db.internTop <= mark {
		return
	}
	for s, v := range db.strings {
		if len(s) > 12 && v[1] >= mark { // longer strings keep their body at v[1]
			delete(db.strings, s)
		}
	}
	db.internTop = mark
}

// InternString materializes a string constant into machine memory (if
// needed) and returns its 16-byte by-value representation as register
// halves. Back-ends call this at compile time to bake string constants into
// code, like a JIT baking addresses of process constants.
func (db *DB) InternString(s string) (lo, hi uint64) {
	if v, ok := db.strings[s]; ok {
		return v[0], v[1]
	}
	if db.frozen {
		panic("rt: InternString of un-pre-interned string during parallel compilation")
	}
	lo, hi = db.makeString(s)
	db.strings[s] = [2]uint64{lo, hi}
	db.internTop = db.M.HeapMark()
	return lo, hi
}

// makeString builds the 16-byte string struct: bytes 0-3 length; if length
// <= 12 the remainder holds the bytes inline, otherwise bytes 4-7 hold the
// prefix and bytes 8-15 a pointer to the body in machine memory.
func (db *DB) makeString(s string) (lo, hi uint64) {
	n := len(s)
	var b [16]byte
	put32(b[:], uint32(n))
	if n <= 12 {
		copy(b[4:], s)
	} else {
		copy(b[4:8], s[:4])
		addr := db.M.Alloc(uint64(n))
		copy(db.M.Mem[addr:addr+uint64(n)], s)
		put64(b[8:], addr)
	}
	return le64(b[:8]), le64(b[8:])
}

// LoadString decodes a 16-byte string value from its register halves.
func (db *DB) LoadString(lo, hi uint64) (string, error) {
	var b [16]byte
	put64(b[:8], lo)
	put64(b[8:], hi)
	n := le32(b[:4])
	if n <= 12 {
		return string(b[4 : 4+n]), nil
	}
	addr := le64(b[8:])
	body, err := db.M.Bytes(addr, uint64(n))
	if err != nil {
		return "", err
	}
	return string(body), nil
}

// strBytes returns the bytes of a string value without allocating: a long
// string's bytes where they lie in machine memory, an inline (<= 12-byte)
// string's unpacked into buf, which the caller owns and keeps on its stack.
func (db *DB) strBytes(lo, hi uint64, buf *[16]byte) ([]byte, error) {
	n := uint64(uint32(lo))
	if n <= 12 {
		put64(buf[:8], lo)
		put64(buf[8:], hi)
		return buf[4 : 4+n], nil
	}
	return db.M.Bytes(hi, n)
}

// --------------------------------------------------------------------------
// Hash tables.
//
// Entry layout in machine memory: [next:8][hash:8][payload:width]. Runtime
// calls return the payload address; generated code walks chains by loading
// next at payload-16 and the hash at payload-8, and compares keys inline.
// --------------------------------------------------------------------------

const entryHeader = 16

type hashTable struct {
	width   uint64   // payload width
	entries []uint64 // payload addresses, in insertion order
	buckets []uint64 // payload addresses, chained via next fields
	mask    uint64
	agg     bool
	// stamps[i] is the insertion stamp of entries[i] when the owning DB runs
	// with stamping enabled (worker DBs); empty otherwise.
	stamps []uint64
}

func (db *DB) htCreate(width uint64, agg bool) uint64 {
	ht := &hashTable{width: width, agg: agg}
	if agg {
		ht.buckets = make([]uint64, 64)
		ht.mask = 63
	}
	return db.newHandle(ht)
}

func (db *DB) htInsert(ht *hashTable, hash uint64) uint64 {
	addr := db.M.Alloc(entryHeader + ht.width)
	payload := addr + entryHeader
	put64(db.M.Mem[addr:], 0)      // next
	put64(db.M.Mem[addr+8:], hash) // hash
	for i := uint64(0); i < ht.width; i += 8 {
		put64(db.M.Mem[payload+i:], 0)
	}
	ht.entries = append(ht.entries, payload)
	if db.stamping {
		ht.stamps = append(ht.stamps, db.stampNext)
		db.stampNext++
	}
	if ht.agg {
		if uint64(len(ht.entries)) > ht.mask+1 {
			// Growing relinks every entry, including the new one; do
			// not link it a second time (that would make it its own
			// chain successor).
			db.htGrow(ht)
		} else {
			b := hash & ht.mask
			put64(db.M.Mem[addr:], ht.buckets[b]) // chain old head
			ht.buckets[b] = payload
		}
	}
	return payload
}

func (db *DB) htGrow(ht *hashTable) {
	n := uint64(len(ht.buckets)) * 2
	ht.buckets = make([]uint64, n)
	ht.mask = n - 1
	for _, p := range ht.entries {
		h := le64(db.M.Mem[p-8:])
		b := h & ht.mask
		put64(db.M.Mem[p-entryHeader:], ht.buckets[b])
		ht.buckets[b] = p
	}
}

func (db *DB) htFinalize(ht *hashTable) {
	n := uint64(1)
	for n < uint64(len(ht.entries))*2 {
		n *= 2
	}
	if n < 16 {
		n = 16
	}
	ht.buckets = make([]uint64, n)
	ht.mask = n - 1
	for _, p := range ht.entries {
		h := le64(db.M.Mem[p-8:])
		b := h & ht.mask
		put64(db.M.Mem[p-entryHeader:], ht.buckets[b])
		ht.buckets[b] = p
	}
}

func (db *DB) htLookup(ht *hashTable, hash uint64) uint64 {
	if ht.buckets == nil {
		return 0
	}
	return ht.buckets[hash&ht.mask]
}

// --------------------------------------------------------------------------
// Row vectors: contiguous fixed-width slots in machine memory.
// --------------------------------------------------------------------------

type vector struct {
	width uint64
	base  uint64
	count uint64
	cap   uint64
	// stamps[i] is the append stamp of slot i under a stamping DB.
	stamps []uint64
}

func (db *DB) vecAppend(v *vector) uint64 {
	if v.count == v.cap {
		newCap := v.cap * 2
		if newCap == 0 {
			newCap = 64
		}
		newBase := db.M.Alloc(newCap * v.width)
		copy(db.M.Mem[newBase:newBase+v.count*v.width], db.M.Mem[v.base:v.base+v.count*v.width])
		v.base, v.cap = newBase, newCap
	}
	slot := v.base + v.count*v.width
	v.count++
	if db.stamping {
		v.stamps = append(v.stamps, db.stampNext)
		db.stampNext++
	}
	return slot
}

// I128 is a signed 128-bit integer, the value of a SQL decimal; its
// arithmetic is internal/sem's.
type I128 = sem.I128

// I128FromInt64 sign-extends v.
func I128FromInt64(v int64) I128 { return I128{Lo: uint64(v), Hi: uint64(v >> 63)} }

// --------------------------------------------------------------------------
// Little-endian helpers on byte slices.
// --------------------------------------------------------------------------

func le32(b []byte) uint32     { return binary.LittleEndian.Uint32(b) }
func le64(b []byte) uint64     { return binary.LittleEndian.Uint64(b) }
func put32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func put64(b []byte, v uint64) { binary.LittleEndian.PutUint64(b, v) }

// sortVec sorts the entries of v. If useCB is set, cmpAddr is the code
// address of a generated comparator taking two payload addresses and
// returning a negative/zero/positive i64; otherwise entries are compared by
// the i64 at keyOff (descending when desc).
func (db *DB) sortVec(v *vector, cmpAddr uint64, useCB bool, keyOff uint64, desc bool) error {
	n := int(v.count)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	var cbErr error
	less := func(i, j int) bool {
		a := v.base + uint64(idx[i])*v.width
		b := v.base + uint64(idx[j])*v.width
		if useCB {
			res, err := db.M.CallAt(cmpAddr, a, b)
			if err != nil && cbErr == nil {
				cbErr = err
			}
			return int64(res[0]) < 0
		}
		av := int64(le64(db.M.Mem[a+keyOff:]))
		bv := int64(le64(db.M.Mem[b+keyOff:]))
		if desc {
			return av > bv
		}
		return av < bv
	}
	sort.SliceStable(idx, less)
	if cbErr != nil {
		return cbErr
	}
	// Apply the permutation via a scratch copy.
	tmp := make([]byte, v.count*v.width)
	copy(tmp, db.M.Mem[v.base:v.base+v.count*v.width])
	for i, src := range idx {
		copy(db.M.Mem[v.base+uint64(i)*v.width:], tmp[uint64(src)*v.width:uint64(src+1)*v.width])
	}
	return nil
}

func (db *DB) badHandle(what string, id uint64) error {
	return fmt.Errorf("rt: %s: bad handle %d", what, id)
}
