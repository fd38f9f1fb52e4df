package rt

import (
	"fmt"
	"sort"

	"qcc/internal/vm"
)

// Worker-DB support for the morsel-parallel executor (internal/codegen's
// RunParallel). The handle table and intern map of a DB are not
// goroutine-safe, so each executor worker gets its own DB bound to a worker
// vm.Machine that aliases the main machine's memory (vm.NewWorker). Table
// data is readable at the same baked addresses; everything a worker writes
// (pipeline state, hash-table entries, string bodies) lands in its private
// arena and therefore stays valid after the merge — the main DB's merged
// hash tables adopt worker payload addresses directly.

// NewWorkerDB creates a scratch runtime for one executor worker on machine
// m (a vm.NewWorker over this DB's machine). The worker inherits a snapshot
// of the current handle table (read-only access to tables built by earlier
// pipelines) and shares the read-only intern map and the constant pool; it
// gets its own output buffer and runs with insertion stamping enabled so
// partition-local sink state can be merged back in deterministic order.
func (db *DB) NewWorkerDB(m *vm.Machine) *DB {
	return &DB{
		M:        m,
		Out:      &OutBuffer{},
		handles:  append([]any(nil), db.handles...),
		strings:  db.strings,  // read-only during execution
		poolBase: db.poolBase, // the pool is read through the shared memory
		target:   m.Target(),
		stamping: true,
	}
}

// ResetForQuery re-arms a persistent worker runtime for a new query: it
// re-snapshots the main DB's handle table, re-points the shared intern map
// (ResetToCheckpoint replaces the main DB's map object, so a worker created
// in an earlier query would otherwise hold a stale reference), and discards
// any leftover output rows and stamp state. The caller resets the worker
// machine's heap separately (the arena itself is persistent).
func (db *DB) ResetForQuery(main *DB) {
	db.checkOwner("ResetForQuery")
	db.handles = append(db.handles[:0], main.handles...)
	db.strings = main.strings
	db.Out = &OutBuffer{}
	db.stampNext = 0
}

// SyncHandles resets the worker's handle table to a snapshot of from's.
// The executor calls it before each parallel pipeline so workers see the
// merged sink objects of every earlier pipeline under the same handle ids
// the generated code baked into pipeline state.
func (db *DB) SyncHandles(from *DB) {
	db.checkOwner("SyncHandles")
	db.handles = append(db.handles[:0], from.handles...)
}

// Own transfers handle-table ownership to the calling goroutine and arms
// the misuse guard. Each executor worker goroutine calls it on its worker
// DB at start; any other goroutine mutating the handle table then panics.
func (db *DB) Own() {
	db.shared = true
	db.ownerGID = goid()
}

// Release lifts the Own guard (worker goroutine about to exit).
func (db *DB) Release() { db.shared = false }

// SetMorsel starts stamp numbering for one claimed morsel: stamps are
// (morsel index << 32) | sequence, so merging by ascending stamp reproduces
// the order a sequential execution would have inserted in.
func (db *DB) SetMorsel(idx int64) {
	db.stampNext = uint64(idx) << 32
}

// stampedRef is one worker-side sink element with its insertion stamp.
type stampedRef struct {
	stamp uint64
	db    *DB
	idx   int // index into the worker sink's entries/slots
}

// collectStamped gathers the stamped elements of handle id across workers,
// sorted by ascending stamp. get returns (count, stamps) for one worker.
func collectStamped(workers []*DB, get func(w *DB) (int, []uint64, error)) ([]stampedRef, error) {
	var refs []stampedRef
	for _, w := range workers {
		n, stamps, err := get(w)
		if err != nil {
			return nil, err
		}
		if n != len(stamps) {
			return nil, fmt.Errorf("rt: merge: %d entries but %d stamps (stamping disabled on a worker?)", n, len(stamps))
		}
		for i := 0; i < n; i++ {
			refs = append(refs, stampedRef{stamp: stamps[i], db: w, idx: i})
		}
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].stamp < refs[j].stamp })
	return refs, nil
}

// StampedHTEntries returns the payload addresses of hash table id across
// all workers, ordered by insertion stamp — the order a sequential
// execution would have inserted them in. The executor feeds them, in order,
// to the generated aggregation merge function.
func StampedHTEntries(workers []*DB, id uint64) ([]uint64, error) {
	refs, err := collectStamped(workers, func(w *DB) (int, []uint64, error) {
		ht, ok := w.handle(id).(*hashTable)
		if !ok {
			return 0, nil, w.badHandle("StampedHTEntries", id)
		}
		return len(ht.entries), ht.stamps, nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]uint64, len(refs))
	for i, r := range refs {
		ht := r.db.handle(id).(*hashTable)
		out[i] = ht.entries[r.idx]
	}
	return out, nil
}

// MergeBuildHT merges the workers' partition-local join-build tables into
// the main DB's table id by adopting worker payload addresses in stamp
// order. Entries live in worker arenas of the shared machine memory, so no
// copying is needed; the pipeline's cleanup (ht_finalize) builds the bucket
// directory over the merged entry list exactly as it would sequentially.
func MergeBuildHT(main *DB, workers []*DB, id uint64) error {
	mht, ok := main.handle(id).(*hashTable)
	if !ok {
		return main.badHandle("MergeBuildHT", id)
	}
	refs, err := collectStamped(workers, func(w *DB) (int, []uint64, error) {
		ht, ok := w.handle(id).(*hashTable)
		if !ok {
			return 0, nil, w.badHandle("MergeBuildHT", id)
		}
		return len(ht.entries), ht.stamps, nil
	})
	if err != nil {
		return err
	}
	for _, r := range refs {
		ht := r.db.handle(id).(*hashTable)
		mht.entries = append(mht.entries, ht.entries[r.idx])
	}
	return nil
}

// MergeVector merges the workers' partition-local vectors into the main
// DB's vector id, copying slots in stamp order. Slot contents may embed
// addresses into worker arenas (string bodies); those stay valid because
// worker heaps persist until the query completes.
func MergeVector(main *DB, workers []*DB, id uint64) error {
	mv, ok := main.handle(id).(*vector)
	if !ok {
		return main.badHandle("MergeVector", id)
	}
	refs, err := collectStamped(workers, func(w *DB) (int, []uint64, error) {
		v, ok := w.handle(id).(*vector)
		if !ok {
			return 0, nil, w.badHandle("MergeVector", id)
		}
		return int(v.count), v.stamps, nil
	})
	if err != nil {
		return err
	}
	for _, r := range refs {
		v := r.db.handle(id).(*vector)
		slot := main.vecAppend(mv)
		src := v.base + uint64(r.idx)*v.width
		copy(main.M.Mem[slot:slot+mv.width], r.db.M.Mem[src:src+v.width])
	}
	return nil
}
