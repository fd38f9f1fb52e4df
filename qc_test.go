package qc

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"qcc/internal/obs"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

func openSmall(t *testing.T) *DB {
	t.Helper()
	db, err := Open(qcOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func qcOpts() []Option { return []Option{WithMemoryMB(256)} }

func loadProducts(t *testing.T, db *DB) {
	t.Helper()
	tb, err := db.CreateTable("products", 4,
		Column{Name: "id", Type: Int64},
		Column{Name: "name", Type: Text},
		Column{Name: "price", Type: Decimal},
		Column{Name: "qty", Type: Int32},
	)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		id    int64
		name  string
		price int64
		qty   int64
	}{
		{1, "apple", 100, 10}, {2, "banana", 50, 20},
		{3, "cherry", 300, 5}, {4, "durian", 900, 1},
	}
	for _, r := range rows {
		if err := tb.Append(r.id, r.name, DecFromInt(r.price), r.qty); err != nil {
			t.Fatal(err)
		}
	}
}

func TestExecBasicSQL(t *testing.T) {
	db := openSmall(t)
	loadProducts(t, db)
	res, err := db.Exec("SELECT name, price FROM products WHERE qty > 4 ORDER BY price DESC")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"cherry", "300"}, {"apple", "100"}, {"banana", "50"}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v, want %v", res.Rows, want)
	}
	if res.Stats.CompileTime <= 0 || res.Stats.Functions == 0 {
		t.Errorf("missing stats: %+v", res.Stats)
	}
}

func TestExecAggregates(t *testing.T) {
	db := openSmall(t)
	loadProducts(t, db)
	res, err := db.Exec("SELECT COUNT(*) AS n, SUM(price) AS total FROM products")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "4" || res.Rows[0][1] != "1350" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecGroupByHaving(t *testing.T) {
	db := openSmall(t)
	loadProducts(t, db)
	res, err := db.Exec(`
		SELECT qty, COUNT(*) AS n FROM products
		GROUP BY qty HAVING n > 0 ORDER BY qty`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestExecEveryEngineAgrees(t *testing.T) {
	db := openSmall(t)
	loadProducts(t, db)
	q := "SELECT name FROM products WHERE price BETWEEN 0.60 AND 9.50 ORDER BY name"
	var ref [][]string
	for _, e := range Engines() {
		res, err := db.ExecWith(e, q)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		if ref == nil {
			ref = res.Rows
			continue
		}
		if !reflect.DeepEqual(res.Rows, ref) {
			t.Errorf("%s disagrees: %v vs %v", e, res.Rows, ref)
		}
	}
	// Decimal literals scale by 100: 0.60..9.50 → 60..950 cents.
	if len(ref) != 3 {
		t.Errorf("expected apple, cherry, durian; got %v", ref)
	}
}

// TestEnginesAgreeOnCallStaging runs the statements that DirectEmit used to
// get wrong on every engine: a wide (decimal or string) call argument whose
// high word was cached in the register its low word is passed in reached the
// callee as the low word twice. The first statement rejected every row (the
// string compare after two decimal compares), the second returned 2^64 times
// the sum (the 128-bit multiply helper).
func TestEnginesAgreeOnCallStaging(t *testing.T) {
	db := openSmall(t)
	if err := db.LoadTPCH(0.02); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		q    string
		want [][]string // nil: whatever the interpreter says
	}{
		{"SELECT COUNT(*) FROM customer WHERE c_acctbal > 164116 AND c_acctbal >= 22329 AND c_mktsegment = 'BUILDING'",
			[][]string{{"8"}}},
		{"SELECT l_returnflag, MIN(l_extendedprice * l_discount), SUM(l_extendedprice * (100 - l_tax)) " +
			"FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag", nil},
		{"SELECT MIN(l_extendedprice * l_discount), SUM(l_extendedprice * (100 - l_tax)) FROM lineitem", nil},
	} {
		want := c.want
		for _, e := range Engines() {
			res, err := db.ExecWith(e, c.q)
			if err != nil {
				t.Fatalf("%s: %v", e, err)
			}
			if want == nil {
				want = res.Rows // Engines() lists the interpreter first
			}
			if !reflect.DeepEqual(res.Rows, want) {
				t.Errorf("%s: %q\n got %v\nwant %v", e, c.q, res.Rows, want)
			}
		}
	}
}

func TestExecJoin(t *testing.T) {
	db := openSmall(t)
	loadProducts(t, db)
	cat, err := db.CreateTable("categories", 4,
		Column{Name: "pid", Type: Int64},
		Column{Name: "cat", Type: Text},
	)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range []string{"fruit", "fruit", "fruit", "exotic"} {
		if err := cat.Append(int64(i+1), c); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Exec(`
		SELECT cat, COUNT(*) AS n, SUM(price) AS total
		FROM products JOIN categories ON id = pid
		GROUP BY cat ORDER BY cat`)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"exotic", "1", "900"}, {"fruit", "3", "450"}}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Errorf("rows = %v, want %v", res.Rows, want)
	}
}

func TestSQLErrors(t *testing.T) {
	db := openSmall(t)
	loadProducts(t, db)
	for _, bad := range []string{
		"SELECT nosuch FROM products",
		"SELECT name FROM nosuchtable",
		"SELECT name FROM products WHERE name > 3",
		"SELECT FROM products",
		"SELECT name FROM products LIMIT banana",
	} {
		if _, err := db.Exec(bad); err == nil {
			t.Errorf("no error for %q", bad)
		}
	}
	if _, err := db.ExecWith("no-such-engine", "SELECT 1 FROM products"); err == nil ||
		!strings.Contains(err.Error(), "unknown engine") {
		t.Errorf("expected unknown engine error, got %v", err)
	}
}

func TestLoadWorkloads(t *testing.T) {
	db := openSmall(t)
	if err := db.LoadTPCH(0.01); err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT COUNT(*) FROM lineitem")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] == "0" {
		t.Error("lineitem empty")
	}

	db2 := openSmall(t)
	if err := db2.LoadTPCDS(0.01); err != nil {
		t.Fatal(err)
	}
	res, err = db2.Exec("SELECT COUNT(*) FROM store_sales WHERE ss_quantity > 0")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] == "0" {
		t.Error("store_sales empty")
	}
}

func TestTableAppendErrors(t *testing.T) {
	db := openSmall(t)
	tb, err := db.CreateTable("t", 1, Column{Name: "a", Type: Int64})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.Append("not an int"); err == nil {
		t.Error("expected type error")
	}
	if err := tb.Append(int64(1)); err != nil {
		t.Fatal(err)
	}
	if err := tb.Append(int64(2)); err == nil {
		t.Error("expected table-full error")
	}
}

func TestArchVA64(t *testing.T) {
	db, err := Open(WithArch(VA64), WithMemoryMB(256))
	if err != nil {
		t.Fatal(err)
	}
	loadProductsAny(t, db)
	// DirectEmit/adaptive are vx64-only; default must have fallen back.
	res, err := db.Exec("SELECT COUNT(*) FROM products")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "4" {
		t.Errorf("rows = %v", res.Rows)
	}
	if _, err := db.ExecWith("directemit", "SELECT COUNT(*) FROM products"); err == nil {
		t.Error("directemit should fail on va64")
	}
}

func loadProductsAny(t *testing.T, db *DB) {
	t.Helper()
	loadProducts(t, db)
}

// heapUsed is the vm heap in use; flat across executions means the query
// path released everything the executions allocated.
func heapUsed(d *DB) uint64 { return d.w.DB.M.HeapUsed() }

// TestExecParallelKeepsWorkersAndHeap: one persistent worker pool per DB —
// every parallel Exec must dispatch to workers and leave the heap where the
// first one left it. (Before the pool, each Exec leaked 4 x 4 MiB of arenas
// and parallelism switched itself off when the heap ran out.)
func TestExecParallelKeepsWorkersAndHeap(t *testing.T) {
	db, err := Open(WithMemoryMB(128), WithEngine("cranelift"), WithExecJobs(4), WithBatch(true))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadTPCH(0.05); err != nil {
		t.Fatal(err)
	}
	const q = "SELECT l_returnflag, SUM(l_quantity), COUNT(*) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag"
	workers := obs.NewCounter("exec_workers")
	var first *Result
	var heap uint64
	for i := 0; i < 40; i++ {
		before := workers.Load()
		res, err := db.Exec(q)
		if err != nil {
			t.Fatalf("exec %d: %v", i, err)
		}
		if workers.Load() == before {
			t.Fatalf("exec %d ran without workers", i)
		}
		if i == 0 {
			first, heap = res, heapUsed(db)
			continue
		}
		if got := heapUsed(db); got != heap {
			t.Fatalf("exec %d: heap %d, was %d after the first", i, got, heap)
		}
		if !reflect.DeepEqual(res.Rows, first.Rows) {
			t.Fatalf("exec %d: rows differ from the first", i)
		}
	}
}

// TestExecSequentialHeapFlat: over a fixed set of statements the heap ends
// where each statement's first execution left it — strings interned at
// compile time may stay, per-execution state may not — on the engine that
// compiles during execution (adaptive) and on a cached one.
func TestExecSequentialHeapFlat(t *testing.T) {
	stmts := []string{
		"SELECT COUNT(*) FROM lineitem",
		"SELECT o_orderpriority, COUNT(*) FROM orders WHERE o_orderpriority = '1-URGENT' GROUP BY o_orderpriority",
		"SELECT l_returnflag, SUM(l_extendedprice) FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag",
		"SELECT c_mktsegment, COUNT(*) FROM customer WHERE c_mktsegment = 'AUTOMOBILE' OR c_mktsegment = 'a segment that does not exist' GROUP BY c_mktsegment",
		"SELECT l_orderkey, l_quantity FROM lineitem WHERE l_quantity > 49 ORDER BY l_orderkey LIMIT 5",
		"SELECT l_shipmode, COUNT(*) FROM lineitem WHERE l_shipmode = 'AIR' GROUP BY l_shipmode",
	}
	for name, opts := range map[string][]Option{
		"adaptive":  {WithEngine("adaptive")},
		"cranelift": {WithEngine("cranelift"), WithCacheMB(16)},
	} {
		t.Run(name, func(t *testing.T) {
			db, err := Open(append(opts, WithMemoryMB(64))...)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.LoadTPCH(0.01); err != nil {
				t.Fatal(err)
			}
			first := make([]*Result, len(stmts))
			for i, s := range stmts {
				if first[i], err = db.Exec(s); err != nil {
					t.Fatalf("%s: %v", s, err)
				}
			}
			heap := heapUsed(db)
			for n := 0; n < 5000; n++ {
				i := n % len(stmts)
				res, err := db.Exec(stmts[i])
				if err != nil {
					t.Fatalf("exec %d: %v", n, err)
				}
				if n >= 5000-len(stmts) && !reflect.DeepEqual(res.Rows, first[i].Rows) {
					t.Errorf("%s: rows changed between first and last execution", stmts[i])
				}
			}
			if got := heapUsed(db); got != heap {
				t.Errorf("heap %d after 5000 executions, %d after the first of each statement", got, heap)
			}
		})
	}
}

// TestOutOfMemoryIsATrap: a statement that exhausts the machine's heap fails
// with a TrapOOM that names the code position, on every engine, tuple at a
// time and with batch kernels, and the same database runs the next statement.
func TestOutOfMemoryIsATrap(t *testing.T) {
	const sorted = "SELECT l_orderkey, l_extendedprice FROM lineitem ORDER BY l_extendedprice"
	wantOOM := func(t *testing.T, what string, err error) *vm.Trap {
		t.Helper()
		var trap *vm.Trap
		if !errors.As(err, &trap) || trap.Code != vt.TrapOOM {
			t.Fatalf("%s: %v, want an out-of-memory trap", what, err)
		}
		return trap
	}
	for name, opts := range map[string][]Option{
		"tuple": {WithMemoryMB(4)},
		"batch": {WithMemoryMB(4), WithExecJobs(2), WithBatch(true)},
	} {
		t.Run(name, func(t *testing.T) {
			db, err := Open(opts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.LoadTPCH(0.3); err != nil {
				t.Fatal(err)
			}
			for _, e := range Engines() {
				_, err := db.ExecWith(e, sorted)
				if trap := wantOOM(t, e+": sort of 18 000 rows", err); e != "interpreter" && len(trap.Frames) == 0 {
					t.Errorf("%s: trap without a frame: %v", e, trap)
				}
				res, err := db.ExecWith(e, "SELECT COUNT(*) FROM lineitem")
				if err != nil || len(res.Rows) != 1 || res.Rows[0][0] != "18000" {
					t.Fatalf("%s: statement after the trap: %v, %v", e, res, err)
				}
			}
		})
	}

	// A machine with room for worker arenas: the sort runs out of memory on
	// a worker (the interpreter, which runs it on the main machine, has room).
	t.Run("workers", func(t *testing.T) {
		db, err := Open(WithMemoryMB(96), WithExecJobs(2), WithBatch(true))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.LoadTPCH(2); err != nil {
			t.Fatal(err)
		}
		workers := obs.NewCounter("exec_workers")
		before := workers.Load()
		_, err = db.ExecWith("cranelift", sorted)
		wantOOM(t, "cranelift: sort of 120 000 rows on two 4 MiB arenas", err)
		if workers.Load() == before {
			t.Error("cranelift ran without workers")
		}
		for _, e := range []string{"interpreter", "cranelift"} {
			if _, err := db.ExecWith(e, strings.Replace(sorted, "ORDER", "WHERE l_quantity < 10 ORDER", 1)); err != nil {
				t.Errorf("%s after the trap: %v", e, err)
			}
		}
		if _, err := db.ExecWith("interpreter", sorted); err != nil {
			t.Errorf("interpreter, on the main machine: %v", err)
		}
	})

	// Outside any call.
	db, err := Open(WithMemoryMB(4))
	if err != nil {
		t.Fatal(err)
	}
	wantOOM(t, "loading sf 1 into 4 MiB", db.LoadTPCH(1))
	_, err = db.CreateTable("big", 1<<20, Column{Name: "v", Type: Int64})
	wantOOM(t, "an 8 MiB table in 4 MiB", err)
}
