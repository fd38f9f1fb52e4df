package qc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"qcc/internal/engine"
	"qcc/internal/obs"
)

// codeTable creates table name on db with the columns of shapeTable, room for
// rows rows, and fills the first filled of them.
func codeTable(db *DB, name string, rows, filled, seed int64) (*Table, error) {
	t, err := db.CreateTable(name, rows, Column{"a", Int32}, Column{"b", Int64}, Column{"f", Float},
		Column{"s", Text}, Column{"d", Decimal})
	if err != nil {
		return nil, err
	}
	return t, fillShapeTable(t, filled, seed)
}

// conjunction joins n predicates "col op v" for v from first up, with the
// value at position at replaced by other when at >= 0.
func conjunction(col, op string, first, n, at, other int) string {
	preds := make([]string, n)
	for i := range preds {
		v := first + i
		if i == at {
			v = other
		}
		preds[i] = fmt.Sprintf("%s %s %d", col, op, v)
	}
	return strings.Join(preds, " AND ")
}

// TestCodeCacheHazards runs statements through a database with a code cache,
// one without, where every statement compiles, and the interpreter. Each
// must return the same rows from all three, and the cached database's code
// level must hit, miss or not be asked (the statement was a program hit) as
// stated. Code is keyed by what it was generated from, so the hazards are
// what the code has compiled in without the plan key showing it the same
// way: a scanned table's addresses and row count, the number of pool slots
// kernels take ahead of the hoisted ones, a literal kept inline, the engine
// and the options that change code. It runs on the benchmark's sql_adhoc
// engines, sequentially and at 4 workers.
func TestCodeCacheHazards(t *testing.T) {
	counters := map[string]*obs.Counter{
		"hit": obs.NewCounter("engine.code_cache_hits"), "miss": obs.NewCounter("engine.code_cache_misses"),
		"decline": obs.NewCounter("engine.code_cache_declines"),
	}
	const sumB = "SELECT COUNT(*), SUM(b) FROM "
	having := func(where string, min int) string {
		return fmt.Sprintf("SELECT a, SUM(b) AS sb FROM t WHERE %s GROUP BY a HAVING sb > %d", where, min)
	}
	// 300 literals in one kernel filter: the pool takes 256, the kernel
	// holds the rest by value. In a HAVING they are tuple code: 256 are
	// hoisted, the rest kept inline.
	kernelMany := func(at, other int) string {
		return "SELECT COUNT(*) FROM t WHERE " + conjunction("b", "<>", 100000, 300, at, other)
	}
	tupleMany := func(at, other int) string {
		return "SELECT a, SUM(b) AS sb FROM t GROUP BY a HAVING " + conjunction("sb", "<>", 100000, 300, at, other)
	}
	tables := map[*DB]*Table{}
	for _, jobs := range []int{1, 4} {
		for ei, eng := range adhocEngines {
			other := adhocEngines[(ei+1)%len(adhocEngines)]
			dbs := make([]*DB, 3) // cached, uncached, interpreter
			for i, opts := range [][]Option{{WithEngine(eng), WithCacheMB(64)}, {WithEngine(eng)}, {WithEngine("interpreter")}} {
				db, err := Open(append(opts, WithMemoryMB(64), WithExecJobs(jobs))...)
				if err != nil {
					t.Fatal(err)
				}
				dbs[i] = db
			}
			create := func(name string, rows, filled, seed int64) func(*DB) error {
				return func(d *DB) (err error) {
					tbl, err := codeTable(d, name, rows, filled, seed)
					if name == "t" {
						tables[d] = tbl
					}
					return err
				}
			}
			steps := []struct {
				name   string
				setup  func(*DB) error // on every database, before the statement
				engine string          // "" for the database's own
				set    func(*engine.Options)
				q      string
				want   string // what the cached database's code level does, "" for nothing
			}{
				// u has t's schema and row count, other content at other
				// addresses. (The
				// analysis sees every table, so code keys change with the
				// set of tables.)
				{name: "first", setup: func(d *DB) error {
					if err := create("t", 200, 100, 1)(d); err != nil {
						return err
					}
					return create("u", 200, 100, 2)(d)
				}, q: sumB + "t WHERE a < 5", want: "miss"},
				{name: "another kernel", q: sumB + "t WHERE b > 5000", want: "hit"},
				{name: "its variant", q: sumB + "t WHERE b > 7000"},
				{name: "another table", q: sumB + "u WHERE b > 5000", want: "miss"},
				{name: "another table, another kernel", q: sumB + "u WHERE a > 3", want: "hit"},
				// A scan into a sort is tuple code, which loads the columns.
				{name: "tuple scan", q: "SELECT a, b FROM t WHERE b > 5000 ORDER BY b, a LIMIT 3", want: "miss"},
				{name: "tuple scan, another table", q: "SELECT a, b FROM u WHERE b > 5000 ORDER BY b, a LIMIT 3", want: "miss"},
				// Appending fills rows the table has room for: its row count
				// and addresses, which the code has compiled in, stay.
				{name: "rows appended", setup: func(d *DB) error { return fillShapeTable(tables[d], 100, 1) },
					q: sumB + "t WHERE b < 9000", want: "hit"},
				{name: "re-created", setup: create("t", 200, 200, 3), q: sumB + "t WHERE b > 6000", want: "miss"},
				// A HAVING literal is tuple code, hoisted to the slot after
				// the kernel's: one kernel literal, then two, then two others.
				{name: "tuple literal", q: having("b > 5", 9000), want: "miss"},
				{name: "tuple literal, one more kernel literal", q: having("b > 9 AND f < 0.5", 9000), want: "miss"},
				{name: "tuple literal, other kernel literals", q: having("b < 18000 AND a > 2", 12000), want: "hit"},
				{name: "kernel literals kept inline", q: kernelMany(-1, 0), want: "miss"},
				{name: "a pooled kernel literal changed", q: kernelMany(0, 7)},
				{name: "an inline kernel literal changed", q: kernelMany(299, 7), want: "hit"},
				{name: "tuple literals kept inline", q: tupleMany(-1, 0), want: "miss"},
				{name: "a pooled tuple literal changed", q: tupleMany(0, 7)},
				// Code that keeps a literal inline is its plan's own.
				{name: "an inline tuple literal changed", q: tupleMany(299, 7), want: "miss"},
				{name: "another engine", engine: other, q: sumB + "t WHERE b > 5000", want: "miss"},
				{name: "another engine, another kernel", engine: other, q: sumB + "t WHERE a > 4", want: "hit"},
				{name: "Check", set: func(o *engine.Options) { o.Check = true }, q: sumB + "t WHERE s = 'x1-3'", want: "miss"},
				{name: "Check, another kernel", set: func(o *engine.Options) { o.Check = true }, q: sumB + "t WHERE d < 2.5", want: "hit"},
				{name: "ExecJobs", set: func(o *engine.Options) { o.ExecJobs = 5 - jobs }, q: sumB + "t WHERE s = 'x2-5'", want: "miss"},
				{name: "first engine, another kernel", q: sumB + "t WHERE s = 'x3-9'", want: "hit"},
			}
			for _, s := range steps {
				name := fmt.Sprintf("%s at %d workers, %s", eng, jobs, s.name)
				if s.setup != nil {
					for _, d := range dbs {
						if err := s.setup(d); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					}
				}
				cached := dbs[0]
				saved := cached.w.Options
				if s.set != nil {
					s.set(&cached.w.Options)
				}
				before := map[string]int64{}
				for k, c := range counters {
					before[k] = c.Load()
				}
				e := s.engine
				if e == "" {
					e = eng
				}
				got, err := cached.ExecWith(e, s.q)
				cached.w.Options = saved
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for k, c := range counters {
					if d := c.Load() - before[k]; d != map[bool]int64{true: 1}[k == s.want] {
						t.Errorf("%s: %d code-level %ss, want %q", name, d, k, s.want)
					}
				}
				want, err := dbs[1].ExecWith(e, s.q)
				if err != nil {
					t.Fatalf("%s: uncached: %v", name, err)
				}
				ref, err := dbs[2].Exec(s.q)
				if err != nil {
					t.Fatalf("%s: interpreter: %v", name, err)
				}
				if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Rows, ref.Rows) {
					t.Errorf("%s: rows %v, uncached %v, interpreter %v", name, got.Rows, want.Rows, ref.Rows)
				}
			}
		}
	}
}
