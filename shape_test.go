package qc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"qcc/internal/obs"
)

// shapeTable creates table t on db with room for rows rows and fills the
// first filled of them.
func shapeTable(db *DB, rows, filled int64, seed int64) (*Table, error) {
	t, err := db.CreateTable("t", rows, Column{"a", Int32}, Column{"b", Int64}, Column{"f", Float},
		Column{"s", Text}, Column{"d", Decimal})
	if err != nil {
		return nil, err
	}
	return t, fillShapeTable(t, filled, seed)
}

// fillShapeTable appends n rows to t, each column a function of the row
// number and seed.
func fillShapeTable(t *Table, n, seed int64) error {
	for k := int64(0); k < n; k++ {
		i := t.row
		v := (i*7 + seed) % 23
		if err := t.Append(v, v*1000+i, 1/float64(i+3), fmt.Sprintf("x%d-%d", v%4, i), DecFromInt(v*25)); err != nil {
			return err
		}
	}
	return nil
}

// TestShapeCacheHazards runs statements through a database with a code
// cache and through one without (WithCacheMB(0), the default), where every
// statement is parsed. Each must return the same columns and rows from both,
// and the cached database's statement-shape level must hit, miss or decline
// as stated: it declines whenever binding the statement cannot reproduce its
// parse — a table re-created, a literal that no longer fits the type the
// parser chose, a pinned literal that differs, a program the engine has not
// compiled.
func TestShapeCacheHazards(t *testing.T) {
	cached, err := Open(WithCacheMB(64), WithMemoryMB(64), WithEngine("directemit"))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Open(WithMemoryMB(64), WithEngine("directemit"))
	if err != nil {
		t.Fatal(err)
	}
	counters := map[string]*obs.Counter{
		"hit": obs.NewCounter("engine.shape_cache_hits"), "miss": obs.NewCounter("engine.shape_cache_misses"),
		"decline": obs.NewCounter("engine.shape_cache_declines"),
	}
	pinned := obs.NewCounter("engine.program_cache_pinned_mismatch")
	var conj []string
	for i := 0; i < 300; i++ {
		conj = append(conj, fmt.Sprintf("b <> %d", 100000+i))
	}
	many := "SELECT COUNT(*) FROM t WHERE " + strings.Join(conj, " AND ")
	manyOther := strings.Replace(many, "b <> 100299", "b <> 100300", 1)

	tables := map[*DB]*Table{}
	create := func(rows, filled, seed int64) func(*DB) error {
		return func(d *DB) (err error) {
			tables[d], err = shapeTable(d, rows, filled, seed)
			return err
		}
	}
	steps := []struct {
		name   string
		setup  func(*DB) error // on both databases, before the statement
		engine string          // "" for the default
		q      string
		want   string // what the shape level does on the cached database
	}{
		{name: "first", setup: create(200, 100, 1),
			q: "SELECT COUNT(*), SUM(b) FROM t WHERE a < 5", want: "miss"},
		{name: "variant", q: "SELECT COUNT(*), SUM(b) FROM t WHERE a < 7", want: "hit"},
		{name: "keyword case and whitespace", q: "select  count(*),sum(b)\n\tfrom t where a<9", want: "hit"},
		{name: "literal stops fitting", q: "SELECT COUNT(*), SUM(b) FROM t WHERE a < 5000000000", want: "decline"},
		// The shape now holds the plan that casts a to I64; one entry per key.
		{name: "literal fits again", q: "SELECT COUNT(*), SUM(b) FROM t WHERE a < 6", want: "decline"},
		{name: "fits, again", q: "SELECT COUNT(*), SUM(b) FROM t WHERE a < 7", want: "hit"},
		// Appending writes rows the table has room for: its row count, which
		// the code has compiled in, stays.
		{name: "rows appended", setup: func(d *DB) error { return fillShapeTable(tables[d], 100, 1) },
			q: "SELECT COUNT(*), SUM(b) FROM t WHERE a < 8", want: "hit"},
		{name: "re-created with more rows", setup: create(300, 300, 5),
			q: "SELECT COUNT(*), SUM(b) FROM t WHERE a < 9", want: "decline"},
		{name: "limit", q: "SELECT a, b FROM t ORDER BY b, a LIMIT 3", want: "miss"},
		{name: "limit changed", q: "SELECT a, b FROM t ORDER BY b, a LIMIT 4", want: "miss"},
		{name: "limit repeated", q: "SELECT a, b FROM t ORDER BY b, a LIMIT 4", want: "hit"},
		{name: "like", q: "SELECT COUNT(*) FROM t WHERE s LIKE 'x1%'", want: "miss"},
		{name: "like changed", q: "SELECT COUNT(*) FROM t WHERE s LIKE 'x2-1%'", want: "hit"},
		{name: "unary minus", q: "SELECT COUNT(*) FROM t WHERE b - 5000 > -100", want: "miss"},
		{name: "unary minus variant", q: "SELECT COUNT(*) FROM t WHERE b - 5000 > - 2000", want: "hit"},
		{name: "float literal", q: "SELECT COUNT(*) FROM t WHERE f < 0.05 AND f > -0.5", want: "miss"},
		{name: "float literal variant", q: "SELECT COUNT(*) FROM t WHERE f < 0.0123 AND f > -0.25", want: "hit"},
		{name: "decimal literal", q: "SELECT COUNT(*), SUM(d) FROM t WHERE d < 2.5", want: "miss"},
		{name: "decimal literal variant", q: "SELECT COUNT(*), SUM(d) FROM t WHERE d < 3.25", want: "hit"},
		{name: "aliases", q: "SELECT a AS k, COUNT(*) AS n FROM t WHERE b > 10 GROUP BY a", want: "miss"},
		{name: "aliases variant", q: "SELECT a AS k, COUNT(*) AS n FROM t WHERE b > 20 GROUP BY a", want: "hit"},
		{name: "pooled literals overflow", q: many, want: "miss"},
		{name: "overflow repeated", q: many, want: "hit"},
		{name: "overflow, another pinned literal", q: manyOther, want: "decline"},
		{name: "second engine", engine: "cranelift", q: "SELECT COUNT(*), SUM(b) FROM t WHERE a < 4", want: "decline"},
		{name: "second engine variant", engine: "cranelift", q: "SELECT COUNT(*), SUM(b) FROM t WHERE a < 3", want: "hit"},
		{name: "first engine variant", q: "SELECT COUNT(*), SUM(b) FROM t WHERE a < 2", want: "hit"},
	}
	for _, s := range steps {
		if s.setup != nil {
			for _, d := range []*DB{cached, plain} {
				if err := s.setup(d); err != nil {
					t.Fatalf("%s: %v", s.name, err)
				}
			}
		}
		eng := s.engine
		if eng == "" {
			eng = "directemit"
		}
		before := map[string]int64{}
		for k, c := range counters {
			before[k] = c.Load()
		}
		pinned0 := pinned.Load()
		got, err := cached.ExecWith(eng, s.q)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		want, err := plain.ExecWith(eng, s.q)
		if err != nil {
			t.Fatalf("%s: uncached: %v", s.name, err)
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Errorf("%s: columns %v rows %v, uncached %v %v", s.name, got.Columns, got.Rows, want.Columns, want.Rows)
		}
		for k, c := range counters {
			if d := c.Load() - before[k]; d != map[bool]int64{true: 1}[k == s.want] {
				t.Errorf("%s: %d shape-level %ss, want the statement to be a %s", s.name, d, k, s.want)
			}
		}
		if strings.Contains(s.name, "pinned") && pinned.Load() == pinned0 {
			t.Errorf("%s: declined without a pinned-literal mismatch", s.name)
		}
	}
}

// TestCompileTimeIsTextToExecutable: Stats.CompileTime is one quantity on
// every path a statement takes — a compile, a shape hit, a code hit, and a
// shape decline that ends in a compile or in a program hit, with a cache and
// without, with batch kernels and without. It lies inside the
// latency the caller sees, beside ExecTime, and holds the back-end phases it
// reports.
func TestCompileTimeIsTextToExecutable(t *testing.T) {
	q := func(lit string) string { return "SELECT COUNT(*), SUM(b) FROM t WHERE a < " + lit }
	declines := obs.NewCounter("engine.shape_cache_declines")
	codeHits := obs.NewCounter("engine.code_cache_hits")
	// What each statement must be on a cached database: a program hit, a
	// code hit, a shape-level decline. The cast a plan needs for a literal
	// that does not fit a's type changes its code; the last statement's plan
	// differs from the first's in its kernel only, so with batch kernels it
	// is a code hit, where tuple code compiles.
	type want struct{ hit, code, decline bool }
	steps := []struct {
		name string
		q    string
		want want
	}{
		{"miss", q("5"), want{}},
		{"shape hit", q("6"), want{hit: true}},
		{"decline, compiled", q("5000000000"), want{decline: true}},
		{"decline, program hit", q("7"), want{hit: true, decline: true}},
		{"code hit", "SELECT COUNT(*), SUM(b) FROM t WHERE b > 5", want{code: true}},
	}
	for _, engine := range adhocEngines {
		for _, batch := range []bool{true, false} {
			for _, cacheMB := range []int{64, 0} {
				db, err := Open(WithCacheMB(cacheMB), WithMemoryMB(64), WithEngine(engine), WithBatch(batch))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := shapeTable(db, 200, 200, 1); err != nil {
					t.Fatal(err)
				}
				for i, s := range steps {
					declines0, codeHits0 := declines.Load(), codeHits.Load()
					start := time.Now()
					res, err := db.Exec(s.q)
					lat := time.Since(start)
					if err != nil {
						t.Fatalf("%s %s: %v", engine, s.name, err)
					}
					st := res.Stats
					var phases time.Duration
					for _, d := range st.Phases {
						phases += d
					}
					name := fmt.Sprintf("%s, batch %v, cache %d MiB, statement %d (%s)", engine, batch, cacheMB, i, s.name)
					if st.CompileTime <= 0 || st.CompileTime+st.ExecTime > lat {
						t.Errorf("%s: compile %v + exec %v, latency %v", name, st.CompileTime, st.ExecTime, lat)
					}
					if phases > st.CompileTime {
						t.Errorf("%s: phases sum to %v, more than compile time %v", name, phases, st.CompileTime)
					}
					w := s.want
					w.code = w.code && batch
					if cacheMB == 0 {
						w = want{}
					}
					got := want{st.ProgramHit, codeHits.Load() > codeHits0, declines.Load() > declines0}
					if got != w {
						t.Errorf("%s: program hit, code hit, shape-level decline %+v, want %+v", name, got, w)
					}
					if (w.hit || w.code) && (st.CacheMisses != 0 || st.CacheHits != int64(st.Functions) || len(st.Phases) != 0) {
						t.Errorf("%s: served from the cache, but reports %d unit misses, %d hits of %d functions and phases %v",
							name, st.CacheMisses, st.CacheHits, st.Functions, st.Phases)
					}
				}
			}
		}
	}
}
