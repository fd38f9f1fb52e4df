package rt

import (
	"math/big"
	"testing"
	"testing/quick"

	"qcc/internal/qir"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

func newDB(t *testing.T) *DB {
	t.Helper()
	m := vm.New(vm.Config{Arch: vt.VX64, MemSize: 16 << 20})
	return NewDB(m)
}

func toBig(a I128) *big.Int {
	v := new(big.Int).SetUint64(a.Hi)
	v.Lsh(v, 64)
	v.Or(v, new(big.Int).SetUint64(a.Lo))
	// interpret as signed 128-bit
	if a.IsNeg() {
		mod := new(big.Int).Lsh(big.NewInt(1), 128)
		v.Sub(v, mod)
	}
	return v
}

func fromBig(v *big.Int) I128 {
	mod := new(big.Int).Lsh(big.NewInt(1), 128)
	u := new(big.Int).Mod(v, mod)
	lo := new(big.Int).And(u, new(big.Int).SetUint64(^uint64(0)))
	hi := new(big.Int).Rsh(u, 64)
	return I128{Lo: lo.Uint64(), Hi: hi.Uint64()}
}

func TestI128AddSubMul(t *testing.T) {
	f := func(alo, ahi, blo, bhi uint64) bool {
		a := I128{Lo: alo, Hi: ahi}
		b := I128{Lo: blo, Hi: bhi}
		mod := new(big.Int).Lsh(big.NewInt(1), 128)
		sum := fromBig(new(big.Int).Mod(new(big.Int).Add(toBig(a), toBig(b)), mod))
		if a.Add(b) != sum {
			return false
		}
		diff := fromBig(new(big.Int).Sub(toBig(a), toBig(b)))
		if a.Sub(b) != diff {
			return false
		}
		prod := fromBig(new(big.Int).Mul(toBig(a), toBig(b)))
		return a.Mul(b) == prod
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestI128Div(t *testing.T) {
	f := func(alo, ahi, blo, bhi uint64) bool {
		a := I128{Lo: alo, Hi: ahi}
		b := I128{Lo: blo, Hi: bhi}
		if b.Lo == 0 && b.Hi == 0 {
			return true
		}
		want := fromBig(new(big.Int).Quo(toBig(a), toBig(b)))
		return a.Div(b) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Small-divisor cases (common for decimals).
	cases := [][2]int64{{100, 7}, {-100, 7}, {100, -7}, {-100, -7}, {0, 5}, {1 << 62, 3}}
	for _, c := range cases {
		a, b := I128FromInt64(c[0]), I128FromInt64(c[1])
		want := fromBig(new(big.Int).Quo(toBig(a), toBig(b)))
		if got := a.Div(b); got != want {
			t.Errorf("%d/%d = %+v want %+v", c[0], c[1], got, want)
		}
	}
}

func TestI128MulCheck(t *testing.T) {
	max128 := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 127), big.NewInt(1))
	min128 := new(big.Int).Neg(new(big.Int).Lsh(big.NewInt(1), 127))
	f := func(alo, ahi, blo, bhi uint64) bool {
		a := I128{Lo: alo, Hi: ahi}
		b := I128{Lo: blo, Hi: bhi}
		prod := new(big.Int).Mul(toBig(a), toBig(b))
		wantOv := prod.Cmp(max128) > 0 || prod.Cmp(min128) < 0
		got, ok := a.SMul(b)
		if ov := !ok; ov != wantOv {
			return false
		}
		if ok && got != fromBig(prod) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	// Also check small-value products, which quick rarely generates.
	for _, c := range [][2]int64{{3, 4}, {-3, 4}, {1 << 40, 1 << 40}, {0, 0}} {
		a, b := I128FromInt64(c[0]), I128FromInt64(c[1])
		got, ok := a.SMul(b)
		if !ok {
			t.Errorf("%d*%d unexpectedly overflowed", c[0], c[1])
			continue
		}
		want := fromBig(new(big.Int).Mul(toBig(a), toBig(b)))
		if got != want {
			t.Errorf("%d*%d = %+v want %+v", c[0], c[1], got, want)
		}
	}
}

func TestI128Cmp(t *testing.T) {
	f := func(alo, ahi, blo, bhi uint64) bool {
		a := I128{Lo: alo, Hi: ahi}
		b := I128{Lo: blo, Hi: bhi}
		return a.Cmp(b) == toBig(a).Cmp(toBig(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestI128DecString(t *testing.T) {
	cases := []struct {
		v    I128
		want string
	}{
		{I128{}, "0"},
		{I128FromInt64(42), "42"},
		{I128FromInt64(-42), "-42"},
		{I128{Lo: 0, Hi: 1}, "18446744073709551616"},
	}
	for _, c := range cases {
		if got := c.v.DecString(); got != c.want {
			t.Errorf("DecString(%+v) = %q, want %q", c.v, got, c.want)
		}
	}
	f := func(v int64) bool {
		return I128FromInt64(v).DecString() == big.NewInt(v).String()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringRoundTrip(t *testing.T) {
	db := newDB(t)
	cases := []string{"", "a", "hello", "exactly12byt", "thirteen chars", "a much longer string that certainly exceeds the inline buffer"}
	for _, s := range cases {
		lo, hi := db.InternString(s)
		got, err := db.LoadString(lo, hi)
		if err != nil {
			t.Fatalf("%q: %v", s, err)
		}
		if got != s {
			t.Errorf("roundtrip %q -> %q", s, got)
		}
	}
	// Interning is stable.
	lo1, hi1 := db.InternString("stable string value")
	lo2, hi2 := db.InternString("stable string value")
	if lo1 != lo2 || hi1 != hi2 {
		t.Error("interning not stable")
	}
}

func TestStringPrefixLayout(t *testing.T) {
	db := newDB(t)
	lo, _ := db.InternString("ABCDEFGHIJKLMNOP") // 16 chars, out of line
	// Byte 0-3: length 16; bytes 4-7: prefix "ABCD".
	if uint32(lo) != 16 {
		t.Errorf("length field = %d", uint32(lo))
	}
	if byte(lo>>32) != 'A' || byte(lo>>40) != 'B' || byte(lo>>48) != 'C' || byte(lo>>56) != 'D' {
		t.Errorf("prefix bytes wrong: %#x", lo)
	}
}

func TestLikeMatch(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_l_o", true},
		{"hello", "x%", false},
		{"hello", "%x%", false},
		{"hello", "", false},
		{"", "%", true},
		{"", "", true},
		{"abc", "a%b%c", true},
		{"ab", "a_b", false},
		{"mississippi", "%iss%ippi", true},
		{"mississippi", "%iss%issi", false},
	}
	for _, c := range cases {
		if got := likeMatch([]byte(c.s), []byte(c.p)); got != c.want {
			t.Errorf("like(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestJoinHashTable(t *testing.T) {
	db := newDB(t)
	h := db.htCreate(16, false)
	ht := db.handle(h).(*hashTable)
	// Insert 100 entries with hash = key%8 to force chains.
	type kv struct{ k, v uint64 }
	var items []kv
	for i := uint64(0); i < 100; i++ {
		items = append(items, kv{k: i, v: i * 10})
	}
	for _, it := range items {
		p := db.htInsert(ht, it.k%8)
		put64(db.M.Mem[p:], it.k)
		put64(db.M.Mem[p+8:], it.v)
	}
	db.htFinalize(ht)
	// Probe each key: walk chain comparing stored key.
	for _, it := range items {
		found := false
		for p := db.htLookup(ht, it.k%8); p != 0; p = le64(db.M.Mem[p-entryHeader:]) {
			if le64(db.M.Mem[p-8:]) != it.k%8 {
				continue
			}
			if le64(db.M.Mem[p:]) == it.k {
				if le64(db.M.Mem[p+8:]) != it.v {
					t.Fatalf("key %d has value %d", it.k, le64(db.M.Mem[p+8:]))
				}
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("key %d not found", it.k)
		}
	}
	// Lookup of an empty bucket after finalize with distinct hashes.
	h2 := db.htCreate(8, false)
	ht2 := db.handle(h2).(*hashTable)
	db.htInsert(ht2, 12345)
	db.htFinalize(ht2)
	if db.htLookup(ht2, 12345) == 0 {
		t.Error("present hash not found")
	}
}

func TestAggHashTableGrows(t *testing.T) {
	db := newDB(t)
	h := db.htCreate(8, true)
	ht := db.handle(h).(*hashTable)
	const n = 1000
	for i := uint64(0); i < n; i++ {
		hash := i * 0x9E3779B97F4A7C15
		// lookup-or-insert
		var p uint64
		for p = db.htLookup(ht, hash); p != 0; p = le64(db.M.Mem[p-entryHeader:]) {
			if le64(db.M.Mem[p-8:]) == hash {
				break
			}
		}
		if p == 0 {
			p = db.htInsert(ht, hash)
			put64(db.M.Mem[p:], 0)
		}
		put64(db.M.Mem[p:], le64(db.M.Mem[p:])+1)
	}
	if len(ht.entries) != n {
		t.Fatalf("%d entries, want %d", len(ht.entries), n)
	}
	// Re-probe: every entry counted once.
	for i := uint64(0); i < n; i++ {
		hash := i * 0x9E3779B97F4A7C15
		var p uint64
		for p = db.htLookup(ht, hash); p != 0; p = le64(db.M.Mem[p-entryHeader:]) {
			if le64(db.M.Mem[p-8:]) == hash {
				break
			}
		}
		if p == 0 {
			t.Fatalf("hash for %d missing", i)
		}
		if le64(db.M.Mem[p:]) != 1 {
			t.Fatalf("count for %d = %d", i, le64(db.M.Mem[p:]))
		}
	}
}

func TestVector(t *testing.T) {
	db := newDB(t)
	v := &vector{width: 8}
	for i := uint64(0); i < 500; i++ {
		slot := db.vecAppend(v)
		put64(db.M.Mem[slot:], i*3)
	}
	if v.count != 500 {
		t.Fatalf("count = %d", v.count)
	}
	for i := uint64(0); i < 500; i++ {
		if le64(db.M.Mem[v.base+i*8:]) != i*3 {
			t.Fatalf("slot %d corrupted after growth", i)
		}
	}
}

func TestSortI64(t *testing.T) {
	db := newDB(t)
	v := &vector{width: 16}
	vals := []int64{5, -2, 9, 0, 3, -7, 9}
	for i, x := range vals {
		slot := db.vecAppend(v)
		put64(db.M.Mem[slot:], uint64(x))
		put64(db.M.Mem[slot+8:], uint64(i)) // tag
	}
	if err := db.sortVec(v, 0, false, 0, false); err != nil {
		t.Fatal(err)
	}
	prev := int64(-1 << 62)
	for i := uint64(0); i < v.count; i++ {
		x := int64(le64(db.M.Mem[v.base+i*16:]))
		if x < prev {
			t.Fatalf("not sorted at %d: %d < %d", i, x, prev)
		}
		prev = x
	}
	if err := db.sortVec(v, 0, false, 0, true); err != nil {
		t.Fatal(err)
	}
	if int64(le64(db.M.Mem[v.base:])) != 9 {
		t.Error("descending sort wrong")
	}
}

func TestOutBufferCanonical(t *testing.T) {
	o := &OutBuffer{}
	o.BeginRow()
	o.AddI64(2)
	o.AddStr("b")
	o.EndRow()
	o.BeginRow()
	o.AddI64(1)
	o.AddStr("a")
	o.EndRow()
	lines := o.Canonical()
	if len(lines) != 2 || lines[0] != "1|a" || lines[1] != "2|b" {
		t.Errorf("canonical = %v", lines)
	}
	o.Reset()
	if o.NumRows() != 0 {
		t.Error("reset failed")
	}
}

func TestCatalogStorage(t *testing.T) {
	db := newDB(t)
	cat := NewCatalog(db)
	tbl := cat.CreateTable("t", 3,
		ColSpec{"a", qir.I32}, ColSpec{"b", qir.I64},
		ColSpec{"c", qir.Str}, ColSpec{"d", qir.I128}, ColSpec{"e", qir.F64})
	for i := int64(0); i < 3; i++ {
		cat.SetInt(tbl.MustCol("a"), i, -i*100)
		cat.SetInt(tbl.MustCol("b"), i, i<<40)
		cat.SetStr(tbl.MustCol("c"), i, "row with a long string body here")
		cat.SetI128(tbl.MustCol("d"), i, I128FromInt64(i*7))
		cat.SetF64(tbl.MustCol("e"), i, float64(i)*1.5)
	}
	for i := int64(0); i < 3; i++ {
		if cat.GetInt(tbl.MustCol("a"), i) != -i*100 {
			t.Error("i32 column")
		}
		if cat.GetInt(tbl.MustCol("b"), i) != i<<40 {
			t.Error("i64 column")
		}
		s, err := cat.GetStr(tbl.MustCol("c"), i)
		if err != nil || s != "row with a long string body here" {
			t.Error("str column")
		}
		if cat.GetI128(tbl.MustCol("d"), i) != I128FromInt64(i*7) {
			t.Error("i128 column")
		}
		if cat.GetF64(tbl.MustCol("e"), i) != float64(i)*1.5 {
			t.Error("f64 column")
		}
	}
	if _, err := tbl.Col("nope"); err == nil {
		t.Error("expected missing-column error")
	}
	if _, err := cat.Table("nope"); err == nil {
		t.Error("expected missing-table error")
	}
}

func TestBindUnknownName(t *testing.T) {
	db := newDB(t)
	if err := db.Bind([]string{"no_such_fn"}); err == nil {
		t.Error("expected unknown runtime function error")
	}
	if err := db.Bind([]string{FnAlloc, FnStrEq, FnI128Div}); err != nil {
		t.Errorf("bind known names: %v", err)
	}
	if len(db.M.RT) != 3 {
		t.Error("RT table not installed")
	}
}

func TestCmpBytes(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"a", "a", 0}, {"a", "b", -1}, {"b", "a", 1},
		{"ab", "a", 1}, {"a", "ab", -1}, {"", "", 0},
	}
	for _, c := range cases {
		if got := cmpBytes([]byte(c.a), []byte(c.b)); got != c.want {
			t.Errorf("cmp(%q,%q) = %d", c.a, c.b, got)
		}
	}
}

// TestAggChainAcyclicAfterGrowth is the regression test for the self-cycle
// bug: probing a missing hash after growth must terminate.
func TestAggChainAcyclicAfterGrowth(t *testing.T) {
	db := newDB(t)
	h := db.htCreate(8, true)
	ht := db.handle(h).(*hashTable)
	for i := uint64(0); i < 500; i++ {
		db.htInsert(ht, i*0x9E3779B97F4A7C15)
	}
	// Probe every bucket with a hash that is not present; chains must be
	// finite.
	for probe := uint64(0); probe < 1024; probe++ {
		steps := 0
		for p := db.htLookup(ht, probe); p != 0; p = le64(db.M.Mem[p-entryHeader:]) {
			steps++
			if steps > 10000 {
				t.Fatalf("cyclic chain for probe %d", probe)
			}
		}
	}
}

// TestReleaseToForgetsStringsAboveMark: unwinding the heap must not leave the
// intern map handing out freed addresses; strings interned below the mark
// keep theirs.
func TestReleaseToForgetsStringsAboveMark(t *testing.T) {
	db := newDB(t)
	const below, above = "interned before the mark", "interned during the execution"
	lo0, hi0 := db.InternString(below)
	mark := db.M.HeapMark()
	db.InternString(above)
	db.InternString("short") // inline, no heap body
	db.M.Alloc(4096)         // execution state
	db.ReleaseTo(mark)
	if got := db.M.HeapMark(); got != mark {
		t.Fatalf("heap at %d after release, mark %d", got, mark)
	}
	if lo, hi := db.InternString(below); lo != lo0 || hi != hi0 {
		t.Errorf("string below the mark moved: %#x/%#x, was %#x/%#x", lo, hi, lo0, hi0)
	}
	// Whatever reuses the freed bytes must not alias a re-interned string.
	scribble := db.M.Alloc(64)
	for i := uint64(0); i < 64; i++ {
		db.M.Mem[scribble+i] = 0xEE
	}
	lo, hi := db.InternString(above)
	if s, err := db.LoadString(lo, hi); err != nil || s != above {
		t.Errorf("re-interned string reads %q, %v", s, err)
	}
}

// TestStringCallsDoNotAllocate: the string runtime calls generated code makes
// per row — equality, ordering, LIKE, hashing, and the batch evaluator's
// copies of the first and last — unpack inline strings into a buffer on their
// own stack and read long ones in place, so none of them allocates.
func TestStringCallsDoNotAllocate(t *testing.T) {
	db := newDB(t)
	type str struct{ lo, hi uint64 }
	mk := func(s string) str { lo, hi := db.InternString(s); return str{lo, hi} }
	short, short2, pat := mk("exactly12byt"), mk("exactly12byu"), mk("exact%")
	long, long2 := mk("a string long enough to live in machine memory"), mk("a string long enough to live in machine memorz")
	for _, name := range []string{FnStrEq, FnStrCmp, FnStrLike, FnStrHash} {
		fn := db.impl(name)
		for _, args := range [][2]str{{short, short2}, {short, pat}, {long, long2}, {long, short}} {
			if n := testing.AllocsPerRun(50, func() {
				for i, v := range []uint64{args[0].lo, args[0].hi, args[1].lo, args[1].hi} {
					db.M.R[db.target.IntArgs[i]] = v
				}
				if err := fn(db.M); err != nil {
					t.Fatal(err)
				}
			}); n != 0 {
				t.Errorf("%s: %v allocations per call, want 0", name, n)
			}
		}
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := db.strEqVals(short.lo, short.hi, short2.lo, short2.hi); err != nil {
			t.Fatal(err)
		}
		if _, err := db.batchStrHash(short.lo, short.hi); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("batch string compare + hash: %v allocations, want 0", n)
	}
}
