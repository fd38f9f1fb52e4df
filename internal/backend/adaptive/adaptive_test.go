package adaptive

import (
	"testing"

	"qcc/internal/backend"
	"qcc/internal/qir"
	"qcc/internal/rt"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

// bigFunc builds a function over the size threshold: f(x) = x processed
// through a chain of overflow-checked operations.
func bigFunc(mod *qir.Module, name string, chain int) {
	b := qir.NewFunc(mod, name, qir.I64, qir.I64)
	v := b.Param(0)
	one := b.ConstInt(qir.I64, 1)
	for i := 0; i < chain; i++ {
		v = b.Bin(qir.OpSAddTrap, v, one)
	}
	b.Ret(v)
}

func TestPromotion(t *testing.T) {
	mod := qir.NewModule("t")
	bigFunc(mod, "hot", 60) // above SizeThreshold
	m := vm.New(vm.Config{Arch: vt.VX64, MemSize: 8 << 20})
	db := rt.NewDB(m)
	eng := New()
	ex, _, err := eng.Compile(mod, &backend.Env{DB: db, Arch: vt.VX64})
	if err != nil {
		t.Fatal(err)
	}
	x := ex.(*exec)
	for i := 0; i < 10; i++ {
		res, err := ex.Call(0, 5)
		if err != nil {
			t.Fatal(err)
		}
		if res[0] != 65 {
			t.Fatalf("call %d: got %d", i, res[0])
		}
	}
	if x.Promotions != 1 {
		t.Errorf("promotions = %d, want 1", x.Promotions)
	}
}

// TestHotnessWeightedPromotion pins the tier-promotion signal to executed
// instructions rather than call counts: promotion fires once the function's
// inclusive instruction total crosses HotThreshold, and the hotness counter
// stops growing after the switch (the optimized tier is not re-measured).
func TestHotnessWeightedPromotion(t *testing.T) {
	mod := qir.NewModule("t")
	bigFunc(mod, "hot", 60)
	m := vm.New(vm.Config{Arch: vt.VX64, MemSize: 8 << 20})
	db := rt.NewDB(m)
	eng := New()
	ex, _, err := eng.Compile(mod, &backend.Env{DB: db, Arch: vt.VX64})
	if err != nil {
		t.Fatal(err)
	}
	x := ex.(*exec)
	if _, err := ex.Call(0, 5); err != nil {
		t.Fatal(err)
	}
	per := x.hot[0]
	if per < 60 {
		t.Fatalf("one call accumulated %d instructions, want >= chain length", per)
	}
	calls := 1
	for x.Promotions == 0 && calls < 100 {
		if _, err := ex.Call(0, 5); err != nil {
			t.Fatal(err)
		}
		calls++
	}
	if x.Promotions != 1 {
		t.Fatalf("no promotion after %d calls (hotness %d)", calls, x.hot[0])
	}
	atPromo := x.hot[0]
	if atPromo < eng.HotThreshold {
		t.Fatalf("promoted at hotness %d < threshold %d", atPromo, eng.HotThreshold)
	}
	// The check runs before the call, so promotion fires on the first call
	// after the threshold is crossed.
	want := int(eng.HotThreshold/per) + 2
	if calls != want {
		t.Fatalf("promoted after %d calls, want %d (per-call cost %d)", calls, want, per)
	}
	if _, err := ex.Call(0, 5); err != nil {
		t.Fatal(err)
	}
	if x.hot[0] != atPromo {
		t.Fatalf("hotness advanced after promotion: %d -> %d", atPromo, x.hot[0])
	}
}

func TestNoPromotionForSmallFunctions(t *testing.T) {
	mod := qir.NewModule("t")
	bigFunc(mod, "cold", 3) // below SizeThreshold
	m := vm.New(vm.Config{Arch: vt.VX64, MemSize: 8 << 20})
	db := rt.NewDB(m)
	ex, _, err := New().Compile(mod, &backend.Env{DB: db, Arch: vt.VX64})
	if err != nil {
		t.Fatal(err)
	}
	x := ex.(*exec)
	for i := 0; i < 10; i++ {
		if _, err := ex.Call(0, 5); err != nil {
			t.Fatal(err)
		}
	}
	if x.Promotions != 0 {
		t.Errorf("promotions = %d, want 0", x.Promotions)
	}
}
