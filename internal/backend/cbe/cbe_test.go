package cbe

import (
	"strings"
	"testing"

	"qcc/internal/vt"
)

// TestLexerRoundTrip checks the C lexer on representative generated text.
func TestLexer(t *testing.T) {
	src := `i64 v1; v1 = (i64)(v2 + -5LL); if (v1) goto L2; *(i32*)(v3 + 0LL) = v1;`
	toks, err := lexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	var negFound bool
	for _, tk := range toks {
		if tk.kind == tNumber && tk.num == -5 {
			negFound = true
		}
	}
	if !negFound {
		t.Error("negative literal not lexed")
	}
}

func TestParserStatements(t *testing.T) {
	src := `
void f(i64 v0, i64 v1) {
  i64 v2; i128 v3; f64 v4;
L0:;
  v2 = v0 + v1;
  v2 = (i64)((u64)v2 >> v1);
  v3 = __i128(v2, v2);
  v3 = rt7(v2, v3);
  v4 = __bitsf64(v2);
  *(i64*)(v2 + 8LL) = v1;
  v2 = *(i64*)(v2 + 0LL);
  if (v2) goto L1;
  goto L0;
L1:;
  v2 = v1 > 3LL;
  v2 = __select(v2, v0, v1);
  return v2;
}
`
	toks, err := lexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	fns, err := parseUnit(toks)
	if err != nil {
		t.Fatal(err)
	}
	if len(fns) != 1 || fns[0].name != "f" || len(fns[0].params) != 2 {
		t.Fatalf("parsed %+v", fns)
	}
	gf, err := gimplify(fns[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(gf.code) == 0 {
		t.Fatal("no TAC emitted")
	}
	// Optimizations must not break it.
	optimizeGimple(gf, vt.ForArch(vt.VX64))
}

func TestParserErrors(t *testing.T) {
	for _, bad := range []string{
		"void f( {",
		"void f() { v1 = ; }",
		"void f() { x = unknownfn(); }",
		"void f() { i64 v; v = *(badtype*)(v); }",
		"void f() { goto; }",
	} {
		toks, err := lexAll(bad)
		if err != nil {
			continue // lex error also acceptable
		}
		if _, err := parseUnit(toks); err == nil {
			// gimplify may catch what the parser accepts
			fns, _ := parseUnit(toks)
			ok := false
			for _, fn := range fns {
				if _, err := gimplify(fn); err != nil {
					ok = true
				}
			}
			if !ok {
				t.Errorf("no error for %q", bad)
			}
		}
	}
}

func TestOptimizerFoldsAndDCE(t *testing.T) {
	src := `
i64 g(i64 v0) {
  i64 v1; i64 v2; i64 v3; i64 v4;
  v1 = 6LL;
  v2 = 7LL;
  v3 = v1 * v2;
  v4 = v1 * v2;
  return v3;
}
`
	toks, _ := lexAll(src)
	fns, err := parseUnit(toks)
	if err != nil {
		t.Fatal(err)
	}
	gf, err := gimplify(fns[0])
	if err != nil {
		t.Fatal(err)
	}
	optimizeGimple(gf, vt.ForArch(vt.VX64))
	// v3 must be folded to 42; the duplicate v4 must be eliminated.
	found42 := false
	muls := 0
	for _, tc := range gf.code {
		if tc.op == gConst && tc.imm == 42 {
			found42 = true
		}
		if tc.op == gBin && tc.bin == bMul {
			muls++
		}
	}
	if !found42 {
		t.Error("constant folding did not produce 42")
	}
	if muls != 0 {
		t.Errorf("%d multiplications survive folding", muls)
	}
}

func TestMangle(t *testing.T) {
	if mangle("scan-all_p0_main") != "scan_all_p0_main" {
		t.Errorf("mangle = %q", mangle("scan-all_p0_main"))
	}
	if !strings.HasPrefix(mangle("9abc"), "_") {
		t.Errorf("leading digit not mangled: %q", mangle("9abc"))
	}
}
