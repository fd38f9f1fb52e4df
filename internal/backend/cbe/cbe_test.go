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

// TestAssembleRejectsMalformedLines feeds the assembler one malformed line
// each, on both targets: every one must come back as an error naming its
// line, neither a panic nor silently wrong code.
func TestAssembleRejectsMalformedLines(t *testing.T) {
	lines := []string{
		"fmov r1",           // too few operands
		"ld64 r1, r2",       // missing displacement
		"set eq r1 r2",      // missing second source
		"add r1, rX, r2",    // bad register
		"add r1, r1, r99",   // register the target does not have
		"fadd r1, r1, f2",   // wrong register file
		"movrf f0, f1",      // wrong register file
		"mulw r1, r2, r3",   // too few operands
		"set xx r1, r1, r2", // bad condition
		"st64 r1, x, r2",    // bad displacement
		"frob r1",           // unknown mnemonic
		"movsym r1",         // missing symbol
		"trapnz r1, 3, 4",   // too many operands
	}
	for _, arch := range []vt.Arch{vt.VX64, vt.VA64} {
		for _, line := range lines {
			_, err := assemble(".func f\n"+line+"\n.endfunc\n", arch)
			if err == nil || !strings.Contains(err.Error(), "line 2 ") {
				t.Errorf("%v: %q: want an error at line 2, got %v", arch, line, err)
			}
		}
	}
}

// FuzzAssemble runs arbitrary text through the assembler on both targets,
// from a corpus of the compiler's own output for TPC-H functions: no panic,
// and every function it accepts decodes.
func FuzzAssemble(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		for _, arch := range []vt.Arch{vt.VX64, vt.VA64} {
			fns, err := assemble(text, arch)
			if err != nil {
				continue
			}
			for _, fn := range fns {
				if _, err := vt.Decode(arch, fn.code); err != nil {
					t.Fatalf("%v: %s assembled into code that does not decode: %v", arch, fn.name, err)
				}
			}
		}
	})
}
