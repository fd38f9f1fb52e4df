package prof

import (
	"bytes"
	"compress/gzip"
	"io"
	"strings"
	"testing"

	"qcc/internal/qir"
	"qcc/internal/vm"
	"qcc/internal/vt"
)

func sampleProfile() *Profile {
	return &Profile{
		Schema: Schema, Arch: "vx64", Query: "q1", Period: 1024, Samples: 100,
		Unattributed: 5,
		Funcs: []FuncProfile{
			{FuncProv: FuncProv{Name: "q1_p0_main", Pipeline: 0, Operator: "scan(lineitem) > groupby", Role: "main"},
				Samples: 80, Offsets: []OffsetCount{{Off: 0x10, Samples: 50}, {Off: 0x40, Samples: 30}}},
			{FuncProv: FuncProv{Name: "q1_p1_main", Pipeline: 1, Operator: "groupby > sort", Role: "main"},
				Samples: 15, Offsets: []OffsetCount{{Off: 0x8, Samples: 15}}},
			{FuncProv: FuncProv{Name: "stub", Pipeline: -1}, Samples: 5},
		},
	}
}

func TestAttributionRate(t *testing.T) {
	p := sampleProfile()
	if r := p.AttributionRate(); r != 0.95 {
		t.Fatalf("rate = %v, want 0.95", r)
	}
	empty := &Profile{}
	if r := empty.AttributionRate(); r != 1 {
		t.Fatalf("empty rate = %v, want 1", r)
	}
}

func TestByOperatorAndTop(t *testing.T) {
	p := sampleProfile()
	ops := p.ByOperator()
	if ops["scan(lineitem) > groupby"] != 80 || ops["groupby > sort"] != 15 || ops["?"] != 5 {
		t.Fatalf("ByOperator = %v", ops)
	}
	var sb strings.Builder
	if err := p.WriteTop(&sb, 10); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "scan(lineitem) > groupby") || !strings.Contains(out, "80.00%") {
		t.Fatalf("top output:\n%s", out)
	}
	if !strings.Contains(out, "95.00% attributed") {
		t.Fatalf("missing attribution summary:\n%s", out)
	}
}

func TestMergeAndJSONRoundTrip(t *testing.T) {
	a, b := sampleProfile(), sampleProfile()
	a.Merge(b)
	if a.Samples != 200 || a.Unattributed != 10 {
		t.Fatalf("merged totals: samples=%d unattributed=%d", a.Samples, a.Unattributed)
	}
	if a.Funcs[0].Samples != 160 {
		t.Fatalf("merged hot func samples = %d, want 160", a.Funcs[0].Samples)
	}
	if a.Funcs[0].Offsets[0] != (OffsetCount{Off: 0x10, Samples: 100}) {
		t.Fatalf("merged offsets = %+v", a.Funcs[0].Offsets)
	}
	if a.Query != "q1" {
		t.Fatalf("same-query merge lost label: %q", a.Query)
	}

	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Samples != a.Samples || len(back.Funcs) != len(a.Funcs) {
		t.Fatalf("round trip mismatch: %+v", back)
	}

	if _, err := ReadJSON(strings.NewReader(`{"schema":"other/v9"}`)); err == nil {
		t.Fatal("ReadJSON accepted wrong schema")
	}
}

func TestMergeConflictClearsLabels(t *testing.T) {
	a, b := sampleProfile(), sampleProfile()
	b.Query = "q6"
	a.Merge(b)
	if a.Query != "" {
		t.Fatalf("cross-query merge kept label %q", a.Query)
	}
}

// TestPprofEncoding checks the hand-rolled encoder produces a valid gzip
// stream whose protobuf payload contains the expected string table entries
// and parses structurally (walks every top-level field).
func TestPprofEncoding(t *testing.T) {
	p := sampleProfile()
	var buf bytes.Buffer
	if err := p.WritePprof(&buf); err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		t.Fatalf("not gzip: %v", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte("vm_instructions")) {
		t.Fatal("missing sample type string")
	}
	if !bytes.Contains(raw, []byte("scan(lineitem) > groupby | q1_p0_main")) {
		t.Fatal("missing operator-labelled function name")
	}
	// Structural walk: every field must have a known wire type and
	// length-delimited fields must stay in bounds.
	pos := 0
	readVarint := func() uint64 {
		var v uint64
		var shift uint
		for {
			if pos >= len(raw) {
				t.Fatal("truncated varint")
			}
			c := raw[pos]
			pos++
			v |= uint64(c&0x7f) << shift
			if c < 0x80 {
				return v
			}
			shift += 7
		}
	}
	fields := map[int]int{}
	for pos < len(raw) {
		key := readVarint()
		field, wt := int(key>>3), int(key&7)
		switch wt {
		case 0:
			readVarint()
		case 2:
			n := int(readVarint())
			if pos+n > len(raw) {
				t.Fatalf("field %d overruns buffer", field)
			}
			pos += n
		default:
			t.Fatalf("unexpected wire type %d for field %d", wt, field)
		}
		fields[field]++
	}
	// 1=sample_type, 2=samples, 4=locations, 5=functions, 6=strings, 12=period.
	for _, f := range []int{1, 2, 4, 5, 6, 12} {
		if fields[f] == 0 {
			t.Fatalf("missing top-level field %d (have %v)", f, fields)
		}
	}
	// 2 offsets of q1_p0_main + 1 of q1_p1_main + offset-less stub + "?".
	if fields[2] != 5 {
		t.Fatalf("sample count = %d, want 5", fields[2])
	}
}

func TestChromeExport(t *testing.T) {
	p := sampleProfile()
	var sb strings.Builder
	if err := p.WriteChrome(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"traceEvents"`, "scan(lineitem) > groupby", "q1_p0_main", `"ph": "X"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome export missing %q:\n%s", want, out)
		}
	}
}

// TestCollectorSynthetic resolves hand-made samples against a synthetic
// range table: in-range offsets attribute through Func indices to
// provenance, stub ranges (Func = -1) and unmapped PCs count unattributed.
func TestCollectorSynthetic(t *testing.T) {
	qmod := qir.NewModule("t")
	f := qir.NewFunc(qmod, "t_p0_main", qir.Void)
	f.Ret(qir.NoValue)
	qmod.Funcs[0].Prov = qir.Prov{Pipeline: 0, Operator: "scan(x)", SQL: "FROM x", Role: "main"}

	prog := []byte{0} // minimal image; never executed
	vmod, err := vm.Load(vt.VX64, prog)
	if err != nil {
		t.Fatal(err)
	}
	vmod.RegisterUnwind([]vm.UnwindRange{
		{Start: 0, End: 64, Name: "t_p0_main", Func: 0},
		{Start: 64, End: 96, Name: "stub", Func: -1},
	})

	col := NewCollector(qmod)
	s := &vm.Sampler{Period: 100}
	for i := 0; i < 6; i++ {
		col.Hit(vmod, 8)
	}
	col.Hit(vmod, 70)  // stub: named range, no operator
	col.Hit(vmod, 200) // unmapped
	s.Samples = 8

	p := col.Profile("vx64", "t", s)
	if p.Samples != 8 || p.Unattributed != 2 {
		t.Fatalf("samples=%d unattributed=%d, want 8/2", p.Samples, p.Unattributed)
	}
	if p.Funcs[0].Name != "t_p0_main" || p.Funcs[0].Operator != "scan(x)" || p.Funcs[0].Samples != 6 {
		t.Fatalf("hot func = %+v", p.Funcs[0])
	}
	if r := p.AttributionRate(); r != 0.75 {
		t.Fatalf("rate = %v, want 0.75", r)
	}

	var sb strings.Builder
	if err := p.WriteAnnotated(&sb, qmod, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "t_p0_main: 6 samples") ||
		!strings.Contains(sb.String(), "; prov: pipeline=0 role=main op=scan(x)") {
		t.Fatalf("annotated output:\n%s", sb.String())
	}
}
