package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	tr := New(Options{})
	a := tr.Begin("Compile")
	b := tr.BeginCat("ISel", "phase")
	c := tr.BeginCat("Encoder", "pass")
	c.End()
	b.End()
	d := tr.Begin("RegAlloc")
	d.End()
	a.End()

	snap := tr.Snapshot("test")
	if len(snap.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(snap.Spans))
	}
	want := []struct {
		name   string
		parent int32
		depth  int32
	}{
		{"Compile", -1, 0},
		{"ISel", 0, 1},
		{"Encoder", 1, 2},
		{"RegAlloc", 0, 1},
	}
	for i, w := range want {
		sp := snap.Spans[i]
		if sp.Name != w.name || sp.Parent != w.parent || sp.Depth != w.depth {
			t.Errorf("span %d = {%s parent=%d depth=%d}, want {%s parent=%d depth=%d}",
				i, sp.Name, sp.Parent, sp.Depth, w.name, w.parent, w.depth)
		}
		if sp.Dur < 0 {
			t.Errorf("span %d has negative duration", i)
		}
	}
	// The root must cover its children.
	if snap.Spans[0].Dur < snap.Spans[1].Dur+snap.Spans[3].Dur {
		t.Errorf("root shorter than children: %v < %v + %v",
			snap.Spans[0].Dur, snap.Spans[1].Dur, snap.Spans[3].Dur)
	}
}

func TestInterleavedSpans(t *testing.T) {
	// Out-of-order close (A begins, B begins, A ends, B ends) must not
	// corrupt the open stack: a span after both closes is a root again.
	tr := New(Options{})
	a := tr.Begin("A")
	b := tr.Begin("B")
	a.End()
	b.End()
	c := tr.Begin("C")
	c.End()
	snap := tr.Snapshot("test")
	if snap.Spans[2].Parent != -1 || snap.Spans[2].Depth != 0 {
		t.Errorf("span C = parent=%d depth=%d, want root", snap.Spans[2].Parent, snap.Spans[2].Depth)
	}
}

func TestDisabledTracerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := tr.Begin("x") // must not panic
	sp.End()
	tr.Add("c", 1)
	snap := tr.Snapshot("off")
	if len(snap.Spans) != 0 || len(snap.Counters) != 0 {
		t.Fatalf("nil tracer recorded state: %+v", snap)
	}
}

func TestDisabledSpanZeroAlloc(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.BeginCat("phase", "phase")
		tr.Add("counter", 1)
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates: %v allocs/op", allocs)
	}
}

func TestConcurrentCounters(t *testing.T) {
	tr := New(Options{})
	g := NewCounter("obs_test.concurrent")
	start := g.Load()
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < per; j++ {
				tr.Add("events", 1)
				g.Inc()
			}
		}()
	}
	wg.Wait()
	if got := tr.Snapshot("t").Counters["events"]; got != workers*per {
		t.Errorf("tracer counter = %d, want %d", got, workers*per)
	}
	if got := g.Load() - start; got != workers*per {
		t.Errorf("global counter = %d, want %d", got, workers*per)
	}
}

func TestCounterRegistryIdempotent(t *testing.T) {
	a := NewCounter("obs_test.idem")
	b := NewCounter("obs_test.idem")
	if a != b {
		t.Fatal("NewCounter returned distinct counters for one name")
	}
	a.Add(3)
	if GlobalCounters()["obs_test.idem"] < 3 {
		t.Fatal("global snapshot missing counter")
	}
}

func TestAllocTracking(t *testing.T) {
	tr := New(Options{Allocs: true})
	sp := tr.Begin("alloc-heavy")
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	_ = sink
	sp.End()
	snap := tr.Snapshot("t")
	if snap.Spans[0].AllocBytes < 64*4096 {
		t.Errorf("alloc bytes = %d, want >= %d", snap.Spans[0].AllocBytes, 64*4096)
	}
	if snap.Spans[0].AllocObjs < 64 {
		t.Errorf("alloc objs = %d, want >= 64", snap.Spans[0].AllocObjs)
	}
}

// TestChromeTraceGolden pins the Chrome trace-event output for a fixed
// snapshot, so the format stays loadable by Perfetto across refactors.
func TestChromeTraceGolden(t *testing.T) {
	tr := &Trace{
		Process: "LLVM cheap",
		Spans: []Span{
			{Name: "func:q1_scan", Cat: "func", Parent: -1, Depth: 0, Start: 0, Dur: 5000 * time.Nanosecond},
			{Name: "ISel", Cat: "phase", Parent: 0, Depth: 1, Start: 1000 * time.Nanosecond, Dur: 2500 * time.Nanosecond,
				AllocBytes: 2048, AllocObjs: 12},
		},
		Counters: map[string]int64{"dag_nodes": 42, "bundles": 7},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, tr); err != nil {
		t.Fatal(err)
	}
	const want = `{
 "traceEvents": [
  {
   "name": "process_name",
   "ph": "M",
   "ts": 0,
   "pid": 1,
   "tid": 1,
   "args": {
    "name": "LLVM cheap"
   }
  },
  {
   "name": "func:q1_scan",
   "cat": "func",
   "ph": "X",
   "ts": 0,
   "dur": 5,
   "pid": 1,
   "tid": 1
  },
  {
   "name": "ISel",
   "cat": "phase",
   "ph": "X",
   "ts": 1,
   "dur": 2.5,
   "pid": 1,
   "tid": 1,
   "args": {
    "alloc_bytes": 2048,
    "alloc_objs": 12
   }
  },
  {
   "name": "bundles",
   "ph": "C",
   "ts": 0,
   "pid": 1,
   "tid": 1,
   "args": {
    "value": 7
   }
  },
  {
   "name": "dag_nodes",
   "ph": "C",
   "ts": 0,
   "pid": 1,
   "tid": 1,
   "args": {
    "value": 42
   }
  }
 ],
 "displayTimeUnit": "ms"
}
`
	if got := buf.String(); got != want {
		t.Errorf("chrome trace mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestPrometheusExport(t *testing.T) {
	tr := &Trace{
		Process: "Cranelift",
		Spans: []Span{
			{Name: "ISel", Dur: 1500 * time.Microsecond},
			{Name: "ISel", Dur: 500 * time.Microsecond},
			{Name: "Emit", Dur: 250 * time.Microsecond, AllocBytes: 100, AllocObjs: 3},
		},
		Counters: map[string]int64{"spilled": 2},
	}
	var buf bytes.Buffer
	if err := tr.WritePrometheus(&buf, map[string]string{"arch": "vx64"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`qcc_span_seconds_total{arch="vx64",process="Cranelift",span="ISel"} 0.002`,
		`qcc_span_alloc_bytes_total{arch="vx64",process="Cranelift",span="Emit"} 100`,
		`qcc_events_total{arch="vx64",process="Cranelift",event="spilled"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q\ngot:\n%s", want, out)
		}
	}
}

func TestReportWrite(t *testing.T) {
	r := &Report{
		Arch: "vx64",
		Engines: []EngineReport{{
			Engine: "DirectEmit", Funcs: 3, CodeBytes: 1024, CompileNS: 50000,
			Phases: []PhaseReport{{Name: "Codegen", NS: 40000}},
		}},
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"schema": "qcc.obs.report/v2"`) {
		t.Errorf("schema tag missing:\n%s", out)
	}
	if !strings.Contains(out, `"code_bytes": 1024`) {
		t.Errorf("code_bytes missing:\n%s", out)
	}
}

func TestTotalByName(t *testing.T) {
	tr := &Trace{Spans: []Span{
		{Name: "A", Dur: time.Millisecond},
		{Name: "A", Dur: time.Millisecond},
		{Name: "B", Dur: time.Second},
	}}
	tot := tr.TotalByName()
	if tot["A"] != 2*time.Millisecond || tot["B"] != time.Second {
		t.Fatalf("rollup wrong: %v", tot)
	}
}
