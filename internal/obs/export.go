package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// --------------------------------------------------------------------------
// Chrome trace-event JSON (chrome://tracing, Perfetto).
// --------------------------------------------------------------------------

// chromeEvent is one entry of the trace-event format. Complete events
// ("ph":"X") carry ts+dur; metadata events ("ph":"M") name processes;
// counter events ("ph":"C") render as counter tracks.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func usOf(d int64) float64 { return float64(d) / 1e3 } // ns -> µs

// WriteChrome writes one or more trace snapshots as a Chrome trace-event
// JSON document loadable in Perfetto or chrome://tracing. Each trace
// becomes its own process (pid = index+1) named after Trace.Process, so a
// multi-engine capture shows the engines side by side.
func WriteChrome(w io.Writer, traces ...*Trace) error {
	doc := chromeDoc{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for i, tr := range traces {
		pid := i + 1
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 1,
			Args: map[string]any{"name": tr.Process},
		})
		for _, sp := range tr.Spans {
			dur := usOf(int64(sp.Dur))
			tid := int(sp.Tid)
			if tid == 0 {
				tid = 1 // main compilation thread
			}
			ev := chromeEvent{
				Name: sp.Name, Cat: sp.Cat, Ph: "X",
				Ts: usOf(int64(sp.Start)), Dur: &dur, Pid: pid, Tid: tid,
			}
			if sp.AllocBytes != 0 || sp.AllocObjs != 0 {
				ev.Args = map[string]any{
					"alloc_bytes": sp.AllocBytes,
					"alloc_objs":  sp.AllocObjs,
				}
			}
			doc.TraceEvents = append(doc.TraceEvents, ev)
		}
		names := make([]string, 0, len(tr.Counters))
		for k := range tr.Counters {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: k, Ph: "C", Ts: 0, Pid: pid, Tid: 1,
				Args: map[string]any{"value": tr.Counters[k]},
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// --------------------------------------------------------------------------
// Prometheus text exposition.
// --------------------------------------------------------------------------

// promSanitize maps an arbitrary counter/span name onto the Prometheus
// label-value safe subset (we keep names as label values, not metric
// names, so only quoting matters).
func promEscape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func promLabels(base map[string]string, extra ...string) string {
	keys := make([]string, 0, len(base))
	for k := range base {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	emit := func(k, v string) {
		if !first {
			sb.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&sb, `%s="%s"`, k, promEscape(v))
	}
	for _, k := range keys {
		emit(k, base[k])
	}
	for i := 0; i+1 < len(extra); i += 2 {
		emit(extra[i], extra[i+1])
	}
	sb.WriteByte('}')
	return sb.String()
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format: per-span-name duration totals, per-span-name allocation totals
// (when captured), and the trace counters. labels are attached to every
// sample (e.g. engine, arch, query).
func (tr *Trace) WritePrometheus(w io.Writer, labels map[string]string) error {
	if labels == nil {
		labels = map[string]string{}
	}
	if tr.Process != "" {
		labels["process"] = tr.Process
	}

	type rollup struct {
		ns    int64
		bytes int64
		objs  int64
	}
	byName := map[string]*rollup{}
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		r := byName[sp.Name]
		if r == nil {
			r = &rollup{}
			byName[sp.Name] = r
		}
		r.ns += int64(sp.Dur)
		r.bytes += sp.AllocBytes
		r.objs += sp.AllocObjs
	}
	names := make([]string, 0, len(byName))
	for k := range byName {
		names = append(names, k)
	}
	sort.Strings(names)

	if len(names) > 0 {
		fmt.Fprintln(w, "# HELP qcc_span_seconds_total Cumulative span duration by span name.")
		fmt.Fprintln(w, "# TYPE qcc_span_seconds_total counter")
		for _, n := range names {
			fmt.Fprintf(w, "qcc_span_seconds_total%s %g\n", promLabels(labels, "span", n), float64(byName[n].ns)/1e9)
		}
		hasAllocs := false
		for _, n := range names {
			if byName[n].bytes != 0 || byName[n].objs != 0 {
				hasAllocs = true
				break
			}
		}
		if hasAllocs {
			fmt.Fprintln(w, "# HELP qcc_span_alloc_bytes_total Heap bytes allocated within spans, by span name.")
			fmt.Fprintln(w, "# TYPE qcc_span_alloc_bytes_total counter")
			for _, n := range names {
				fmt.Fprintf(w, "qcc_span_alloc_bytes_total%s %d\n", promLabels(labels, "span", n), byName[n].bytes)
			}
			fmt.Fprintln(w, "# HELP qcc_span_alloc_objects_total Heap objects allocated within spans, by span name.")
			fmt.Fprintln(w, "# TYPE qcc_span_alloc_objects_total counter")
			for _, n := range names {
				fmt.Fprintf(w, "qcc_span_alloc_objects_total%s %d\n", promLabels(labels, "span", n), byName[n].objs)
			}
		}
	}

	if len(tr.Counters) > 0 {
		cnames := make([]string, 0, len(tr.Counters))
		for k := range tr.Counters {
			cnames = append(cnames, k)
		}
		sort.Strings(cnames)
		fmt.Fprintln(w, "# HELP qcc_events_total Back-end event counters.")
		fmt.Fprintln(w, "# TYPE qcc_events_total counter")
		for _, n := range cnames {
			fmt.Fprintf(w, "qcc_events_total%s %d\n", promLabels(labels, "event", n), tr.Counters[n])
		}
	}
	return nil
}

// WriteGlobalPrometheus writes the process-wide counter registry (code-cache
// hits/misses from pcc, IR slab growth, tier promotions, ...) in the
// Prometheus text exposition format. Trace-scoped WritePrometheus only sees
// the tracer's own counters, so a scrape that wants the pcc cache outcome
// must include this section too; labels are attached to every sample.
func WriteGlobalPrometheus(w io.Writer, labels map[string]string) error {
	if labels == nil {
		labels = map[string]string{}
	}
	counters := GlobalCounters()
	if len(counters) == 0 {
		return nil
	}
	names := make([]string, 0, len(counters))
	for k := range counters {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "# HELP qcc_global_events_total Process-wide event counters (code cache, IR, tiering).")
	fmt.Fprintln(w, "# TYPE qcc_global_events_total counter")
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "qcc_global_events_total%s %d\n", promLabels(labels, "event", n), counters[n]); err != nil {
			return err
		}
	}
	return nil
}

// --------------------------------------------------------------------------
// Stable JSON report schema ("qcc.obs.report/v2").
// --------------------------------------------------------------------------

// Schema identifies the report format. Consumers (CI perf-trajectory
// archiving, cmd/qtrace) key on this string; additive changes keep the
// version, breaking changes bump it. v2: global_counters gained the batch
// executor's rt_batch_kernel_calls/rt_batch_rows and exec_morsels/
// exec_workers, and qtrace's suite runs honor execution settings
// (-exec-jobs, -batch), so same-schema reports are only comparable at equal
// settings.
const Schema = "qcc.obs.report/v2"

// Report is the machine-readable benchmark/observability report emitted by
// `qbench -json` and `qtrace -format json`.
type Report struct {
	Schema   string  `json:"schema"`
	Arch     string  `json:"arch,omitempty"`
	Workload string  `json:"workload,omitempty"`
	SF       float64 `json:"sf,omitempty"`
	// Jobs is the compilation worker count the report was produced with
	// (1 = sequential, matching reports from before the field existed).
	Jobs    int              `json:"jobs,omitempty"`
	Engines []EngineReport   `json:"engines"`
	Global  map[string]int64 `json:"global_counters,omitempty"`
}

// EngineReport is one engine's aggregate over the measured suite.
type EngineReport struct {
	Engine     string           `json:"engine"`
	Funcs      int              `json:"funcs"`
	CodeBytes  int              `json:"code_bytes"`
	CompileNS  int64            `json:"compile_ns"`
	ExecNS     int64            `json:"exec_ns,omitempty"`
	Phases     []PhaseReport    `json:"phases"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	AllocBytes int64            `json:"alloc_bytes,omitempty"`
	AllocObjs  int64            `json:"alloc_objs,omitempty"`
	// CacheHits/CacheMisses are the content-addressed code-cache lookup
	// outcomes over the suite (both zero when no cache is configured).
	CacheHits   int64         `json:"cache_hits"`
	CacheMisses int64         `json:"cache_misses"`
	Queries     []QueryReport `json:"queries,omitempty"`
}

// PhaseReport is one compile phase total.
type PhaseReport struct {
	Name string `json:"name"`
	NS   int64  `json:"ns"`
}

// QueryReport is one query's compile/execute measurement, including the
// VM's architecture-neutral runtime counters.
type QueryReport struct {
	Name      string `json:"name"`
	CompileNS int64  `json:"compile_ns"`
	ExecNS    int64  `json:"exec_ns"`
	Rows      int    `json:"rows"`
	Instrs    int64  `json:"vm_instrs"`
	Branches  int64  `json:"vm_branches"`
	MemOps    int64  `json:"vm_mem_ops"`
	// FuseInstrs/FuseMicroOps record the vm's superinstruction fusion
	// outcome for the query's compiled module (decoded instructions vs
	// primary-path micro-ops). Both are omitted for the interpreter; the
	// fusion rate is fuse_micro_ops/fuse_instrs.
	FuseInstrs   int64 `json:"fuse_instrs,omitempty"`
	FuseMicroOps int64 `json:"fuse_micro_ops,omitempty"`
	// StaticMemOps/ChecksEliminated report the compile-time
	// check-elimination outcome for the query's QIR; LintFindings counts
	// static-analysis diagnostics (expected 0 for generated code) and
	// AnalysisNS the analysis+rewrite wall time.
	StaticMemOps     int   `json:"static_mem_ops,omitempty"`
	ChecksEliminated int   `json:"checks_eliminated,omitempty"`
	LintFindings     int   `json:"lint_findings,omitempty"`
	AnalysisNS       int64 `json:"analysis_ns,omitempty"`
}

// Write emits the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	if r.Schema == "" {
		r.Schema = Schema
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
