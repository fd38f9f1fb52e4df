// Package prof is the source-attributed VM profiler: it turns cheap PC
// samples from the vm dispatch loop into profiles whose rows are named plan
// operators, not machine addresses. The attribution chain is
//
//	sampled byte offset
//	  -> vm.UnwindRange        (PC-range map registered by the back-end)
//	  -> qir function index    (UnwindRange.Func)
//	  -> qir.Prov              (plan operator path + SQL fragment, codegen)
//
// so a hot loop in generated code reports as "scan(lineitem) > select >
// groupby" rather than "q1_p0_main+0x84".
package prof

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"qcc/internal/qir"
)

// Schema identifies the profile JSON format.
const Schema = "qcc.prof/v1"

// FuncProv is the provenance row for one compiled function.
type FuncProv struct {
	Name     string `json:"name"`
	Pipeline int    `json:"pipeline"`
	Operator string `json:"operator,omitempty"`
	SQL      string `json:"sql,omitempty"`
	Role     string `json:"role,omitempty"`
}

// ProvenanceOf extracts the provenance table of a compiled module, indexed
// by function index (the same index back-ends store in UnwindRange.Func).
func ProvenanceOf(mod *qir.Module) []FuncProv {
	out := make([]FuncProv, len(mod.Funcs))
	for i, f := range mod.Funcs {
		out[i] = FuncProv{
			Name:     f.Name,
			Pipeline: f.Prov.Pipeline,
			Operator: f.Prov.Operator,
			SQL:      f.Prov.SQL,
			Role:     f.Prov.Role,
		}
	}
	return out
}

// OffsetCount is one sampled byte offset within a function.
type OffsetCount struct {
	Off     int32 `json:"off"`
	Samples int64 `json:"samples"`
}

// FuncProfile aggregates the samples of one function.
type FuncProfile struct {
	FuncProv
	Samples int64 `json:"samples"`
	// Offsets lists the sampled byte offsets (function-relative), sorted
	// by offset — the raw material for annotated renderings.
	Offsets []OffsetCount `json:"offsets,omitempty"`
}

// Profile is a complete capture: sample counts attributed to functions and,
// through provenance, to plan operators.
type Profile struct {
	Schema string `json:"schema"`
	Arch   string `json:"arch,omitempty"`
	Query  string `json:"query,omitempty"`
	// Period is the sampling period in executed VM instructions; each
	// sample therefore represents ~Period instructions of execution.
	Period  int64 `json:"period"`
	Samples int64 `json:"samples"`
	// Unattributed counts samples that hit code without a named plan
	// operator (runtime stubs, hand-built modules, unmapped PCs).
	Unattributed int64         `json:"unattributed"`
	Funcs        []FuncProfile `json:"funcs"`
}

// sortFuncs orders functions hottest-first (ties by name for determinism).
func (p *Profile) sortFuncs() {
	sort.Slice(p.Funcs, func(i, j int) bool {
		if p.Funcs[i].Samples != p.Funcs[j].Samples {
			return p.Funcs[i].Samples > p.Funcs[j].Samples
		}
		return p.Funcs[i].Name < p.Funcs[j].Name
	})
}

// AttributionRate returns the fraction of samples attributed to named plan
// operators (0..1); 1 for an empty profile, so a no-sample capture does not
// read as an attribution failure.
func (p *Profile) AttributionRate() float64 {
	if p.Samples == 0 {
		return 1
	}
	return float64(p.Samples-p.Unattributed) / float64(p.Samples)
}

// ByOperator aggregates samples by operator path. Unattributed samples
// group under "?".
func (p *Profile) ByOperator() map[string]int64 {
	out := map[string]int64{}
	for i := range p.Funcs {
		op := p.Funcs[i].Operator
		if op == "" {
			op = "?"
		}
		out[op] += p.Funcs[i].Samples
	}
	return out
}

// Merge folds other into p: sample counts add up by function name, offsets
// by offset. Arch/Query are kept when they agree and cleared when they
// conflict (a cross-query merge has no single query name).
func (p *Profile) Merge(other *Profile) {
	if other == nil {
		return
	}
	if p.Arch != other.Arch {
		p.Arch = ""
	}
	if p.Query != other.Query {
		p.Query = ""
	}
	if p.Period == 0 {
		p.Period = other.Period
	}
	p.Samples += other.Samples
	p.Unattributed += other.Unattributed
	byName := map[string]int{}
	for i := range p.Funcs {
		byName[p.Funcs[i].Name] = i
	}
	for _, f := range other.Funcs {
		i, ok := byName[f.Name]
		if !ok {
			p.Funcs = append(p.Funcs, f)
			continue
		}
		dst := &p.Funcs[i]
		dst.Samples += f.Samples
		offs := map[int32]int64{}
		for _, oc := range dst.Offsets {
			offs[oc.Off] += oc.Samples
		}
		for _, oc := range f.Offsets {
			offs[oc.Off] += oc.Samples
		}
		dst.Offsets = dst.Offsets[:0]
		for off, n := range offs {
			dst.Offsets = append(dst.Offsets, OffsetCount{Off: off, Samples: n})
		}
		sort.Slice(dst.Offsets, func(a, b int) bool { return dst.Offsets[a].Off < dst.Offsets[b].Off })
	}
	p.sortFuncs()
}

// WriteJSON emits the profile as indented JSON.
func (p *Profile) WriteJSON(w io.Writer) error {
	if p.Schema == "" {
		p.Schema = Schema
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false) // operator paths contain " > "
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadJSON parses a profile written by WriteJSON.
func ReadJSON(r io.Reader) (*Profile, error) {
	var p Profile
	if err := json.NewDecoder(r).Decode(&p); err != nil {
		return nil, err
	}
	if p.Schema != Schema {
		return nil, fmt.Errorf("prof: unexpected schema %q (want %q)", p.Schema, Schema)
	}
	return &p, nil
}

// WriteTop renders the top-n operators by sampled VM time, flat-profile
// style, followed by an attribution summary line.
func (p *Profile) WriteTop(w io.Writer, n int) error {
	type row struct {
		op      string
		samples int64
	}
	var rows []row
	for op, s := range p.ByOperator() {
		rows = append(rows, row{op, s})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].samples != rows[j].samples {
			return rows[i].samples > rows[j].samples
		}
		return rows[i].op < rows[j].op
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	fmt.Fprintf(w, "%8s %7s  %s\n", "SAMPLES", "PCT", "OPERATOR")
	for _, r := range rows {
		pct := 0.0
		if p.Samples > 0 {
			pct = 100 * float64(r.samples) / float64(p.Samples)
		}
		fmt.Fprintf(w, "%8d %6.2f%%  %s\n", r.samples, pct, r.op)
	}
	_, err := fmt.Fprintf(w, "total %d samples (period %d instrs), %.2f%% attributed to plan operators\n",
		p.Samples, p.Period, 100*p.AttributionRate())
	return err
}

// WriteAnnotated renders the QIR of the hottest functions (hottest first),
// each prefixed with its sample count, share, and provenance, plus a short
// histogram of hot byte offsets inside the function. qmod must be the module
// the profile was captured from; functions without samples are skipped.
func (p *Profile) WriteAnnotated(w io.Writer, qmod *qir.Module, n int) error {
	byName := map[string]*qir.Func{}
	for _, f := range qmod.Funcs {
		byName[f.Name] = f
	}
	shown := 0
	for i := range p.Funcs {
		fp := &p.Funcs[i]
		if fp.Samples == 0 || (n > 0 && shown >= n) {
			break
		}
		pct := 100 * float64(fp.Samples) / float64(p.Samples)
		fmt.Fprintf(w, "; ---- %s: %d samples (%.2f%%)", fp.Name, fp.Samples, pct)
		if fp.Operator != "" {
			fmt.Fprintf(w, " op=%s", fp.Operator)
		}
		fmt.Fprintln(w)
		if len(fp.Offsets) > 0 {
			var hot []string
			for _, oc := range fp.Offsets {
				hot = append(hot, fmt.Sprintf("+0x%x:%d", oc.Off, oc.Samples))
			}
			fmt.Fprintf(w, "; hot offsets: %s\n", strings.Join(hot, " "))
		}
		if f := byName[fp.Name]; f != nil {
			if _, err := io.WriteString(w, f.String()); err != nil {
				return err
			}
		}
		fmt.Fprintln(w)
		shown++
	}
	if shown == 0 {
		fmt.Fprintln(w, "; no samples")
	}
	return nil
}
