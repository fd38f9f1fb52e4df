package rt

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// OutKind tags the type of an output value.
type OutKind uint8

// Output value kinds.
const (
	OutI64 OutKind = iota
	OutI128Kind
	OutF64Kind
	OutStrKind
)

// OutVal is one output column value.
type OutVal struct {
	Kind OutKind
	I    int64
	V128 I128
	F    float64
	S    string
}

// String renders the value canonically (used to compare result sets across
// back-ends).
func (v OutVal) String() string {
	switch v.Kind {
	case OutI64:
		return fmt.Sprintf("%d", v.I)
	case OutI128Kind:
		return v.V128.DecString()
	case OutF64Kind:
		return fmt.Sprintf("%.4f", v.F)
	case OutStrKind:
		return v.S
	}
	return "?"
}

// OutBuffer collects query result rows.
type OutBuffer struct {
	Rows [][]OutVal
	cur  []OutVal
}

// Reset discards all rows.
func (o *OutBuffer) Reset() {
	o.Rows = nil
	o.cur = nil
}

// BeginRow starts a new row.
func (o *OutBuffer) BeginRow() { o.cur = o.cur[:0] }

// AddI64 appends an integer column to the current row.
func (o *OutBuffer) AddI64(v int64) { o.cur = append(o.cur, OutVal{Kind: OutI64, I: v}) }

// AddI128 appends a decimal column to the current row.
func (o *OutBuffer) AddI128(v I128) { o.cur = append(o.cur, OutVal{Kind: OutI128Kind, V128: v}) }

// AddF64 appends a float column to the current row.
func (o *OutBuffer) AddF64(v float64) { o.cur = append(o.cur, OutVal{Kind: OutF64Kind, F: v}) }

// AddStr appends a string column to the current row.
func (o *OutBuffer) AddStr(s string) { o.cur = append(o.cur, OutVal{Kind: OutStrKind, S: s}) }

// EndRow commits the current row.
func (o *OutBuffer) EndRow() {
	row := make([]OutVal, len(o.cur))
	copy(row, o.cur)
	o.Rows = append(o.Rows, row)
}

// NumRows returns the committed row count.
func (o *OutBuffer) NumRows() int { return len(o.Rows) }

// DrainRows returns the committed rows and clears the buffer. The
// morsel-parallel executor drains each worker's buffer after every morsel so
// rows can be re-ordered deterministically by morsel index.
func (o *OutBuffer) DrainRows() [][]OutVal {
	rows := o.Rows
	o.Rows = nil
	return rows
}

// AppendRows appends previously drained rows.
func (o *OutBuffer) AppendRows(rows [][]OutVal) {
	o.Rows = append(o.Rows, rows...)
}

// Ordered renders all rows as text lines in row order (unlike Canonical,
// which sorts). The sequential-vs-parallel differential uses it: the
// executor must reproduce the sequential output order exactly.
func (o *OutBuffer) Ordered() []string {
	lines := make([]string, len(o.Rows))
	for i, row := range o.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		lines[i] = strings.Join(parts, "|")
	}
	return lines
}

// Canonical renders all rows as sorted text lines, for cross-back-end result
// comparison independent of row order.
func (o *OutBuffer) Canonical() []string {
	lines := make([]string, len(o.Rows))
	for i, row := range o.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		lines[i] = strings.Join(parts, "|")
	}
	sort.Strings(lines)
	return lines
}

func fbits(u uint64) float64 { return math.Float64frombits(u) }
