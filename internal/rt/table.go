package rt

import (
	"fmt"
	"math"

	"qcc/internal/qir"
)

// Column describes one column of a stored table. Data is columnar: Base is
// the machine-memory address of a dense array of Rows elements, each
// Type.Size() bytes wide (Str columns store 16-byte string structs).
type Column struct {
	Name string
	Type qir.Type
	Base uint64
}

// Table is a loaded base relation.
type Table struct {
	Name string
	Cols []Column
	Rows int64
}

// Col returns the column with the given name.
func (t *Table) Col(name string) (*Column, error) {
	for i := range t.Cols {
		if t.Cols[i].Name == name {
			return &t.Cols[i], nil
		}
	}
	return nil, fmt.Errorf("rt: table %s has no column %s", t.Name, name)
}

// MustCol is Col but panics; for use by generators with static schemas.
func (t *Table) MustCol(name string) *Column {
	c, err := t.Col(name)
	if err != nil {
		panic(err)
	}
	return c
}

// Catalog is the set of loaded tables.
type Catalog struct {
	db     *DB
	Tables map[string]*Table
}

// NewCatalog creates an empty catalog backed by db.
func NewCatalog(db *DB) *Catalog {
	return &Catalog{db: db, Tables: make(map[string]*Table)}
}

// Table returns a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	t, ok := c.Tables[name]
	if !ok {
		return nil, fmt.Errorf("rt: unknown table %s", name)
	}
	return t, nil
}

// ColSpec declares a column when creating a table.
type ColSpec struct {
	Name string
	Type qir.Type
}

// CreateTable allocates columnar storage for rows rows and registers the
// table in the catalog.
func (c *Catalog) CreateTable(name string, rows int64, cols ...ColSpec) *Table {
	bases := make([]uint64, len(cols))
	for i, cs := range cols {
		bases[i] = c.db.M.Alloc(uint64(rows) * uint64(cs.Type.Size()))
	}
	t := c.DeclareTable(name, rows, cols...)
	for i := range t.Cols {
		t.Cols[i].Base = bases[i]
	}
	return t
}

// DeclareTable registers a table of rows rows without storage: its columns
// have no addresses. A catalog of declared tables, as NewCatalog(nil) makes,
// is enough to plan queries against but not to run them.
func (c *Catalog) DeclareTable(name string, rows int64, cols ...ColSpec) *Table {
	t := &Table{Name: name, Rows: rows, Cols: make([]Column, len(cols))}
	for i, cs := range cols {
		t.Cols[i] = Column{Name: cs.Name, Type: cs.Type}
	}
	c.Tables[name] = t
	return t
}

// SetInt stores an integer value (I8..I64 widths) into column col, row row.
func (c *Catalog) SetInt(col *Column, row int64, v int64) {
	mem := c.db.M.Mem
	switch col.Type {
	case qir.I8, qir.I1:
		mem[col.Base+uint64(row)] = byte(v)
	case qir.I16:
		a := col.Base + uint64(row)*2
		mem[a] = byte(v)
		mem[a+1] = byte(v >> 8)
	case qir.I32:
		put32(mem[col.Base+uint64(row)*4:], uint32(v))
	case qir.I64:
		put64(mem[col.Base+uint64(row)*8:], uint64(v))
	default:
		panic("rt: SetInt on non-integer column " + col.Name)
	}
}

// SetI128 stores a 128-bit decimal value.
func (c *Catalog) SetI128(col *Column, row int64, v I128) {
	if col.Type != qir.I128 {
		panic("rt: SetI128 on column " + col.Name)
	}
	a := col.Base + uint64(row)*16
	put64(c.db.M.Mem[a:], v.Lo)
	put64(c.db.M.Mem[a+8:], v.Hi)
}

// SetF64 stores a float value.
func (c *Catalog) SetF64(col *Column, row int64, v float64) {
	if col.Type != qir.F64 {
		panic("rt: SetF64 on column " + col.Name)
	}
	put64(c.db.M.Mem[col.Base+uint64(row)*8:], toBits(v))
}

// SetStr stores a string value (building the 16-byte struct, interning long
// bodies in machine memory).
func (c *Catalog) SetStr(col *Column, row int64, s string) {
	if col.Type != qir.Str {
		panic("rt: SetStr on column " + col.Name)
	}
	lo, hi := c.db.InternString(s)
	a := col.Base + uint64(row)*16
	put64(c.db.M.Mem[a:], lo)
	put64(c.db.M.Mem[a+8:], hi)
}

// GetInt reads back an integer value (for tests and verification).
func (c *Catalog) GetInt(col *Column, row int64) int64 {
	mem := c.db.M.Mem
	switch col.Type {
	case qir.I8, qir.I1:
		return int64(int8(mem[col.Base+uint64(row)]))
	case qir.I16:
		a := col.Base + uint64(row)*2
		return int64(int16(uint16(mem[a]) | uint16(mem[a+1])<<8))
	case qir.I32:
		return int64(int32(le32(mem[col.Base+uint64(row)*4:])))
	case qir.I64:
		return int64(le64(mem[col.Base+uint64(row)*8:]))
	}
	panic("rt: GetInt on non-integer column")
}

// GetStr reads back a string value.
func (c *Catalog) GetStr(col *Column, row int64) (string, error) {
	a := col.Base + uint64(row)*16
	lo := le64(c.db.M.Mem[a:])
	hi := le64(c.db.M.Mem[a+8:])
	return c.db.LoadString(lo, hi)
}

// GetI128 reads back a decimal value.
func (c *Catalog) GetI128(col *Column, row int64) I128 {
	a := col.Base + uint64(row)*16
	return I128{Lo: le64(c.db.M.Mem[a:]), Hi: le64(c.db.M.Mem[a+8:])}
}

// GetF64 reads back a float value.
func (c *Catalog) GetF64(col *Column, row int64) float64 {
	return fbits(le64(c.db.M.Mem[col.Base+uint64(row)*8:]))
}

func toBits(f float64) uint64 { return math.Float64bits(f) }
