// Package dataset provides the columnar data substrate for cardinality
// estimation experiments: in-memory tables, exact predicate evaluation
// (the ground-truth oracle Card(q)), synthetic single-table dataset
// generators matching the shape of the DMV, Census, Forest and Power
// datasets used in the paper, and multi-table star schemas with exact
// join cardinality counting for the DSB- and JOB-style workloads.
package dataset

import "fmt"

// ColumnType distinguishes categorical columns (small discrete domains,
// queried with equality predicates) from numeric columns (ordered domains,
// queried with range predicates). Both are stored as int64 codes; numeric
// columns carry an ordered integer domain.
type ColumnType int

const (
	// Categorical columns hold discrete codes in [0, DomainSize).
	Categorical ColumnType = iota
	// Numeric columns hold ordered integer values in [Min, Max].
	Numeric
)

func (t ColumnType) String() string {
	switch t {
	case Categorical:
		return "categorical"
	case Numeric:
		return "numeric"
	default:
		return fmt.Sprintf("ColumnType(%d)", int(t))
	}
}

// Column is a single attribute of a table stored column-wise.
type Column struct {
	Name string
	Type ColumnType
	// Values holds one code per row. For Categorical columns the codes are
	// dense in [0, DomainSize). For Numeric columns they are arbitrary
	// integers within [Min, Max].
	Values []int64
	// DomainSize is the number of distinct categories (categorical only).
	DomainSize int64
	// Min and Max bound the domain (numeric only; Min==0 for categorical).
	Min, Max int64
	// Dict maps codes back to original string values for columns loaded
	// from external data (see FromCSV); nil for synthetic columns.
	Dict []string
	// lookup inverts Dict.
	lookup map[string]int64
}

// Distinct returns the number of distinct values actually present.
func (c *Column) Distinct() int {
	seen := make(map[int64]struct{}, 64)
	for _, v := range c.Values {
		seen[v] = struct{}{}
	}
	return len(seen)
}

// DomainWidth returns the size of the column's value domain: DomainSize for
// categorical columns and Max-Min+1 for numeric ones.
func (c *Column) DomainWidth() int64 {
	if c.Type == Categorical {
		return c.DomainSize
	}
	return c.Max - c.Min + 1
}

// Table is an immutable in-memory relation: once built, its column values
// must not change. Count keeps a value order per column, built on first use,
// which a later write to Values would leave stale; derive a changed table
// from a copy of the values instead (SelectRows, internal/scenario).
type Table struct {
	Name   string
	Cols   []*Column
	byName map[string]int
	// orders[i] is column i's value order (see order.go).
	orders []valueOrder
}

// NewTable assembles a table from columns, validating that all columns have
// equal length and unique names.
func NewTable(name string, cols []*Column) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("dataset: table %q has no columns", name)
	}
	n := len(cols[0].Values)
	byName := make(map[string]int, len(cols))
	for i, c := range cols {
		if len(c.Values) != n {
			return nil, fmt.Errorf("dataset: table %q column %q has %d rows, want %d",
				name, c.Name, len(c.Values), n)
		}
		if _, dup := byName[c.Name]; dup {
			return nil, fmt.Errorf("dataset: table %q has duplicate column %q", name, c.Name)
		}
		byName[c.Name] = i
	}
	return &Table{Name: name, Cols: cols, byName: byName, orders: make([]valueOrder, len(cols))}, nil
}

// MustNewTable is NewTable that panics on error; intended for generators
// whose invariants guarantee validity.
func MustNewTable(name string, cols []*Column) *Table {
	t, err := NewTable(name, cols)
	if err != nil {
		panic(err)
	}
	return t
}

// NumRows returns the number of tuples in the table.
func (t *Table) NumRows() int { return len(t.Cols[0].Values) }

// NumCols returns the number of attributes.
func (t *Table) NumCols() int { return len(t.Cols) }

// Column returns the named column, or nil if absent.
func (t *Table) Column(name string) *Column {
	i, ok := t.byName[name]
	if !ok {
		return nil
	}
	return t.Cols[i]
}

// ColumnIndex returns the position of the named column and whether it exists.
func (t *Table) ColumnIndex(name string) (int, bool) {
	i, ok := t.byName[name]
	return i, ok
}

// SelectRows returns a new table containing the given rows (in order). Used
// to build leave-fold-out training sets for data-driven models.
func (t *Table) SelectRows(rows []int) *Table {
	cols := make([]*Column, len(t.Cols))
	for ci, c := range t.Cols {
		nc := *c
		nc.Values = make([]int64, len(rows))
		for ri, r := range rows {
			nc.Values[ri] = c.Values[r]
		}
		cols[ci] = &nc
	}
	return MustNewTable(t.Name, cols)
}

// Row materialises row i as a slice of codes, one per column, in column order.
// The returned slice is freshly allocated.
func (t *Table) Row(i int) []int64 {
	row := make([]int64, len(t.Cols))
	for j, c := range t.Cols {
		row[j] = c.Values[i]
	}
	return row
}
