package sqldb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Column describes one table column.
type Column struct {
	Name    string
	Type    ColType
	NotNull bool
	Primary bool
}

// Row is a tuple of values, one per column.
type Row []Value

// Table is the storage for one relation. Data is stored column-major: one
// typed vector per column (see column.go). The vectorized operators read the
// vectors directly; the row interpreter and the DML read paths go through
// scan, which materializes (and caches) a row view of the same data.
//
// Every table carries its own RWMutex so that readers of different tables
// never contend and concurrent readers of the same table only serialize
// against writers. Lock ordering: the DB statement lock (DB.mu) is always
// acquired before any table lock; table locks are never held while acquiring
// another table's lock.
type Table struct {
	Name    string
	Columns []Column
	colIdx  map[string]int // lower-cased column name -> position
	// mu guards the derived read structures (indexes and the cached row
	// view). The column vectors themselves mutate only under the exclusive
	// DB statement lock, which excludes all SELECT readers, so batch reads
	// off cols need no table lock; mu makes the lazily built join indexes
	// and the lazily built row view safe under concurrent SELECTs.
	mu sync.RWMutex
	// cols holds one typed vector per column; nrows is the row count.
	cols  []*colVec
	nrows int
	// rowView is the cached row-major view served by scan. Inserts extend it
	// in place while it is live; updates and deletes drop it, and the next
	// scan rebuilds it. nil means stale/never built.
	rowView []Row
	// indexes holds one typed index per column position (index.go), nil
	// where the column is not indexed. Indexes are maintained incrementally
	// on insert and rebuilt on update/delete.
	indexes []*colIndex
	// primary is the position of the primary-key column, or -1.
	primary int
	// dataVer is the table's data version: every DML statement that changed
	// this table's rows stamps it with a fresh value of the database's global
	// DML counter (see DB.bumpData and resultcache.go). Index builds do not
	// touch it — they change access paths, not results.
	dataVer atomic.Int64
}

func newTable(name string, cols []Column) (*Table, error) {
	t := &Table{
		Name:    name,
		Columns: cols,
		colIdx:  make(map[string]int, len(cols)),
		indexes: make([]*colIndex, len(cols)),
		primary: -1,
	}
	for _, c := range cols {
		t.cols = append(t.cols, newColVec(c.Type))
	}
	for i, c := range cols {
		key := strings.ToLower(c.Name)
		if _, dup := t.colIdx[key]; dup {
			return nil, fmt.Errorf("sqldb: table %s: duplicate column %s", name, c.Name)
		}
		t.colIdx[key] = i
		if c.Primary {
			if t.primary >= 0 {
				return nil, fmt.Errorf("sqldb: table %s: multiple primary keys", name)
			}
			t.primary = i
		}
	}
	if t.primary >= 0 {
		t.indexes[t.primary] = &colIndex{}
	}
	return t, nil
}

// ColumnIndex returns the position of a column (case-insensitive), or -1.
func (t *Table) ColumnIndex(name string) int {
	if i, ok := t.colIdx[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// NumRows returns the number of stored rows.
func (t *Table) NumRows() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nrows
}

// scan returns a row-major view of the table for the row interpreter. The
// view is materialized from the column vectors once and cached: repeat scans
// return the cached slice with no per-row allocation, inserts extend the live
// view in place, and updates/deletes invalidate it. The returned slice header
// is a snapshot — the rows visible through it never change under a reader's
// feet, because all storage mutation happens under the exclusive DB statement
// lock, which excludes every SELECT reader.
func (t *Table) scan() []Row {
	t.mu.RLock()
	view := t.rowView
	t.mu.RUnlock()
	if view != nil || t.nrows == 0 {
		return view
	}
	// Build under the write lock; concurrent SELECTs racing here serialize
	// and the losers return the winner's view (same double-checked pattern
	// as createIndex).
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rowView == nil {
		t.rowView = t.materializeRows()
	}
	return t.rowView
}

// materializeRows builds the row-major view of the column vectors. Caller
// holds t.mu exclusively (or the exclusive DB statement lock).
func (t *Table) materializeRows() []Row {
	rows := make([]Row, t.nrows)
	cells := make(Row, t.nrows*len(t.cols)) // one backing array for all rows
	for i := range rows {
		row := cells[i*len(t.cols) : (i+1)*len(t.cols) : (i+1)*len(t.cols)]
		for j, c := range t.cols {
			row[j] = c.value(i)
		}
		rows[i] = row
	}
	return rows
}

// row materializes one stored row. Intended for read paths that hold the DB
// statement lock.
func (t *Table) row(pos int) Row {
	out := make(Row, len(t.cols))
	for j, c := range t.cols {
		out[j] = c.value(pos)
	}
	return out
}

func (t *Table) insert(r Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(r) != len(t.Columns) {
		return fmt.Errorf("sqldb: table %s: row has %d values, want %d", t.Name, len(r), len(t.Columns))
	}
	for i := range r {
		v, err := coerce(r[i], t.Columns[i].Type)
		if err != nil {
			return fmt.Errorf("sqldb: table %s, column %s: %v", t.Name, t.Columns[i].Name, err)
		}
		if v.IsNull() && (t.Columns[i].NotNull || t.Columns[i].Primary) {
			return fmt.Errorf("sqldb: table %s: NULL in NOT NULL column %s", t.Name, t.Columns[i].Name)
		}
		r[i] = v
	}
	if t.primary >= 0 {
		if len(t.indexes[t.primary].get(r[t.primary])) > 0 {
			return fmt.Errorf("sqldb: table %s: duplicate primary key %s", t.Name, r[t.primary])
		}
	}
	pos := t.nrows
	for i, c := range t.cols {
		c.appendVal(r[i])
	}
	t.nrows++
	if t.rowView != nil {
		t.rowView = append(t.rowView, r)
	}
	for col, ix := range t.indexes {
		if ix != nil {
			ix.add(r[col], pos)
		}
	}
	return nil
}

// createIndex builds the index of a column if it does not exist yet, and
// returns it. It is called lazily from the join planners, so it must be safe
// under concurrent SELECTs: the double-checked write lock serializes
// builders. The returned index is safe to read without the table lock, because
// index mutations happen only under the exclusive DB statement lock, which
// excludes all SELECT readers.
func (t *Table) createIndex(col int) *colIndex {
	if ix := t.index(col); ix != nil {
		return ix
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.indexes[col] == nil {
		t.indexes[col] = buildColIndex(t.cols[col], t.nrows)
	}
	return t.indexes[col]
}

// rebuildIndexes recomputes all indexes after bulk mutation, choosing each
// index's form afresh.
func (t *Table) rebuildIndexes() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for col, ix := range t.indexes {
		if ix != nil {
			t.indexes[col] = buildColIndex(t.cols[col], t.nrows)
		}
	}
}

// index returns the column's index, or nil if the column is not indexed.
// Positions it yields index into the snapshot returned by scan; like
// createIndex's result, it is read without the table lock.
func (t *Table) index(col int) *colIndex {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.indexes[col]
}

// DB is a database: a set of named tables. All public methods are safe for
// concurrent use.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// planFields carries the prepared-statement machinery: the schema
	// version, the ad-hoc plan cache, and its counters (see prepare.go).
	planFields
	// cacheFields carries the result cache: the global DML counter behind
	// the per-table data versions, the LRU of cached SELECT results, and its
	// counters (see resultcache.go).
	cacheFields
	// vecOn selects the SELECT execution engine: true runs planned SELECTs
	// through the vectorized operators (vecexec.go), false forces the row
	// interpreter. vecSelects/vecFallbacks count executions of planned SELECT
	// nodes on each path while the vectorized engine is selected.
	vecOn        atomic.Bool
	vecSelects   atomic.Int64
	vecFallbacks atomic.Int64
	// Per-reason fallback counters (the fb* constants in vec.go).
	vecFbJoin  atomic.Int64
	vecFbStar  atomic.Int64
	vecFbOrder atomic.Int64
	vecFbSub   atomic.Int64
	vecFbOther atomic.Int64
}

// countFallback records one row-interpreter fallback under its refusal
// reason.
func (db *DB) countFallback(reason string) {
	db.vecFallbacks.Add(1)
	switch reason {
	case fbJoinShape:
		db.vecFbJoin.Add(1)
	case fbStar:
		db.vecFbStar.Add(1)
	case fbOrderExpr:
		db.vecFbOrder.Add(1)
	case fbSubquery:
		db.vecFbSub.Add(1)
	default:
		db.vecFbOther.Add(1)
	}
}

// NewDB returns an empty database.
func NewDB() *DB {
	db := &DB{tables: make(map[string]*Table)}
	db.initPlanCache()
	db.initResultCache()
	db.vecOn.Store(true)
	return db
}

// Table returns the named table (case-insensitive), or nil.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[strings.ToLower(name)]
}

// TableNames returns the table names in sorted order.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

func (db *DB) createTable(name string, cols []Column) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, dup := db.tables[key]; dup {
		return fmt.Errorf("sqldb: table %s already exists", name)
	}
	t, err := newTable(name, cols)
	if err != nil {
		return err
	}
	db.tables[key] = t
	db.ddl.Add(1)
	db.clearPlanCache()
	db.clearResultCache()
	return nil
}

func (db *DB) dropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := db.tables[key]; !ok {
		return fmt.Errorf("sqldb: no table %s", name)
	}
	delete(db.tables, key)
	db.ddl.Add(1)
	db.clearPlanCache()
	db.clearResultCache()
	return nil
}
