package sqldb

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Params carries the actual parameters of a statement: positional values for
// "?" markers and named values for "$name" markers.
type Params struct {
	Positional []Value
	Named      map[string]Value
}

// ResultSet is the outcome of a SELECT.
type ResultSet struct {
	Columns []string
	Rows    []Row
}

// Result is the outcome of executing any statement.
type Result struct {
	// Set is non-nil for SELECT statements.
	Set *ResultSet
	// Affected counts inserted, updated, or deleted rows.
	Affected int
	// Cached reports that Set was served from the result cache instead of
	// being executed (see resultcache.go). Cached sets are shared; treat
	// them as read-only.
	Cached bool
}

// Exec executes one SQL statement. Statement plans are cached by query text
// (see prepare.go), so repeated ad-hoc executions of the same SQL skip the
// parse and plan phases; with the cache disabled every call parses from
// scratch. A statement that cannot be planned (planning validates every
// referenced table eagerly, which explicit Prepare is meant to surface) is
// executed on the dynamic path instead, preserving lazy-evaluation
// semantics for ad-hoc SQL — a subquery over a missing table only errors if
// it is actually evaluated.
func (db *DB) Exec(query string, params *Params) (*Result, error) {
	ps, stmt, err := db.cachedStmt(query)
	if err != nil {
		return nil, err
	}
	if ps != nil {
		return ps.Execute(params)
	}
	if stmt == nil { // caching disabled
		if stmt, err = ParseSQL(query); err != nil {
			return nil, err
		}
	}
	return db.ExecStmt(stmt, params)
}

// MustExec executes a statement and panics on error; intended for schema
// setup in tests and loaders where failure is a programming error.
func (db *DB) MustExec(query string, params *Params) *Result {
	res, err := db.Exec(query, params)
	if err != nil {
		panic(err)
	}
	return res
}

// ExecStmt executes a parsed statement without a precomputed plan.
func (db *DB) ExecStmt(stmt Stmt, params *Params) (*Result, error) {
	return db.execStmt(stmt, params, nil)
}

// execStmt executes a statement, consulting the plan (when non-nil) for
// precomputed table resolutions and strategies.
func (db *DB) execStmt(stmt Stmt, params *Params, plan *stmtPlan) (*Result, error) {
	switch st := stmt.(type) {
	case *CreateTableStmt:
		if err := db.createTable(st.Name, st.Cols); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *DropTableStmt:
		if err := db.dropTable(st.Name); err != nil {
			return nil, err
		}
		return &Result{}, nil
	case *CreateIndexStmt:
		t := db.Table(st.Table)
		if t == nil {
			return nil, fmt.Errorf("sqldb: no table %s", st.Table)
		}
		col := t.ColumnIndex(st.Column)
		if col < 0 {
			return nil, fmt.Errorf("sqldb: table %s has no column %s", st.Table, st.Column)
		}
		db.mu.Lock()
		t.createIndex(col)
		db.ddl.Add(1)
		db.mu.Unlock()
		db.clearPlanCache()
		db.clearResultCache()
		return &Result{}, nil
	case *InsertStmt:
		return db.execInsert(st, params, plan)
	case *UpdateStmt:
		return db.execUpdate(st, params, plan)
	case *DeleteStmt:
		return db.execDelete(st, params, plan)
	case *SelectStmt:
		ec := &execCtx{db: db, params: params, plan: plan}
		db.mu.RLock()
		defer db.mu.RUnlock()
		if err := db.planFresh(plan); err != nil {
			return nil, err
		}
		// The result cache: the data-version stamps are read under the same
		// shared lock the execution runs under, so a stored result is never
		// stamped newer than the rows it was computed from.
		key, dataVer, cacheable := db.cacheKeyFor(plan, params)
		if cacheable {
			if set, hit := db.lookupResult(key, plan.version, dataVer); hit {
				return &Result{Set: set, Cached: true}, nil
			}
		}
		set, err := ec.execSelect(st, nil)
		if err != nil {
			return nil, err
		}
		if cacheable {
			db.storeResult(key, plan.version, dataVer, set)
		}
		return &Result{Set: set}, nil
	}
	return nil, fmt.Errorf("sqldb: unhandled statement %T", stmt)
}

func (db *DB) execInsert(st *InsertStmt, params *Params, plan *stmtPlan) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.planFresh(plan); err != nil {
		return nil, err
	}
	return db.execInsertLocked(st, params, plan)
}

// execInsertLocked is the INSERT core; db.mu must be held exclusively.
func (db *DB) execInsertLocked(st *InsertStmt, params *Params, plan *stmtPlan) (*Result, error) {
	t := db.tables[strings.ToLower(st.Table)]
	if t == nil {
		return nil, fmt.Errorf("sqldb: no table %s", st.Table)
	}
	// Column mapping: listed columns or all columns in order.
	var colPos []int
	if len(st.Cols) > 0 {
		colPos = make([]int, len(st.Cols))
		for i, c := range st.Cols {
			pos := t.ColumnIndex(c)
			if pos < 0 {
				return nil, fmt.Errorf("sqldb: table %s has no column %s", st.Table, c)
			}
			colPos[i] = pos
		}
	} else {
		colPos = make([]int, len(t.Columns))
		for i := range t.Columns {
			colPos[i] = i
		}
	}
	ec := &execCtx{db: db, params: params, plan: plan}
	n := 0
	// A multi-row INSERT that fails midway leaves its earlier rows inserted,
	// so the data version must move whenever anything landed — error or not.
	defer func() {
		if n > 0 {
			db.bumpData(t)
		}
	}()
	for _, exprs := range st.Rows {
		if len(exprs) != len(colPos) {
			return nil, fmt.Errorf("sqldb: INSERT has %d values for %d columns", len(exprs), len(colPos))
		}
		row := make(Row, len(t.Columns))
		for i, e := range exprs {
			v, err := ec.eval(e, nil)
			if err != nil {
				return nil, err
			}
			row[colPos[i]] = v
		}
		if err := t.insert(row); err != nil {
			return nil, err
		}
		n++
	}
	return &Result{Affected: n}, nil
}

func (db *DB) execUpdate(st *UpdateStmt, params *Params, plan *stmtPlan) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.planFresh(plan); err != nil {
		return nil, err
	}
	return db.execUpdateLocked(st, params, plan)
}

// execUpdateLocked is the UPDATE core; db.mu must be held exclusively.
func (db *DB) execUpdateLocked(st *UpdateStmt, params *Params, plan *stmtPlan) (*Result, error) {
	t := db.tables[strings.ToLower(st.Table)]
	if t == nil {
		return nil, fmt.Errorf("sqldb: no table %s", st.Table)
	}
	// Columnar path: a compiled DML plan evaluates WHERE/SET batch-at-a-time
	// over the column vectors, skipping the rowView rebuild (vecdml.go).
	if plan != nil && plan.dml != nil && plan.dml.table == t && db.vecOn.Load() {
		return db.vecExecUpdateLocked(params, plan, t)
	}
	ec := &execCtx{db: db, params: params, plan: plan}
	// Phase 1 (read): evaluate WHERE and the SET expressions against the
	// pre-update state, without holding the table write lock, so that
	// subqueries over the updated table itself can take read locks freely.
	fr := &frame{tables: []*boundTable{{binding: strings.ToLower(st.Table), table: t}}}
	rows := t.scan()
	type patch struct {
		pos    int
		values Row // one value per SET, in declaration order
	}
	cols := make([]int, len(st.Sets))
	for i, set := range st.Sets {
		cols[i] = t.ColumnIndex(set.Column)
		if cols[i] < 0 {
			return nil, fmt.Errorf("sqldb: table %s has no column %s", st.Table, set.Column)
		}
	}
	var patches []patch
	for i := range rows {
		fr.tables[0].row = rows[i]
		if st.Where != nil {
			ok, err := ec.evalBool(st.Where, fr)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		p := patch{pos: i, values: make(Row, len(st.Sets))}
		for j, set := range st.Sets {
			v, err := ec.eval(set.Value, fr)
			if err != nil {
				return nil, err
			}
			cv, err := coerce(v, t.Columns[cols[j]].Type)
			if err != nil {
				return nil, err
			}
			p.values[j] = cv
		}
		patches = append(patches, p)
	}
	// Phase 2 (write): apply the patches to the column vectors under the
	// table write lock, dropping the cached row view (it holds pre-update
	// values; the next scan rebuilds it).
	if len(patches) > 0 {
		t.mu.Lock()
		for _, p := range patches {
			for j, cv := range p.values {
				t.cols[cols[j]].setVal(p.pos, cv)
			}
		}
		t.rowView = nil
		t.mu.Unlock()
		t.rebuildIndexes()
		db.bumpData(t)
	}
	return &Result{Affected: len(patches)}, nil
}

func (db *DB) execDelete(st *DeleteStmt, params *Params, plan *stmtPlan) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.planFresh(plan); err != nil {
		return nil, err
	}
	return db.execDeleteLocked(st, params, plan)
}

// execDeleteLocked is the DELETE core; db.mu must be held exclusively.
func (db *DB) execDeleteLocked(st *DeleteStmt, params *Params, plan *stmtPlan) (*Result, error) {
	t := db.tables[strings.ToLower(st.Table)]
	if t == nil {
		return nil, fmt.Errorf("sqldb: no table %s", st.Table)
	}
	// Columnar path: see vecdml.go.
	if plan != nil && plan.dml != nil && plan.dml.table == t && db.vecOn.Load() {
		return db.vecExecDeleteLocked(params, plan, t)
	}
	ec := &execCtx{db: db, params: params, plan: plan}
	// Phase 1 (read): decide which rows survive without the write lock held.
	fr := &frame{tables: []*boundTable{{binding: strings.ToLower(st.Table), table: t}}}
	rows := t.scan()
	keep := make([]bool, len(rows))
	n := 0
	for i := range rows {
		fr.tables[0].row = rows[i]
		del := true
		if st.Where != nil {
			ok, err := ec.evalBool(st.Where, fr)
			if err != nil {
				return nil, err
			}
			del = ok
		}
		if del {
			n++
		} else {
			keep[i] = true
		}
	}
	// Phase 2 (write): compact the column vectors under the table write
	// lock, dropping the cached row view.
	if n > 0 {
		t.mu.Lock()
		for _, c := range t.cols {
			c.compact(keep)
		}
		t.nrows -= n
		t.rowView = nil
		t.mu.Unlock()
		t.rebuildIndexes()
		db.bumpData(t)
	}
	return &Result{Affected: n}, nil
}

// ---------------------------------------------------------------------------
// SELECT execution
// ---------------------------------------------------------------------------

// boundTable is one table bound into the current query scope.
type boundTable struct {
	binding string // lower-cased alias or table name
	table   *Table
	row     Row // current row while iterating
}

// frame is a lexical scope of bound tables; parent scopes make correlated
// subqueries work.
type frame struct {
	parent *frame
	tables []*boundTable
}

// resolve finds the bound table and column position for a column reference.
func (fr *frame) resolve(ref *EColumn) (*boundTable, int, error) {
	lqual, lname := ref.keys()
	for scope := fr; scope != nil; scope = scope.parent {
		var foundBT *boundTable
		foundCol := -1
		for _, bt := range scope.tables {
			if lqual != "" && bt.binding != lqual {
				continue
			}
			col, ok := bt.table.colIdx[lname]
			if !ok {
				continue
			}
			if foundBT != nil {
				return nil, 0, fmt.Errorf("sqldb: ambiguous column %s", ref.Name)
			}
			foundBT, foundCol = bt, col
		}
		if foundBT != nil {
			return foundBT, foundCol, nil
		}
	}
	if ref.Qual != "" {
		return nil, 0, fmt.Errorf("sqldb: unknown column %s.%s", ref.Qual, ref.Name)
	}
	return nil, 0, fmt.Errorf("sqldb: unknown column %s", ref.Name)
}

// tuple is one joined row: one Row per bound table.
type tuple []Row

// execCtx carries the execution state of one statement.
type execCtx struct {
	db     *DB
	params *Params
	// plan, when non-nil, is the immutable prepared plan of the statement:
	// resolved tables, access paths, join strategies, and the memoized
	// subquery analyses. Shared across concurrent executions, never written.
	plan *stmtPlan
	// group is non-nil while evaluating expressions of a grouped query; it
	// holds the tuples of the current group.
	group *groupCtx
	// slots holds the values of subqueries that are invariant for the whole
	// statement (no free columns; parameters only), indexed by the plan's
	// subquery slots. The ASL property compiler emits the same
	// parameter-correlated subquery many times, so this cache is the
	// difference between linear and multiplicative cost. A batch reuses one
	// context, clearing the slots between bindings (rebind).
	slots []subSlot
	// free, subCache and keyCache serve the unplanned path: they memoize the
	// free-column analysis of subqueries, hold the invariant subquery values
	// keyed by canonical text, and memoize that text.
	free     map[Expr]*freeInfo
	subCache map[string]Value
	keyCache map[Expr]string
	// aggPre, when non-nil, maps aggregate call nodes to precomputed values:
	// the vectorized engine accumulates aggregates batch-at-a-time and then
	// evaluates the grouped projection/HAVING scalar parts through the row
	// evaluator with the aggregates already folded (see vecexec.go).
	aggPre map[*ECall]Value
}

// subSlot is one invariant subquery value of an execution; ok is false until
// the subquery has been evaluated for the current binding.
type subSlot struct {
	v  Value
	ok bool
}

// rebind readies a batch's shared context for its next binding. Every cached
// subquery value belongs to the previous binding's parameters, so only the
// emptied slot array carries over.
func (ec *execCtx) rebind(params *Params) {
	clear(ec.slots)
	*ec = execCtx{db: ec.db, params: params, plan: ec.plan, slots: ec.slots}
}

// cachedSub returns the memoized value of an invariant subquery: from its
// plan slot when planned, else from the text-keyed map.
func (ec *execCtx) cachedSub(e Expr) (Value, bool) {
	if ec.plan != nil {
		if slot, ok := ec.plan.slots[e]; ok {
			if slot < len(ec.slots) && ec.slots[slot].ok {
				return ec.slots[slot].v, true
			}
			return Null, false
		}
	}
	v, ok := ec.subCache[ec.cacheKey(e)]
	return v, ok
}

// storeSub memoizes the value of an invariant subquery for the rest of the
// execution (of the current binding, in a batch).
func (ec *execCtx) storeSub(e Expr, v Value) {
	if ec.plan != nil {
		if slot, ok := ec.plan.slots[e]; ok {
			if ec.slots == nil {
				ec.slots = make([]subSlot, ec.plan.nSlots)
			}
			ec.slots[slot] = subSlot{v: v, ok: true}
			return
		}
	}
	if ec.subCache == nil {
		ec.subCache = make(map[string]Value)
	}
	ec.subCache[ec.cacheKey(e)] = v
}

// cacheKey returns (memoized) the canonical text of an unplanned invariant
// subquery, so textually identical subqueries share one cache entry even
// when they are distinct AST nodes.
func (ec *execCtx) cacheKey(e Expr) string {
	if k, ok := ec.keyCache[e]; ok {
		return k
	}
	k := FormatExpr(e)
	if ec.keyCache == nil {
		ec.keyCache = make(map[Expr]string)
	}
	ec.keyCache[e] = k
	return k
}

// freeInfo summarizes which outer bindings an expression may reference.
type freeInfo struct {
	// unqual is set when the expression contains an unqualified column (or
	// a star), which could resolve to any binding.
	unqual bool
	// quals holds the lower-cased table qualifiers referenced.
	quals []string
}

// freeOf returns (computing and memoizing) the free-column analysis of e.
func (ec *execCtx) freeOf(e Expr) *freeInfo {
	if ec.plan != nil {
		if fi, ok := ec.plan.free[e]; ok {
			return fi
		}
	}
	if fi, ok := ec.free[e]; ok {
		return fi
	}
	fi := &freeInfo{}
	seen := make(map[string]bool)
	collectFree(e, nil, fi, seen)
	if ec.free == nil {
		ec.free = make(map[Expr]*freeInfo)
	}
	ec.free[e] = fi
	return fi
}

func collectFree(e Expr, shadow map[string]bool, fi *freeInfo, seen map[string]bool) {
	switch x := e.(type) {
	case nil, *ELit, *EParam:
	case *EColumn:
		lq, _ := x.keys()
		if lq == "" {
			fi.unqual = true
			return
		}
		if !shadow[lq] && !seen[lq] {
			seen[lq] = true
			fi.quals = append(fi.quals, lq)
		}
	case *EBinary:
		collectFree(x.L, shadow, fi, seen)
		collectFree(x.R, shadow, fi, seen)
	case *EUnary:
		collectFree(x.X, shadow, fi, seen)
	case *ECall:
		for _, a := range x.Args {
			collectFree(a, shadow, fi, seen)
		}
	case *EIsNull:
		collectFree(x.X, shadow, fi, seen)
	case *ESubquery:
		collectFreeSelect(x.Select, shadow, fi, seen)
	case *EExists:
		collectFreeSelect(x.Select, shadow, fi, seen)
	case *EIn:
		collectFree(x.X, shadow, fi, seen)
		if x.Sub != nil {
			collectFreeSelect(x.Sub, shadow, fi, seen)
		}
		for _, a := range x.List {
			collectFree(a, shadow, fi, seen)
		}
	default:
		fi.unqual = true // unknown node: be conservative
	}
}

func collectFreeSelect(st *SelectStmt, shadow map[string]bool, fi *freeInfo, seen map[string]bool) {
	inner := make(map[string]bool, len(shadow)+1+len(st.Joins))
	for k := range shadow {
		inner[k] = true
	}
	if st.From != nil {
		inner[strings.ToLower(st.From.Binding())] = true
	}
	for _, j := range st.Joins {
		inner[strings.ToLower(j.Table.Binding())] = true
	}
	for _, item := range st.Items {
		if item.Star {
			continue // expands only the subquery's own tables
		}
		collectFree(item.Expr, inner, fi, seen)
	}
	for _, j := range st.Joins {
		collectFree(j.On, inner, fi, seen)
	}
	collectFree(st.Where, inner, fi, seen)
	collectFree(st.Having, inner, fi, seen)
	collectFree(st.Limit, inner, fi, seen)
	for _, g := range st.GroupBy {
		collectFree(g, inner, fi, seen)
	}
	for _, o := range st.OrderBy {
		collectFree(o.Expr, inner, fi, seen)
	}
}

// invariant reports whether e cannot observe any binding of the frame
// chain, making its value constant for the whole statement execution.
func (ec *execCtx) invariant(e Expr, fr *frame) bool {
	fi := ec.freeOf(e)
	if fi.unqual && fr != nil {
		for scope := fr; scope != nil; scope = scope.parent {
			if len(scope.tables) > 0 {
				return false
			}
		}
	}
	for _, q := range fi.quals {
		for scope := fr; scope != nil; scope = scope.parent {
			for _, bt := range scope.tables {
				if bt.binding == q {
					return false
				}
			}
		}
	}
	return true
}

type groupCtx struct {
	fr     *frame
	tuples []tuple
}

// vecPlanFor returns the select's plan when the vectorized engine will run
// it: planned, compiled, and the engine selected. Callers on scalar-position
// paths use it to skip ResultSet materialization (vecExecScalar et al.).
func (ec *execCtx) vecPlanFor(st *SelectStmt) *selectPlan {
	if ec.plan == nil || !ec.db.vecOn.Load() {
		return nil
	}
	sp := ec.plan.selects[st]
	if sp == nil || sp.vec == nil {
		return nil
	}
	return sp
}

func (ec *execCtx) execSelect(st *SelectStmt, parent *frame) (*ResultSet, error) {
	// sp is the precomputed strategy of this SELECT node, nil on the
	// unprepared path.
	var sp *selectPlan
	if ec.plan != nil {
		sp = ec.plan.selects[st]
	}
	// Engine dispatch: a planned SELECT with a compiled vectorized form runs
	// batch-at-a-time when the vectorized engine is selected; everything else
	// (unplanned statements, shapes the compiler refused) stays on the row
	// interpreter below.
	if sp != nil && ec.db.vecOn.Load() {
		if sp.vec != nil {
			ec.db.vecSelects.Add(1)
			return ec.vecExecSelect(st, sp, parent)
		}
		ec.db.countFallback(sp.vecReason)
	}
	fr := &frame{parent: parent}
	var tuples []tuple

	if st.From == nil {
		tuples = []tuple{{}}
	} else {
		var bt *boundTable
		if sp != nil {
			bt = &boundTable{binding: sp.fromBinding, table: sp.from}
		} else {
			var err error
			if bt, err = ec.bind(*st.From); err != nil {
				return nil, err
			}
		}
		fr.tables = append(fr.tables, bt)
		// Seed tuples from the first table, using an index if the WHERE
		// clause pins an indexed column of this table to a constant.
		rows, err := ec.seedRows(st, sp, fr, bt)
		if err != nil {
			return nil, err
		}
		tuples = make([]tuple, 0, len(rows))
		for _, r := range rows {
			tuples = append(tuples, tuple{r})
		}
		for ji, j := range st.Joins {
			var jbt *boundTable
			var jp *joinPlan
			if sp != nil {
				jp = &sp.joins[ji]
				jbt = &boundTable{binding: jp.binding, table: jp.table}
			} else if jbt, err = ec.bind(j.Table); err != nil {
				return nil, err
			}
			fr.tables = append(fr.tables, jbt)
			tuples, err = ec.join(fr, tuples, jbt, j.On, jp)
			if err != nil {
				return nil, err
			}
		}
	}

	// WHERE filter.
	if st.Where != nil {
		kept := tuples[:0]
		for _, tp := range tuples {
			setTuple(fr, tp)
			ok, err := ec.evalBool(st.Where, fr)
			if err != nil {
				return nil, err
			}
			if ok {
				kept = append(kept, tp)
			}
		}
		tuples = kept
	}

	var grouped bool
	var aliases map[string]int // select alias -> output column
	if sp != nil {
		grouped = sp.grouped
		aliases = sp.aliases // read-only: shared across concurrent executions
	} else {
		tables := make([]*Table, len(fr.tables))
		for i, bt := range fr.tables {
			tables[i] = bt.table
		}
		grouped, aliases = selectShape(st, tables)
	}

	set := &ResultSet{}
	{
		tables := make([]*Table, len(fr.tables))
		for i, bt := range fr.tables {
			tables[i] = bt.table
		}
		set.Columns = selectColumns(st, tables)
	}

	project := func(tp tuple) (Row, error) {
		setTuple(fr, tp)
		var out Row
		for _, item := range st.Items {
			if item.Star {
				for _, bt := range fr.tables {
					if bt.row == nil {
						out = append(out, make(Row, len(bt.table.Columns))...)
					} else {
						out = append(out, bt.row...)
					}
				}
				continue
			}
			v, err := ec.eval(item.Expr, fr)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	}

	var rows []sortableRow

	orderKeys := func(tp tuple, out Row) ([]Value, error) {
		if len(st.OrderBy) == 0 {
			return nil, nil
		}
		setTuple(fr, tp)
		keys := make([]Value, len(st.OrderBy))
		for i, item := range st.OrderBy {
			// ORDER BY may name a select alias or a 1-based column ordinal.
			if col, ok := item.Expr.(*EColumn); ok && col.Qual == "" {
				if idx, ok := aliases[strings.ToLower(col.Name)]; ok {
					keys[i] = out[idx]
					continue
				}
			}
			if lit, ok := item.Expr.(*ELit); ok && lit.Value.IsInt() {
				n := int(lit.Value.Int())
				if n >= 1 && n <= len(out) {
					keys[i] = out[n-1]
					continue
				}
			}
			v, err := ec.eval(item.Expr, fr)
			if err != nil {
				return nil, err
			}
			keys[i] = v
		}
		return keys, nil
	}

	if grouped {
		groups, order, err := ec.groupTuples(st, fr, tuples)
		if err != nil {
			return nil, err
		}
		for _, key := range order {
			g := groups[key]
			saved := ec.group
			ec.group = &groupCtx{fr: fr, tuples: g}
			rep := tuple(nil)
			if len(g) > 0 {
				rep = g[0]
			} else {
				rep = make(tuple, len(fr.tables))
			}
			if st.Having != nil {
				setTuple(fr, rep)
				ok, err := ec.evalBool(st.Having, fr)
				if err != nil {
					ec.group = saved
					return nil, err
				}
				if !ok {
					ec.group = saved
					continue
				}
			}
			out, err := project(rep)
			if err != nil {
				ec.group = saved
				return nil, err
			}
			keys, err := orderKeys(rep, out)
			if err != nil {
				ec.group = saved
				return nil, err
			}
			rows = append(rows, sortableRow{row: out, keys: keys})
			ec.group = saved
		}
	} else {
		for _, tp := range tuples {
			out, err := project(tp)
			if err != nil {
				return nil, err
			}
			keys, err := orderKeys(tp, out)
			if err != nil {
				return nil, err
			}
			rows = append(rows, sortableRow{row: out, keys: keys})
		}
	}

	if err := sortRows(rows, st.OrderBy); err != nil {
		return nil, err
	}

	if st.Limit != nil {
		lv, err := ec.eval(st.Limit, fr)
		if err != nil {
			return nil, err
		}
		if !lv.IsNumeric() {
			return nil, fmt.Errorf("sqldb: LIMIT is not numeric")
		}
		n := int(lv.Float())
		if n < 0 {
			n = 0
		}
		if n < len(rows) {
			rows = rows[:n]
		}
	}

	set.Rows = make([]Row, len(rows))
	for i := range rows {
		set.Rows[i] = rows[i].row
	}
	return set, nil
}

// groupTuples partitions tuples by the GROUP BY keys. Without GROUP BY all
// tuples form one group (which exists even when empty). Returns the groups
// and the deterministic iteration order of their keys.
func (ec *execCtx) groupTuples(st *SelectStmt, fr *frame, tuples []tuple) (map[string][]tuple, []string, error) {
	groups := make(map[string][]tuple)
	var order []string
	if len(st.GroupBy) == 0 {
		groups[""] = tuples
		return groups, []string{""}, nil
	}
	for _, tp := range tuples {
		setTuple(fr, tp)
		var key strings.Builder
		for _, e := range st.GroupBy {
			v, err := ec.eval(e, fr)
			if err != nil {
				return nil, nil, err
			}
			key.WriteString(v.Key())
			key.WriteByte(0)
		}
		k := key.String()
		if _, ok := groups[k]; !ok {
			order = append(order, k)
		}
		groups[k] = append(groups[k], tp)
	}
	return groups, order, nil
}

func (ec *execCtx) bind(ref TableRef) (*boundTable, error) {
	t := ec.db.tables[strings.ToLower(ref.Table)]
	if t == nil {
		return nil, fmt.Errorf("sqldb: no table %s", ref.Table)
	}
	return &boundTable{binding: strings.ToLower(ref.Binding()), table: t}, nil
}

func setTuple(fr *frame, tp tuple) {
	for i, bt := range fr.tables {
		if i < len(tp) {
			bt.row = tp[i]
		} else {
			bt.row = nil
		}
	}
}

// seedRows returns the candidate rows of the first table, using a hash index
// when the WHERE clause contains a top-level "col = expr" conjunct on an
// indexed column of this table whose right-hand side is independent of the
// scanned table (literals, parameters, outer-scope correlations, and
// uncorrelated subqueries all qualify). This turns the nested dereference
// subqueries emitted by the ASL property compiler from full scans into O(1)
// point lookups. With a plan the candidate conjuncts were matched at prepare
// time; whether a column is indexed is still checked here so lazily built
// join indexes are picked up.
func (ec *execCtx) seedRows(st *SelectStmt, sp *selectPlan, fr *frame, bt *boundTable) ([]Row, error) {
	tryLookup := func(col int, val Expr) ([]Row, bool) {
		ix := bt.table.index(col)
		if ix == nil {
			return nil, false
		}
		v, err := ec.eval(val, fr)
		if err != nil || !probeable(bt.table.cols[col].typ, v) {
			return nil, false // not evaluable up front, or `=` raises; scan
		}
		positions := ix.get(v)
		all := bt.table.scan()
		rows := make([]Row, len(positions))
		for i, pos := range positions {
			rows[i] = all[pos]
		}
		return rows, true
	}
	if sp != nil {
		for _, ap := range sp.access {
			if rows, ok := tryLookup(ap.col, ap.val); ok {
				return rows, nil
			}
		}
		return bt.table.scan(), nil
	}
	if st.Where != nil {
		for _, conj := range conjuncts(st.Where) {
			bin, ok := conj.(*EBinary)
			if !ok || bin.Op != OpEq {
				continue
			}
			col, val := matchColConst(bin, bt)
			if col < 0 {
				continue
			}
			if rows, ok := tryLookup(col, val); ok {
				return rows, nil
			}
		}
	}
	return bt.table.scan(), nil
}

// conjuncts flattens a top-level AND tree.
func conjuncts(e Expr) []Expr {
	if bin, ok := e.(*EBinary); ok && bin.Op == OpAnd {
		return append(conjuncts(bin.L), conjuncts(bin.R)...)
	}
	return []Expr{e}
}

// matchColConst matches "bt.col = expr" (either orientation) where expr does
// not reference the scanned table; returns (-1, nil) if no match.
func matchColConst(bin *EBinary, bt *boundTable) (int, Expr) {
	try := func(colE, constE Expr) (int, Expr) {
		col, ok := colE.(*EColumn)
		if !ok {
			return -1, nil
		}
		if col.Qual != "" && strings.ToLower(col.Qual) != bt.binding {
			return -1, nil
		}
		pos := bt.table.ColumnIndex(col.Name)
		if pos < 0 || exprRefsBinding(constE, bt.binding) {
			return -1, nil
		}
		return pos, constE
	}
	if col, c := try(bin.L, bin.R); col >= 0 {
		return col, c
	}
	return try(bin.R, bin.L)
}

// exprRefsBinding reports whether the expression might reference columns of
// the table bound under the given (lower-cased) name. Unqualified columns
// are treated as possible references. Subqueries are analyzed recursively;
// a subquery that rebinds the same name shadows the outer table, so its
// interior cannot reference it.
func exprRefsBinding(e Expr, binding string) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *ELit, *EParam:
		return false
	case *EColumn:
		return x.Qual == "" || strings.ToLower(x.Qual) == binding
	case *EBinary:
		return exprRefsBinding(x.L, binding) || exprRefsBinding(x.R, binding)
	case *EUnary:
		return exprRefsBinding(x.X, binding)
	case *ECall:
		for _, a := range x.Args {
			if exprRefsBinding(a, binding) {
				return true
			}
		}
		return false
	case *EIsNull:
		return exprRefsBinding(x.X, binding)
	case *ESubquery:
		return selectRefsBinding(x.Select, binding)
	case *EExists:
		return selectRefsBinding(x.Select, binding)
	case *EIn:
		if exprRefsBinding(x.X, binding) {
			return true
		}
		if x.Sub != nil && selectRefsBinding(x.Sub, binding) {
			return true
		}
		for _, a := range x.List {
			if exprRefsBinding(a, binding) {
				return true
			}
		}
		return false
	}
	return true // unknown node: be conservative
}

func selectRefsBinding(st *SelectStmt, binding string) bool {
	// If the subquery rebinds the name, outer references are shadowed.
	if st.From != nil && strings.ToLower(st.From.Binding()) == binding {
		return false
	}
	for _, j := range st.Joins {
		if strings.ToLower(j.Table.Binding()) == binding {
			return false
		}
	}
	for _, item := range st.Items {
		if item.Star {
			return true // star could expand the outer binding's columns
		}
		if exprRefsBinding(item.Expr, binding) {
			return true
		}
	}
	for _, j := range st.Joins {
		if exprRefsBinding(j.On, binding) {
			return true
		}
	}
	if exprRefsBinding(st.Where, binding) || exprRefsBinding(st.Having, binding) || exprRefsBinding(st.Limit, binding) {
		return true
	}
	for _, g := range st.GroupBy {
		if exprRefsBinding(g, binding) {
			return true
		}
	}
	for _, o := range st.OrderBy {
		if exprRefsBinding(o.Expr, binding) {
			return true
		}
	}
	return false
}

// join extends each tuple with matching rows of the newly bound table,
// using a hash join for equi-join conditions and a nested loop otherwise.
// With a plan the strategy (equi-join column, residual conjuncts) was chosen
// at prepare time.
func (ec *execCtx) join(fr *frame, tuples []tuple, jbt *boundTable, on Expr, jp *joinPlan) ([]tuple, error) {
	// Detect "jbt.col = outerExpr" among the ON conjuncts.
	var eqCol = -1
	var outerExpr Expr
	var rest []Expr
	if jp != nil {
		eqCol, outerExpr, rest = jp.eqCol, jp.outer, jp.rest
	} else {
		eqCol, outerExpr, rest = joinStrategy(on, jbt)
	}

	var out []tuple
	if eqCol >= 0 {
		ix := jbt.table.createIndex(eqCol)
		jrows := jbt.table.scan()
		for _, tp := range tuples {
			setTuple(fr, tp)
			jbt.row = nil
			key, err := ec.eval(outerExpr, fr)
			if err != nil {
				return nil, err
			}
			if key.IsNull() {
				continue
			}
			for _, pos := range ix.get(key) {
				r := jrows[pos]
				ok, err := ec.checkConjuncts(rest, fr, tp, jbt, r)
				if err != nil {
					return nil, err
				}
				if ok {
					out = append(out, append(append(tuple{}, tp...), r))
				}
			}
		}
		return out, nil
	}

	// Nested-loop fallback: eqCol < 0 here, so rest holds every conjunct on
	// both the planned and the dynamic path.
	for _, tp := range tuples {
		for _, r := range jbt.table.scan() {
			ok, err := ec.checkConjuncts(rest, fr, tp, jbt, r)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, append(append(tuple{}, tp...), r))
			}
		}
	}
	return out, nil
}

func (ec *execCtx) checkConjuncts(conds []Expr, fr *frame, tp tuple, jbt *boundTable, r Row) (bool, error) {
	setTuple(fr, tp)
	jbt.row = r
	for _, c := range conds {
		ok, err := ec.evalBool(c, fr)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// joinStrategy chooses how to execute one JOIN: it scans the ON conjuncts
// for a "jbt.col = outerExpr" condition usable as a hash join. eqCol is -1
// when none exists; rest holds the conjuncts still checked per candidate row
// (all of them in the nested-loop case). Shared by the planner and the
// dynamic execution path, so both choose identically.
func joinStrategy(on Expr, jbt *boundTable) (eqCol int, outer Expr, rest []Expr) {
	eqCol = -1
	for _, conj := range conjuncts(on) {
		if eqCol < 0 {
			if bin, ok := conj.(*EBinary); ok && bin.Op == OpEq {
				if col, other := matchJoinCol(bin, jbt); col >= 0 {
					eqCol, outer = col, other
					continue
				}
			}
		}
		rest = append(rest, conj)
	}
	return eqCol, outer, rest
}

// selectShape derives the projection shape of a SELECT over its bound
// tables: whether the query is grouped, and the alias → output-column map
// used by ORDER BY. Shared by the planner and the dynamic execution path.
func selectShape(st *SelectStmt, tables []*Table) (grouped bool, aliases map[string]int) {
	grouped = len(st.GroupBy) > 0 || st.Having != nil
	aliases = map[string]int{}
	col := 0
	for _, item := range st.Items {
		if item.Star {
			for _, t := range tables {
				col += len(t.Columns)
			}
			continue
		}
		if !grouped && hasAggregate(item.Expr) {
			grouped = true
		}
		if item.Alias != "" {
			aliases[strings.ToLower(item.Alias)] = col
		}
		col++
	}
	return grouped, aliases
}

// selectColumns derives the output column names of a SELECT over its bound
// tables. Shared by both engines so result shapes match exactly.
func selectColumns(st *SelectStmt, tables []*Table) []string {
	var cols []string
	for _, item := range st.Items {
		if item.Star {
			for _, t := range tables {
				for _, c := range t.Columns {
					cols = append(cols, c.Name)
				}
			}
			continue
		}
		name := item.Alias
		if name == "" {
			if col, ok := item.Expr.(*EColumn); ok {
				name = col.Name
			} else {
				name = fmt.Sprintf("col%d", len(cols)+1)
			}
		}
		cols = append(cols, name)
	}
	return cols
}

// sortableRow pairs an output row with its precomputed ORDER BY keys.
type sortableRow struct {
	row  Row
	keys []Value
}

// sortRows stable-sorts output rows on their ORDER BY keys, NULLs last
// regardless of direction unless a key asks for NULLS FIRST. Shared by both
// engines so tie-breaking and incomparable-type errors match exactly.
func sortRows(rows []sortableRow, order []OrderItem) error {
	if len(order) == 0 {
		return nil
	}
	var sortErr error
	sort.SliceStable(rows, func(i, j int) bool {
		for k, item := range order {
			a, b := rows[i].keys[k], rows[j].keys[k]
			// NULLs sort last regardless of direction, first on NULLS FIRST.
			if a.IsNull() || b.IsNull() {
				if a.IsNull() && b.IsNull() {
					continue
				}
				if item.NullsFirst {
					return a.IsNull()
				}
				return b.IsNull()
			}
			cmp, err := Compare(a, b)
			if err != nil {
				sortErr = err
				return false
			}
			if cmp == 0 {
				continue
			}
			if item.Desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	})
	return sortErr
}

// matchJoinCol matches "jbt.col = expr" where expr does not reference jbt.
func matchJoinCol(bin *EBinary, jbt *boundTable) (int, Expr) {
	try := func(colE, otherE Expr) (int, Expr) {
		col, ok := colE.(*EColumn)
		if !ok {
			return -1, nil
		}
		if strings.ToLower(col.Qual) != jbt.binding {
			return -1, nil
		}
		pos := jbt.table.ColumnIndex(col.Name)
		if pos < 0 || exprRefsBinding(otherE, jbt.binding) {
			return -1, nil
		}
		return pos, otherE
	}
	if col, other := try(bin.L, bin.R); col >= 0 {
		return col, other
	}
	return try(bin.R, bin.L)
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

// evalBool evaluates a predicate under three-valued logic; NULL counts as
// false for filtering.
func (ec *execCtx) evalBool(e Expr, fr *frame) (bool, error) {
	v, err := ec.eval(e, fr)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	if !v.IsBool() {
		return false, fmt.Errorf("sqldb: predicate evaluated to %s, want boolean", v)
	}
	return v.Bool(), nil
}

func (ec *execCtx) eval(e Expr, fr *frame) (Value, error) {
	switch x := e.(type) {
	case *ELit:
		return x.Value, nil
	case *EParam:
		if ec.params == nil {
			return Null, fmt.Errorf("sqldb: statement has parameters but none were supplied")
		}
		if x.Name != "" {
			v, ok := ec.params.Named[x.Name]
			if !ok {
				return Null, fmt.Errorf("sqldb: missing named parameter $%s", x.Name)
			}
			return v, nil
		}
		if x.Ordinal >= len(ec.params.Positional) {
			return Null, fmt.Errorf("sqldb: missing positional parameter %d", x.Ordinal+1)
		}
		return ec.params.Positional[x.Ordinal], nil
	case *EColumn:
		bt, col, err := fr.resolve(x)
		if err != nil {
			return Null, err
		}
		if bt.row == nil {
			return Null, nil
		}
		return bt.row[col], nil
	case *EUnary:
		v, err := ec.eval(x.X, fr)
		if err != nil {
			return Null, err
		}
		return applyUnary(x.Neg, v)
	case *EBinary:
		return ec.evalBinary(x, fr)
	case *ECall:
		return ec.evalCall(x, fr)
	case *EIsNull:
		v, err := ec.eval(x.X, fr)
		if err != nil {
			return Null, err
		}
		return NewBool(v.IsNull() != x.Not), nil
	case *ESubquery:
		cacheable := ec.invariant(x, fr)
		if cacheable {
			if v, ok := ec.cachedSub(x); ok {
				return v, nil
			}
		}
		var v Value
		if sp := ec.vecPlanFor(x.Select); sp != nil {
			ec.db.vecSelects.Add(1)
			if n := len(sp.vec.columns); n != 1 {
				return Null, fmt.Errorf("sqldb: scalar subquery returns %d columns", n)
			}
			sv, err := ec.vecExecScalar(x.Select, sp, fr)
			if err != nil {
				return Null, err
			}
			v = sv
		} else {
			set, err := ec.execSelect(x.Select, fr)
			if err != nil {
				return Null, err
			}
			if len(set.Columns) != 1 {
				return Null, fmt.Errorf("sqldb: scalar subquery returns %d columns", len(set.Columns))
			}
			switch len(set.Rows) {
			case 0:
				v = Null
			case 1:
				v = set.Rows[0][0]
			default:
				return Null, fmt.Errorf("sqldb: scalar subquery returned %d rows", len(set.Rows))
			}
		}
		if cacheable {
			ec.storeSub(x, v)
		}
		return v, nil
	case *EExists:
		cacheable := ec.invariant(x, fr)
		if cacheable {
			if v, ok := ec.cachedSub(x); ok {
				return v, nil
			}
		}
		var v Value
		if sp := ec.vecPlanFor(x.Select); sp != nil {
			ec.db.vecSelects.Add(1)
			ev, err := ec.vecExecExists(x.Select, sp, fr)
			if err != nil {
				return Null, err
			}
			v = ev
		} else {
			set, err := ec.execSelect(x.Select, fr)
			if err != nil {
				return Null, err
			}
			v = NewBool(len(set.Rows) > 0)
		}
		if cacheable {
			ec.storeSub(x, v)
		}
		return v, nil
	case *EIn:
		return ec.evalIn(x, fr)
	}
	return Null, fmt.Errorf("sqldb: unhandled expression %T", e)
}

func (ec *execCtx) evalIn(x *EIn, fr *frame) (Value, error) {
	lv, err := ec.eval(x.X, fr)
	if err != nil {
		return Null, err
	}
	var candidates []Value
	if x.Sub != nil {
		set, err := ec.execSelect(x.Sub, fr)
		if err != nil {
			return Null, err
		}
		if len(set.Columns) != 1 {
			return Null, fmt.Errorf("sqldb: IN subquery returns %d columns", len(set.Columns))
		}
		for _, r := range set.Rows {
			candidates = append(candidates, r[0])
		}
	} else {
		for _, e := range x.List {
			v, err := ec.eval(e, fr)
			if err != nil {
				return Null, err
			}
			candidates = append(candidates, v)
		}
	}
	return applyInList(lv, candidates, x.Not)
}

func (ec *execCtx) evalBinary(x *EBinary, fr *frame) (Value, error) {
	if x.Op == OpAnd || x.Op == OpOr {
		lv, err := ec.eval(x.L, fr)
		if err != nil {
			return Null, err
		}
		// Kleene three-valued logic with short-circuiting.
		if decided, v := logicalShortCircuit(x.Op, lv); decided {
			return v, nil
		}
		rv, err := ec.eval(x.R, fr)
		if err != nil {
			return Null, err
		}
		return combineAndOr(x.Op, lv, rv)
	}

	lv, err := ec.eval(x.L, fr)
	if err != nil {
		return Null, err
	}
	rv, err := ec.eval(x.R, fr)
	if err != nil {
		return Null, err
	}
	return applyBinary(x.Op, lv, rv)
}

// logicalShortCircuit reports whether the left operand alone decides an
// AND/OR, and the decided value. Shared by both engines so they skip the
// right operand (and any error it would raise) for exactly the same rows.
func logicalShortCircuit(op BinOp, lv Value) (bool, Value) {
	if !lv.IsNull() && lv.IsBool() {
		if op == OpAnd && !lv.Bool() {
			return true, NewBool(false)
		}
		if op == OpOr && lv.Bool() {
			return true, NewBool(true)
		}
	}
	return false, Null
}

// combineAndOr applies three-valued AND/OR to two evaluated operands.
func combineAndOr(op BinOp, lv, rv Value) (Value, error) {
	lb, lok := boolOrNull(lv)
	rb, rok := boolOrNull(rv)
	if (lv.IsNull() || lok) && (rv.IsNull() || rok) {
		switch op {
		case OpAnd:
			if lok && rok {
				return NewBool(lb && rb), nil
			}
			if (lok && !lb) || (rok && !rb) {
				return NewBool(false), nil
			}
			return Null, nil
		case OpOr:
			if lok && rok {
				return NewBool(lb || rb), nil
			}
			if (lok && lb) || (rok && rb) {
				return NewBool(true), nil
			}
			return Null, nil
		}
	}
	return Null, fmt.Errorf("sqldb: %s on non-boolean operands", op)
}

// applyBinary applies a non-logical binary operator to two evaluated
// operands, including the NULL propagation. Both engines evaluate binary
// expressions through this single kernel, so semantics — and error texts —
// cannot drift between them.
func applyBinary(op BinOp, lv, rv Value) (Value, error) {
	if lv.IsNull() || rv.IsNull() {
		return Null, nil
	}
	switch op {
	case OpEq, OpNeq, OpLt, OpLeq, OpGt, OpGeq:
		cmp, err := Compare(lv, rv)
		if err != nil {
			return Null, err
		}
		var b bool
		switch op {
		case OpEq:
			b = cmp == 0
		case OpNeq:
			b = cmp != 0
		case OpLt:
			b = cmp < 0
		case OpLeq:
			b = cmp <= 0
		case OpGt:
			b = cmp > 0
		case OpGeq:
			b = cmp >= 0
		}
		return NewBool(b), nil
	case OpConcat:
		if !lv.IsText() || !rv.IsText() {
			return Null, fmt.Errorf("sqldb: || on %s and %s", lv, rv)
		}
		return NewText(lv.Text() + rv.Text()), nil
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		if !lv.IsNumeric() || !rv.IsNumeric() {
			return Null, fmt.Errorf("sqldb: %s on %s and %s", op, lv, rv)
		}
		if op == OpMod {
			if !lv.IsInt() || !rv.IsInt() {
				return Null, fmt.Errorf("sqldb: %% on non-integers")
			}
			if rv.Int() == 0 {
				return Null, fmt.Errorf("sqldb: modulo by zero")
			}
			return NewInt(lv.Int() % rv.Int()), nil
		}
		if op == OpDiv {
			if rv.Float() == 0 {
				return Null, fmt.Errorf("sqldb: division by zero")
			}
			return NewFloat(lv.Float() / rv.Float()), nil
		}
		if lv.IsInt() && rv.IsInt() {
			switch op {
			case OpAdd:
				return NewInt(lv.Int() + rv.Int()), nil
			case OpSub:
				return NewInt(lv.Int() - rv.Int()), nil
			case OpMul:
				return NewInt(lv.Int() * rv.Int()), nil
			}
		}
		var f float64
		switch op {
		case OpAdd:
			f = lv.Float() + rv.Float()
		case OpSub:
			f = lv.Float() - rv.Float()
		case OpMul:
			f = lv.Float() * rv.Float()
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return Null, fmt.Errorf("sqldb: arithmetic overflow")
		}
		return NewFloat(f), nil
	}
	return Null, fmt.Errorf("sqldb: unhandled operator %s", op)
}

func boolOrNull(v Value) (bool, bool) {
	if v.IsBool() {
		return v.Bool(), true
	}
	return false, false
}

// applyUnary applies unary minus (neg) or NOT to an evaluated operand.
// Shared by both engines.
func applyUnary(neg bool, v Value) (Value, error) {
	if v.IsNull() {
		return Null, nil
	}
	if neg {
		switch {
		case v.IsInt():
			return NewInt(-v.Int()), nil
		case v.IsNumeric():
			return NewFloat(-v.Float()), nil
		}
		return Null, fmt.Errorf("sqldb: unary - on %s", v)
	}
	if !v.IsBool() {
		return Null, fmt.Errorf("sqldb: NOT on %s", v)
	}
	return NewBool(!v.Bool()), nil
}

// applyInList applies IN/NOT IN membership to an evaluated needle and an
// evaluated candidate list, with SQL NULL semantics. Shared by both engines.
func applyInList(lv Value, candidates []Value, not bool) (Value, error) {
	if lv.IsNull() {
		return Null, nil
	}
	sawNull := false
	for _, c := range candidates {
		if c.IsNull() {
			sawNull = true
			continue
		}
		cmp, err := Compare(lv, c)
		if err != nil {
			continue // incomparable values never match
		}
		if cmp == 0 {
			return NewBool(!not), nil
		}
	}
	if sawNull {
		return Null, nil
	}
	return NewBool(not), nil
}

func (ec *execCtx) evalCall(x *ECall, fr *frame) (Value, error) {
	if x.IsAggregate() {
		if ec.aggPre != nil {
			if v, ok := ec.aggPre[x]; ok {
				return v, nil
			}
		}
		return ec.evalAggregate(x, fr)
	}
	args := make([]Value, len(x.Args))
	for i, a := range x.Args {
		v, err := ec.eval(a, fr)
		if err != nil {
			return Null, err
		}
		args[i] = v
	}
	return applyScalarFunc(x.Name, args)
}

// applyScalarFunc applies a scalar SQL function to evaluated arguments.
// Shared by both engines, so function semantics and error texts match.
func applyScalarFunc(rawName string, args []Value) (Value, error) {
	name := strings.ToUpper(rawName)
	switch name {
	case "ABS":
		if len(args) != 1 {
			return Null, fmt.Errorf("sqldb: ABS takes 1 argument")
		}
		v := args[0]
		if v.IsNull() {
			return Null, nil
		}
		if v.IsInt() {
			if v.Int() < 0 {
				return NewInt(-v.Int()), nil
			}
			return v, nil
		}
		if v.IsNumeric() {
			return NewFloat(math.Abs(v.Float())), nil
		}
		return Null, fmt.Errorf("sqldb: ABS on %s", v)
	case "SQRT":
		if len(args) != 1 {
			return Null, fmt.Errorf("sqldb: SQRT takes 1 argument")
		}
		v := args[0]
		if v.IsNull() {
			return Null, nil
		}
		if !v.IsNumeric() || v.Float() < 0 {
			return Null, fmt.Errorf("sqldb: SQRT on %s", v)
		}
		return NewFloat(math.Sqrt(v.Float())), nil
	case "COALESCE":
		for _, v := range args {
			if !v.IsNull() {
				return v, nil
			}
		}
		return Null, nil
	case "NULLIF":
		if len(args) != 2 {
			return Null, fmt.Errorf("sqldb: NULLIF takes 2 arguments")
		}
		if args[0].IsNull() || args[1].IsNull() {
			return args[0], nil
		}
		if cmp, err := Compare(args[0], args[1]); err == nil && cmp == 0 {
			return Null, nil
		}
		return args[0], nil
	case "LENGTH":
		if len(args) != 1 {
			return Null, fmt.Errorf("sqldb: LENGTH takes 1 argument")
		}
		if args[0].IsNull() {
			return Null, nil
		}
		if !args[0].IsText() {
			return Null, fmt.Errorf("sqldb: LENGTH on %s", args[0])
		}
		return NewInt(int64(len(args[0].Text()))), nil
	case "UPPER", "LOWER":
		if len(args) != 1 {
			return Null, fmt.Errorf("sqldb: %s takes 1 argument", name)
		}
		if args[0].IsNull() {
			return Null, nil
		}
		if !args[0].IsText() {
			return Null, fmt.Errorf("sqldb: %s on %s", name, args[0])
		}
		if name == "UPPER" {
			return NewText(strings.ToUpper(args[0].Text())), nil
		}
		return NewText(strings.ToLower(args[0].Text())), nil
	}
	return Null, fmt.Errorf("sqldb: unknown function %s", rawName)
}

func (ec *execCtx) evalAggregate(x *ECall, fr *frame) (Value, error) {
	if ec.group == nil {
		return Null, fmt.Errorf("sqldb: aggregate %s outside grouped query", x.Name)
	}
	g := ec.group
	// Disable aggregate context while evaluating the argument per tuple so
	// that nested aggregates are rejected.
	ec.group = nil
	defer func() { ec.group = g }()

	name := strings.ToUpper(x.Name)
	if x.Star {
		if name != "COUNT" {
			return Null, fmt.Errorf("sqldb: %s(*) is not valid", x.Name)
		}
		return NewInt(int64(len(g.tuples))), nil
	}
	if len(x.Args) != 1 {
		return Null, fmt.Errorf("sqldb: aggregate %s takes 1 argument", x.Name)
	}

	acc := newAggAcc()
	for _, tp := range g.tuples {
		setTuple(g.fr, tp)
		v, err := ec.eval(x.Args[0], g.fr)
		if err != nil {
			return Null, err
		}
		if err := acc.add(name, v); err != nil {
			return Null, err
		}
	}
	return acc.final(name, x.Name)
}

// aggAcc accumulates one aggregate over non-NULL inputs. Both engines feed
// values through add in storage (row) order, so float summation — and with it
// SUM/AVG results — is bit-identical across them.
type aggAcc struct {
	count  int64
	sum    float64
	allInt bool
	best   Value
}

func newAggAcc() aggAcc { return aggAcc{allInt: true} }

// add folds one input value into the accumulator for the (upper-cased)
// aggregate name. NULL inputs are skipped, per SQL.
func (a *aggAcc) add(name string, v Value) error {
	if v.IsNull() {
		return nil
	}
	a.count++
	switch name {
	case "SUM", "AVG":
		if !v.IsNumeric() {
			return fmt.Errorf("sqldb: %s over non-numeric %s", name, v)
		}
		if !v.IsInt() {
			a.allInt = false
		}
		a.sum += v.Float()
	case "MIN", "MAX":
		if a.best.IsNull() {
			a.best = v
			return nil
		}
		cmp, err := Compare(v, a.best)
		if err != nil {
			return err
		}
		if (name == "MIN" && cmp < 0) || (name == "MAX" && cmp > 0) {
			a.best = v
		}
	}
	return nil
}

// final produces the aggregate result. name is upper-cased; rawName is the
// source spelling, used in error texts.
func (a *aggAcc) final(name, rawName string) (Value, error) {
	switch name {
	case "COUNT":
		return NewInt(a.count), nil
	case "SUM":
		if a.count == 0 {
			return Null, nil
		}
		if a.allInt {
			return NewInt(int64(a.sum)), nil
		}
		return NewFloat(a.sum), nil
	case "AVG":
		if a.count == 0 {
			return Null, nil
		}
		return NewFloat(a.sum / float64(a.count)), nil
	case "MIN", "MAX":
		return a.best, nil
	}
	return Null, fmt.Errorf("sqldb: unhandled aggregate %s", rawName)
}
