package sqldb

import (
	"container/list"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// The prepared-statement pipeline: parsing and planning are split from
// execution so that a statement which runs many times with only its
// parameters changing (the ASL property queries run once per property ×
// context instance) pays its front-end cost once.
//
// A plan captures everything about a statement that does not depend on
// parameter values or row data: the parsed AST, the resolved tables, the
// chosen access paths and join strategies, the free-column analysis of every
// subquery, and the cache slot of every subquery. Plans are immutable after
// construction, so one PreparedStmt may be executed from many goroutines
// concurrently; per-execution state (current rows, the invariant subquery
// values) lives in the execCtx of an Execute or a whole batch.
//
// Plans are invalidated by DDL: every CREATE TABLE, DROP TABLE, and CREATE
// INDEX bumps the database's schema version, and a PreparedStmt whose plan
// was built against an older version transparently replans on its next
// Execute. A handle whose table was dropped fails cleanly at that point.

// DefaultPlanCacheSize is the capacity of the per-DB plan cache that backs
// ad-hoc Exec calls.
const DefaultPlanCacheSize = 128

// stmtPlan is one immutable execution plan.
type stmtPlan struct {
	stmt    Stmt
	version int64 // schema version the plan was built against
	// free memoizes the free-column analysis of subquery nodes. slots gives
	// each subquery node a dense index into the execution's subquery value
	// cache (execCtx.slots); textually equal subqueries share a slot, so the
	// property compiler's repeated parameter-correlated subqueries run once
	// per binding. nSlots is the number of distinct slots. Read-only after
	// planning.
	free   map[Expr]*freeInfo
	slots  map[Expr]int
	nSlots int
	// slotOf maps canonical subquery text to its slot while planning; nil
	// once the plan is built.
	slotOf map[string]int
	// selects holds the per-SELECT plans, keyed by AST node (the statement
	// tree may nest SELECTs in subqueries and IN clauses).
	selects map[*SelectStmt]*selectPlan
	// canonKey is the interned identity of the statement's canonical text,
	// rendered as a result-cache key prefix; empty for statements the result
	// cache does not serve (DML). Interning keeps keys compact — property
	// queries run to kilobytes of SQL (see DB.canonicalID).
	canonKey string
	// dml is the compiled columnar UPDATE/DELETE pipeline, nil when the
	// statement is not DML or its shape is not vectorized (see vecdml.go).
	dml *vecDMLPlan
	// tables lists every table the plan references (FROM and JOIN clauses of
	// the statement and all its subqueries, deduplicated); the result cache
	// derives an entry's freshness from their data versions.
	tables []*Table
}

// addTable records a referenced table, deduplicating by identity.
func (p *stmtPlan) addTable(t *Table) {
	for _, have := range p.tables {
		if have == t {
			return
		}
	}
	p.tables = append(p.tables, t)
}

// accessPath is a candidate index lookup for the first table of a SELECT:
// a top-level "col = expr" conjunct whose right-hand side is independent of
// the scanned table.
type accessPath struct {
	col int
	val Expr
}

// joinPlan is the precomputed strategy for one JOIN clause.
type joinPlan struct {
	table   *Table
	binding string
	// eqCol/outer describe the hash-join condition "table.col = outer"; eqCol
	// is -1 when no equi-join conjunct was found and the join nests loops.
	eqCol int
	outer Expr
	// rest holds the conjuncts checked per candidate row: the non-equi-join
	// residue for a hash join, or every conjunct when eqCol is -1 and the
	// nested-loop fallback runs.
	rest []Expr
}

// selectPlan is the precomputed execution strategy of one SELECT node: the
// logical plan (resolved tables, access paths, join strategies, shape) plus,
// when the node's shape is covered, the compiled physical operator pipeline
// of the vectorized engine.
type selectPlan struct {
	from        *Table // nil for table-less SELECT
	fromBinding string
	access      []accessPath
	joins       []joinPlan
	grouped     bool
	aliases     map[string]int // select alias -> output column (read-only)
	// vec is the compiled vectorized form, nil when the node falls back to
	// the row interpreter (see the criteria in vec.go). Compiled once per
	// plan, immutable, shared across concurrent executions. vecReason names
	// the refused shape when vec is nil (the fb* constants in vec.go).
	vec       *vecSelectPlan
	vecReason string
}

// PreparedStmt is a reusable handle for one statement. It is safe for
// concurrent use; executions bind fresh parameters each call.
type PreparedStmt struct {
	db  *DB
	sql string

	mu      sync.Mutex // serializes replanning
	plan    atomic.Pointer[stmtPlan]
	closed  atomic.Bool
	counted bool // whether this handle is counted in DB.Stats
}

// Prepare parses and plans a statement for repeated execution. Unlike
// ad-hoc Exec, preparing validates every referenced table eagerly.
func (db *DB) Prepare(sql string) (*PreparedStmt, error) {
	stmt, err := ParseSQL(sql)
	if err != nil {
		return nil, err
	}
	plan, err := db.buildPlan(stmt)
	if err != nil {
		return nil, err
	}
	ps := &PreparedStmt{db: db, sql: sql, counted: true}
	ps.plan.Store(plan)
	db.preparedLive.Add(1)
	return ps, nil
}

// SQL returns the statement text the handle was prepared from.
func (ps *PreparedStmt) SQL() string { return ps.sql }

// Close releases the handle. Closing is idempotent; executing a closed
// handle fails.
func (ps *PreparedStmt) Close() error {
	if ps.closed.Swap(true) {
		return nil
	}
	if ps.counted {
		ps.db.preparedLive.Add(-1)
	}
	return nil
}

// Execute runs the prepared statement with fresh parameters. If the schema
// changed since the plan was built, the statement is replanned first; a
// statement whose table no longer exists fails cleanly. The version is
// re-validated under the statement lock (see execStmt), so a DDL statement
// racing between the check and the lock acquisition forces a replan rather
// than silently executing against stale table storage.
func (ps *PreparedStmt) Execute(params *Params) (*Result, error) {
	if ps.closed.Load() {
		return nil, fmt.Errorf("sqldb: prepared statement is closed")
	}
	for attempt := 0; attempt < 8; attempt++ {
		plan := ps.plan.Load()
		if plan.version != ps.db.ddl.Load() {
			var err error
			if plan, err = ps.replan(); err != nil {
				return nil, err
			}
		}
		res, err := ps.db.execStmt(plan.stmt, params, plan)
		if err == errPlanStale {
			continue
		}
		return res, err
	}
	return nil, fmt.Errorf("sqldb: statement kept replanning during concurrent DDL")
}

// errPlanStale signals that the schema changed between planning and lock
// acquisition; Execute replans and retries.
var errPlanStale = fmt.Errorf("sqldb: plan is stale")

// planFresh verifies, with the statement lock held (DDL holds it
// exclusively, so the version cannot move under us), that the plan still
// matches the schema.
func (db *DB) planFresh(plan *stmtPlan) error {
	if plan != nil && plan.version != db.ddl.Load() {
		return errPlanStale
	}
	return nil
}

// replan rebuilds the plan after a schema change. The parsed AST is reused;
// only table resolution and the derived strategies are redone.
func (ps *PreparedStmt) replan() (*stmtPlan, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	plan := ps.plan.Load()
	if plan.version == ps.db.ddl.Load() {
		return plan, nil // another goroutine replanned first
	}
	fresh, err := ps.db.buildPlan(plan.stmt)
	if err != nil {
		return nil, err
	}
	ps.db.replans.Add(1)
	ps.plan.Store(fresh)
	return fresh, nil
}

// buildPlan computes the immutable plan of a parsed statement against the
// current schema.
func (db *DB) buildPlan(stmt Stmt) (*stmtPlan, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	p := &stmtPlan{
		stmt:    stmt,
		version: db.ddl.Load(),
		free:    make(map[Expr]*freeInfo),
		slots:   make(map[Expr]int),
		slotOf:  make(map[string]int),
		selects: make(map[*SelectStmt]*selectPlan),
	}
	switch st := stmt.(type) {
	case *SelectStmt:
		if err := p.planSelect(db, st); err != nil {
			return nil, err
		}
		p.canonKey = strconv.FormatInt(db.canonicalID(FormatSelect(st)), 10) + "\x1f"
	case *InsertStmt:
		if db.tables[strings.ToLower(st.Table)] == nil {
			return nil, fmt.Errorf("sqldb: no table %s", st.Table)
		}
		for _, row := range st.Rows {
			for _, e := range row {
				if err := p.planExpr(db, e); err != nil {
					return nil, err
				}
			}
		}
	case *UpdateStmt:
		if db.tables[strings.ToLower(st.Table)] == nil {
			return nil, fmt.Errorf("sqldb: no table %s", st.Table)
		}
		for _, set := range st.Sets {
			if err := p.planExpr(db, set.Value); err != nil {
				return nil, err
			}
		}
		if err := p.planExpr(db, st.Where); err != nil {
			return nil, err
		}
	case *DeleteStmt:
		if db.tables[strings.ToLower(st.Table)] == nil {
			return nil, fmt.Errorf("sqldb: no table %s", st.Table)
		}
		if err := p.planExpr(db, st.Where); err != nil {
			return nil, err
		}
	case *CreateTableStmt, *DropTableStmt, *CreateIndexStmt:
		// DDL has nothing to precompute; Execute runs the dynamic path.
	}
	p.nSlots, p.slotOf = len(p.slotOf), nil
	// Second pass: compile the physical operator pipeline of every SELECT
	// node the vectorized engine covers, and the columnar DML pipeline of
	// UPDATE/DELETE statements. This runs after the logical pass so the
	// free-column analyses of all subqueries are available.
	for st, sp := range p.selects {
		sp.vec, sp.vecReason = compileVecSelect(p, st, sp)
	}
	switch st := stmt.(type) {
	case *UpdateStmt:
		p.dml = compileVecUpdate(p, st, db.tables[strings.ToLower(st.Table)])
	case *DeleteStmt:
		p.dml = compileVecDelete(p, st, db.tables[strings.ToLower(st.Table)])
	}
	return p, nil
}

// planSelect builds the strategy of one SELECT node and recurses into its
// nested subqueries. Called with db.mu read-held.
func (p *stmtPlan) planSelect(db *DB, st *SelectStmt) error {
	if _, done := p.selects[st]; done {
		return nil
	}
	sp := &selectPlan{}
	if st.From != nil {
		t := db.tables[strings.ToLower(st.From.Table)]
		if t == nil {
			return fmt.Errorf("sqldb: no table %s", st.From.Table)
		}
		sp.from = t
		sp.fromBinding = strings.ToLower(st.From.Binding())
		p.addTable(t)
		// Access paths: index-lookup candidates among the WHERE conjuncts.
		// Whether the column is actually indexed is checked at execution,
		// so plans stay valid when the join planner builds indexes lazily.
		bt := &boundTable{binding: sp.fromBinding, table: t}
		if st.Where != nil {
			for _, conj := range conjuncts(st.Where) {
				if bin, ok := conj.(*EBinary); ok && bin.Op == OpEq {
					if col, val := matchColConst(bin, bt); col >= 0 {
						sp.access = append(sp.access, accessPath{col: col, val: val})
					}
				}
			}
		}
		for _, j := range st.Joins {
			jt := db.tables[strings.ToLower(j.Table.Table)]
			if jt == nil {
				return fmt.Errorf("sqldb: no table %s", j.Table.Table)
			}
			jp := joinPlan{table: jt, binding: strings.ToLower(j.Table.Binding())}
			p.addTable(jt)
			jbt := &boundTable{binding: jp.binding, table: jt}
			jp.eqCol, jp.outer, jp.rest = joinStrategy(j.On, jbt)
			sp.joins = append(sp.joins, jp)
		}
	}
	var tables []*Table
	if sp.from != nil {
		tables = append(tables, sp.from)
		for _, jp := range sp.joins {
			tables = append(tables, jp.table)
		}
	}
	sp.grouped, sp.aliases = selectShape(st, tables)
	p.selects[st] = sp

	for _, item := range st.Items {
		if !item.Star {
			if err := p.planExpr(db, item.Expr); err != nil {
				return err
			}
		}
	}
	for _, j := range st.Joins {
		if err := p.planExpr(db, j.On); err != nil {
			return err
		}
	}
	for _, e := range []Expr{st.Where, st.Having, st.Limit} {
		if err := p.planExpr(db, e); err != nil {
			return err
		}
	}
	for _, g := range st.GroupBy {
		if err := p.planExpr(db, g); err != nil {
			return err
		}
	}
	for _, o := range st.OrderBy {
		if err := p.planExpr(db, o.Expr); err != nil {
			return err
		}
	}
	return nil
}

// planExpr walks an expression, planning nested SELECTs and precomputing the
// free-column analysis and cache key of every subquery node.
func (p *stmtPlan) planExpr(db *DB, e Expr) error {
	switch x := e.(type) {
	case nil, *ELit, *EParam, *EColumn:
	case *EBinary:
		if err := p.planExpr(db, x.L); err != nil {
			return err
		}
		return p.planExpr(db, x.R)
	case *EUnary:
		return p.planExpr(db, x.X)
	case *ECall:
		for _, a := range x.Args {
			if err := p.planExpr(db, a); err != nil {
				return err
			}
		}
	case *EIsNull:
		return p.planExpr(db, x.X)
	case *ESubquery:
		p.analyzeSub(x)
		return p.planSelect(db, x.Select)
	case *EExists:
		p.analyzeSub(x)
		return p.planSelect(db, x.Select)
	case *EIn:
		if err := p.planExpr(db, x.X); err != nil {
			return err
		}
		for _, a := range x.List {
			if err := p.planExpr(db, a); err != nil {
				return err
			}
		}
		if x.Sub != nil {
			return p.planSelect(db, x.Sub)
		}
	}
	return nil
}

// analyzeSub precomputes what the executor would otherwise derive per
// execution: the free-column summary (which decides invariant-subquery
// caching) and the cache slot, shared by textually equal subqueries.
func (p *stmtPlan) analyzeSub(e Expr) {
	if _, done := p.free[e]; done {
		return
	}
	fi := &freeInfo{}
	collectFree(e, nil, fi, make(map[string]bool))
	p.free[e] = fi
	key := FormatExpr(e)
	slot, ok := p.slotOf[key]
	if !ok {
		slot = len(p.slotOf)
		p.slotOf[key] = slot
	}
	p.slots[e] = slot
}

// ---------------------------------------------------------------------------
// Plan cache
// ---------------------------------------------------------------------------

// planCacheEntry is one LRU slot.
type planCacheEntry struct {
	sql string
	ps  *PreparedStmt
}

// cachedStmt returns a shared prepared statement for the SQL text, preparing
// and caching it on a miss. Returns (nil, stmt, nil) when the statement
// parsed but cannot be planned (a table referenced only by a never-evaluated
// subquery may not exist; the caller runs the returned AST on the dynamic
// path, preserving lazy semantics — such statements are not counted as
// cache misses). Returns (nil, nil, nil) when caching is disabled — checked
// on an atomic flag first, so the disabled path (the text-protocol baseline
// configuration) does not serialize concurrent Execs on planMu.
func (db *DB) cachedStmt(sql string) (*PreparedStmt, Stmt, error) {
	if !db.planOn.Load() {
		return nil, nil, nil
	}
	db.planMu.Lock()
	if db.planCap <= 0 {
		db.planMu.Unlock()
		return nil, nil, nil
	}
	if el, ok := db.planIdx[sql]; ok {
		db.planLRU.MoveToFront(el)
		ps := el.Value.(*planCacheEntry).ps
		db.planHits.Add(1)
		db.planMu.Unlock()
		return ps, nil, nil
	}
	db.planMu.Unlock()

	// Parse and plan outside the cache lock; concurrent misses on the same
	// text may both prepare, and the first insert wins the slot (later ones
	// adopt it and discard their own work).
	stmt, err := ParseSQL(sql)
	if err != nil {
		return nil, nil, err
	}
	plan, err := db.buildPlan(stmt)
	if err != nil {
		return nil, stmt, nil
	}
	ps := &PreparedStmt{db: db, sql: sql}
	ps.plan.Store(plan)
	db.planMisses.Add(1)
	db.planMu.Lock()
	defer db.planMu.Unlock()
	if db.planCap <= 0 {
		return ps, nil, nil
	}
	if el, ok := db.planIdx[sql]; ok {
		return el.Value.(*planCacheEntry).ps, nil, nil
	}
	if plan.version != db.ddl.Load() {
		// DDL (and clearPlanCache) ran while we were planning: don't insert
		// the stale plan, or its resolved tables could pin dropped storage
		// in the cache indefinitely. The statement itself still executes
		// (Execute replans).
		return ps, nil, nil
	}
	db.planIdx[sql] = db.planLRU.PushFront(&planCacheEntry{sql: sql, ps: ps})
	for db.planLRU.Len() > db.planCap {
		last := db.planLRU.Back()
		entry := last.Value.(*planCacheEntry)
		db.planLRU.Remove(last)
		delete(db.planIdx, entry.sql)
		// The evicted statement is NOT closed: a concurrent Exec may have
		// fetched it just before the eviction and still be executing it.
		// Cache-internal statements are uncounted, so dropping the
		// reference is the whole cleanup.
		db.planEvicts.Add(1)
	}
	return ps, nil, nil
}

// SetPlanCacheSize bounds the ad-hoc plan cache; n <= 0 disables caching and
// clears it (every Exec then parses and plans from scratch, the behaviour
// the text-protocol benchmarks compare against).
func (db *DB) SetPlanCacheSize(n int) {
	db.planMu.Lock()
	defer db.planMu.Unlock()
	db.planCap = n
	db.planOn.Store(n > 0)
	for db.planLRU.Len() > max(db.planCap, 0) {
		last := db.planLRU.Back()
		entry := last.Value.(*planCacheEntry)
		db.planLRU.Remove(last)
		delete(db.planIdx, entry.sql)
		db.planEvicts.Add(1)
	}
}

// clearPlanCache drops every cached plan. Called on DDL: stale plans would
// replan lazily anyway, but their resolved *Table pointers would otherwise
// pin a dropped table's row storage until eviction. DDL is rare, replanning
// is cheap, and reclaiming the storage matters more than the warm cache.
func (db *DB) clearPlanCache() {
	db.planMu.Lock()
	defer db.planMu.Unlock()
	db.planLRU.Init()
	clear(db.planIdx)
}

// Stats is a snapshot of the prepared-statement machinery.
type Stats struct {
	// PlanCacheHits / Misses / Evictions count ad-hoc Exec traffic through
	// the LRU plan cache; PlanCacheEntries is the current cache population.
	PlanCacheHits      int64
	PlanCacheMisses    int64
	PlanCacheEvictions int64
	PlanCacheEntries   int
	// PreparedLive counts Prepare handles not yet closed.
	PreparedLive int64
	// Replans counts plans rebuilt after DDL invalidated them.
	Replans int64
	// BatchExecs counts ExecuteBatch calls; BatchBindings the parameter sets
	// they carried (bindings/execs is the achieved amortization factor).
	BatchExecs    int64
	BatchBindings int64
	// ResultCacheHits / Misses count SELECT executions answered from (or
	// stored into) the result cache; ResultCacheInvalidations counts entries
	// found stale at lookup because a referenced table's data version moved
	// (every invalidation is also counted as a miss); ResultCacheEvictions
	// counts LRU capacity evictions. ResultCacheEntries is the current cache
	// population (see resultcache.go).
	ResultCacheHits          int64
	ResultCacheMisses        int64
	ResultCacheInvalidations int64
	ResultCacheEvictions     int64
	ResultCacheEntries       int
	// Engine is the selected SELECT execution engine ("vector" or "row").
	// VecSelects counts planned SELECT nodes executed on the vectorized
	// operators; VecFallbacks counts planned SELECT nodes that ran on the row
	// interpreter because their shape is not vectorized, while the vectorized
	// engine was selected (see vec.go). VecFallbackReasons breaks the
	// fallback count down by refused shape.
	Engine             string
	VecSelects         int64
	VecFallbacks       int64
	VecFallbackReasons FallbackReasons
}

// FallbackReasons is the per-shape breakdown of Stats.VecFallbacks (the fb*
// refusal reasons in vec.go).
type FallbackReasons struct {
	JoinShape int64 // equi-join outer key reads the joined table
	Star      int64 // grouped SELECT *
	OrderExpr int64 // ORDER BY expression key outside the compiled forms
	Subquery  int64 // correlated subquery outside the mirrored scopes
	Other     int64
}

// Stats returns current prepared-statement and plan-cache counters.
func (db *DB) Stats() Stats {
	db.planMu.Lock()
	entries := 0
	if db.planLRU != nil {
		entries = db.planLRU.Len()
	}
	db.planMu.Unlock()
	db.resMu.Lock()
	resEntries := 0
	if db.resLRU != nil {
		resEntries = db.resLRU.Len()
	}
	db.resMu.Unlock()
	return Stats{
		PlanCacheHits:      db.planHits.Load(),
		PlanCacheMisses:    db.planMisses.Load(),
		PlanCacheEvictions: db.planEvicts.Load(),
		PlanCacheEntries:   entries,
		PreparedLive:       db.preparedLive.Load(),
		Replans:            db.replans.Load(),
		BatchExecs:         db.batchExecs.Load(),
		BatchBindings:      db.batchBindings.Load(),

		ResultCacheHits:          db.resHits.Load(),
		ResultCacheMisses:        db.resMisses.Load(),
		ResultCacheInvalidations: db.resInvalid.Load(),
		ResultCacheEvictions:     db.resEvicts.Load(),
		ResultCacheEntries:       resEntries,

		Engine:       db.Engine(),
		VecSelects:   db.vecSelects.Load(),
		VecFallbacks: db.vecFallbacks.Load(),
		VecFallbackReasons: FallbackReasons{
			JoinShape: db.vecFbJoin.Load(),
			Star:      db.vecFbStar.Load(),
			OrderExpr: db.vecFbOrder.Load(),
			Subquery:  db.vecFbSub.Load(),
			Other:     db.vecFbOther.Load(),
		},
	}
}

// initPlanCache sets up the cache containers; called from NewDB.
func (db *DB) initPlanCache() {
	db.planCap = DefaultPlanCacheSize
	db.planOn.Store(true)
	db.planLRU = list.New()
	db.planIdx = make(map[string]*list.Element)
}

// planFields groups the DB's prepared-statement state; embedded in DB.
type planFields struct {
	ddl atomic.Int64 // schema version, bumped by DDL

	planMu  sync.Mutex
	planCap int
	planLRU *list.List
	planIdx map[string]*list.Element
	// planOn mirrors planCap > 0 for a lock-free disabled-path check.
	planOn atomic.Bool

	planHits      atomic.Int64
	planMisses    atomic.Int64
	planEvicts    atomic.Int64
	preparedLive  atomic.Int64
	replans       atomic.Int64
	batchExecs    atomic.Int64
	batchBindings atomic.Int64
}
