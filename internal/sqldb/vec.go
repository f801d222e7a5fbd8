package sqldb

// The vectorized expression layer: planned SELECT expressions compile, at
// prepare time, into vexpr closures that evaluate a whole batch of rows per
// call, reading the columnar storage (column.go) directly by position instead
// of materializing rows and walking the AST per tuple.
//
// Semantics are shared with the row interpreter by construction: every scalar
// operation funnels through the same kernels (applyBinary, combineAndOr,
// applyUnary, applyScalarFunc, applyInList, aggAcc in exec.go), and the
// compiler refuses — falling the whole SELECT node back to the row engine —
// any shape where batch evaluation could diverge from tuple-at-a-time
// evaluation, in results or in whether an error is raised. The covered set
// includes table-less SELECTs (one empty seed tuple), SELECT * in non-grouped
// projections (expanded to per-column gathers at compile time), joins without
// an equi-join column (block-wise cross products narrowed by the compiled
// conjuncts, in the row engine's emission order), grouped ORDER BY
// expressions (evaluated per surviving group through the hybrid row
// evaluator, aggregates pre-folded), and correlated subqueries — including
// unqualified free references, resolved through a compile-time mirror of the
// frame chain's scope walk (corrLocals). What remains refused, with the
// fallback reason it is counted under (Stats.VecFallbackReasons):
//
//   - equi-join outer keys that read the joined table itself (the row engine
//     evaluates them with that row unset, which the compiled form cannot
//     represent) — "join-shape";
//   - SELECT * in grouped queries (the representative row may be absent;
//     the row engine pads it per group) — "star";
//   - grouped ORDER BY expressions whose aggregate arguments are not
//     error-free when HAVING could reject the group, and non-grouped ORDER BY
//     expressions that do not compile — "order-by-expr";
//   - correlated subqueries whose free references reach a local table not yet
//     bound at the pipeline stage, resolve into more than two local tables
//     (the memo key packs two positions), or traverse an inner scope the
//     compile-time walk cannot mirror — "subquery";
//   - columns that do not resolve, or resolve ambiguously, within the
//     SELECT's own tables; aggregates outside grouped projections/HAVING,
//     nested aggregates, and malformed calls; non-closed LIMIT expressions;
//     aggregates in lazily-evaluated positions — behind a short-circuited
//     AND/OR right side, or in the projection of a query with HAVING (the
//     row engine skips items of rejected groups) — unless the argument is
//     trivially error-free (the row engine raises the matching errors in
//     every case) — "other".
//
// Within a compiled node, AND/OR evaluate their right operand through
// selection narrowing that mirrors the row engine's short-circuit exactly:
// the right side runs only for batch rows whose left side was not a decisive
// boolean, so both engines evaluate — and raise errors for — the same set of
// (row, subexpression) pairs.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Engine names accepted by DB.SetEngine.
const (
	EngineVector = "vector"
	EngineRow    = "row"
)

// SetEngine selects the SELECT execution engine: EngineVector runs planned
// SELECTs batch-at-a-time over the columnar storage, EngineRow forces the
// tuple-at-a-time interpreter. The engines produce identical results; the
// row engine remains as the verified fallback and A/B baseline. Safe for
// concurrent use; statements already executing finish on the engine they
// started with.
func (db *DB) SetEngine(name string) error {
	switch name {
	case EngineVector:
		db.vecOn.Store(true)
	case EngineRow:
		db.vecOn.Store(false)
	default:
		return fmt.Errorf("sqldb: unknown engine %q (want %q or %q)", name, EngineVector, EngineRow)
	}
	return nil
}

// Engine returns the selected SELECT execution engine.
func (db *DB) Engine() string {
	if db.vecOn.Load() {
		return EngineVector
	}
	return EngineRow
}

// vecBatchSize is the number of seed rows processed per pipeline chunk.
const vecBatchSize = 1024

// Fallback reason labels (Stats.VecFallbackReasons): which refusal criterion
// sent a planned SELECT node back to the row interpreter.
const (
	fbJoinShape = "join-shape"
	fbStar      = "star"
	fbOrderExpr = "order-by-expr"
	fbSubquery  = "subquery"
	fbOther     = "other"
)

// vbatch is one batch of joined row positions: pos[t][i] is the storage
// position, in bound table t, of batch row i. Only the tables bound by the
// pipeline stage being run have position arrays.
type vbatch struct {
	n   int
	pos [][]int32
}

// vcol is the value vector an expression produces over a batch: either one
// constant for every row, or one boxed Value per row. Column loads fill vals
// straight from the typed storage vectors, so the boxes never allocate.
type vcol struct {
	isConst bool
	cval    Value
	vals    []Value
}

func (c *vcol) at(i int) Value {
	if c.isConst {
		return c.cval
	}
	return c.vals[i]
}

func (c *vcol) setConst(v Value) {
	c.isConst = true
	c.cval = v
	c.vals = c.vals[:0]
}

// alloc readies the per-row buffer for n rows, reusing capacity.
func (c *vcol) alloc(n int) []Value {
	c.isConst = false
	if cap(c.vals) < n {
		c.vals = make([]Value, n)
	} else {
		c.vals = c.vals[:n]
	}
	return c.vals
}

// vexpr evaluates one compiled expression over a batch into out. It is only
// called with b.n > 0, so a lazily evaluated constant (a closed subquery, a
// parameter) is touched exactly when the row engine would touch it: when at
// least one row reaches the expression.
type vexpr func(vc *vecCtx, b *vbatch, out *vcol) error

// vecCtx is the per-execution state of one vectorized SELECT: the bound
// tables, a frame mirroring the row engine's (for lazy closed-subquery and
// access-path evaluation through ec.eval — bindings identical, rows nil), and
// scratch buffers reused across chunks.
//
// Contexts are pooled across executions (acquireVecCtx/release): the property
// queries the analyzer emits are mostly point seeks over a handful of rows,
// where per-execution allocation, not per-tuple interpretation, is the cost.
// Nothing in a ResultSet aliases pooled memory — projection copies into fresh
// cell arrays — so releasing on return is safe.
type vecCtx struct {
	ec   *execCtx
	fr   frame
	bts  []*boundTable
	tabs []*Table
	// btStore backs bts so bound tables need no per-execution allocations.
	btStore []boundTable
	// subVals memoizes lazily evaluated closed subexpressions for this
	// execution; inSubs memoizes IN-subquery candidate lists; corrMemo
	// memoizes correlated subexpressions per (expression, local row
	// positions) — see corrSub.
	subVals  map[Expr]Value
	inSubs   map[*EIn][]Value
	corrMemo map[corrKey]Value
	// colPool is a free list of scratch vcols; selBuf is the reusable
	// selection vector of the filter operators; seed and keyBuf are the
	// reusable seed-position and group-key buffers.
	colPool  []*vcol
	selBuf   []int32
	seed     []int32
	chunkBuf []int32
	keyBuf   []byte
	// b and nb are the double-buffered position batches; batchPool is a free
	// list of sub-batches for narrowed AND/OR right-hand sides.
	b, nb     vbatch
	batchPool []*vbatch
	// sg, groupSeq, pre, and argBuf back the grouped tail: the lone group of
	// a scalar aggregation, the finalization order, the aggregate prefold
	// map, and the aggregate-argument column list. idxBuf holds the
	// join-probe indexes for the execution.
	sg       vecGroup
	groupSeq []*vecGroup
	pre      map[*ECall]Value
	argBuf   []*vcol
	idxBuf   []*colIndex
	// idxPool is a free list of selection index slices for the AND/OR
	// narrowing.
	idxPool [][]int32
	// fuseVals holds the per-execution comparand values of the fused filter
	// kernels, one slot per kernel (see vecfuse.go).
	fuseVals []Value
}

var vecCtxPool = sync.Pool{New: func() any { return new(vecCtx) }}

// acquireVecCtx readies a pooled context for an execution over nTab tables.
func acquireVecCtx(ec *execCtx, nTab int) *vecCtx {
	vc := vecCtxPool.Get().(*vecCtx)
	vc.ec = ec
	if cap(vc.btStore) < nTab {
		vc.btStore = make([]boundTable, nTab)
		vc.bts = make([]*boundTable, nTab)
		vc.tabs = make([]*Table, nTab)
		vc.b.pos = make([][]int32, nTab)
		vc.nb.pos = make([][]int32, nTab)
	}
	vc.btStore = vc.btStore[:nTab]
	vc.bts = vc.bts[:nTab]
	vc.tabs = vc.tabs[:nTab]
	vc.b.pos = vc.b.pos[:nTab]
	vc.nb.pos = vc.nb.pos[:nTab]
	for i := range vc.btStore {
		vc.bts[i] = &vc.btStore[i]
	}
	return vc
}

// release clears every pointer that could retain table or statement state and
// returns the context to the pool. Buffer capacities (position batches,
// scratch columns, seed and key buffers) survive for the next execution.
func (vc *vecCtx) release() {
	for i := range vc.btStore {
		vc.btStore[i] = boundTable{}
	}
	for i := range vc.tabs {
		vc.tabs[i] = nil
	}
	vc.ec = nil
	vc.fr = frame{}
	clear(vc.subVals)
	clear(vc.inSubs)
	clear(vc.corrMemo)
	clear(vc.pre)
	for i := range vc.sg.accs {
		vc.sg.accs[i] = aggAcc{}
	}
	vc.sg.hasRep, vc.sg.n = false, 0
	for i := range vc.groupSeq {
		vc.groupSeq[i] = nil
	}
	vc.groupSeq = vc.groupSeq[:0]
	for i := range vc.argBuf {
		vc.argBuf[i] = nil
	}
	vc.argBuf = vc.argBuf[:0]
	for i := range vc.idxBuf {
		vc.idxBuf[i] = nil
	}
	vc.idxBuf = vc.idxBuf[:0]
	for i := range vc.fuseVals {
		vc.fuseVals[i] = Value{}
	}
	vc.fuseVals = vc.fuseVals[:0]
	vc.b.n, vc.nb.n = 0, 0
	vecCtxPool.Put(vc)
}

// corrKey identifies one memoized evaluation of a correlated subexpression:
// the expression node plus the packed storage positions of the local tables
// it reads. Positions are a perfect proxy for row contents — DML never runs
// concurrently with a SELECT (exclusive statement lock).
type corrKey struct {
	e   Expr
	pos uint64
}

func (vc *vecCtx) getCol() *vcol {
	if n := len(vc.colPool); n > 0 {
		c := vc.colPool[n-1]
		vc.colPool = vc.colPool[:n-1]
		return c
	}
	return &vcol{}
}

func (vc *vecCtx) putCol(c *vcol) { vc.colPool = append(vc.colPool, c) }

func (vc *vecCtx) getBatch(ntab int) *vbatch {
	var b *vbatch
	if n := len(vc.batchPool); n > 0 {
		b = vc.batchPool[n-1]
		vc.batchPool = vc.batchPool[:n-1]
	} else {
		b = &vbatch{}
	}
	if cap(b.pos) < ntab {
		b.pos = make([][]int32, ntab)
	}
	b.pos = b.pos[:ntab]
	return b
}

func (vc *vecCtx) putBatch(b *vbatch) {
	b.n = 0
	vc.batchPool = append(vc.batchPool, b)
}

func (vc *vecCtx) getIdx() []int32 {
	if n := len(vc.idxPool); n > 0 {
		s := vc.idxPool[n-1]
		vc.idxPool = vc.idxPool[:n-1]
		return s[:0]
	}
	return nil
}

func (vc *vecCtx) putIdx(s []int32) { vc.idxPool = append(vc.idxPool, s) }

// lazyEval evaluates a closed subexpression once per execution through the
// row engine (sharing its invariant-subquery cache) and memoizes the value.
func (vc *vecCtx) lazyEval(e Expr) (Value, error) {
	if v, ok := vc.subVals[e]; ok {
		return v, nil
	}
	v, err := vc.ec.eval(e, &vc.fr)
	if err != nil {
		return Null, err
	}
	if vc.subVals == nil {
		vc.subVals = make(map[Expr]Value)
	}
	vc.subVals[e] = v
	return v, nil
}

// inCandidates executes a closed IN-subquery once per execution and memoizes
// the candidate list. The row engine re-executes the subquery per tuple; for
// a closed subquery every execution returns the same rows (and the same
// error, if any), so evaluating once is observationally identical.
func (vc *vecCtx) inCandidates(x *EIn) ([]Value, error) {
	if c, ok := vc.inSubs[x]; ok {
		return c, nil
	}
	set, err := vc.ec.execSelect(x.Sub, &vc.fr)
	if err != nil {
		return nil, err
	}
	if len(set.Columns) != 1 {
		return nil, fmt.Errorf("sqldb: IN subquery returns %d columns", len(set.Columns))
	}
	cands := make([]Value, 0, len(set.Rows))
	for _, r := range set.Rows {
		cands = append(cands, r[0])
	}
	if vc.inSubs == nil {
		vc.inSubs = make(map[*EIn][]Value)
	}
	vc.inSubs[x] = cands
	return cands, nil
}

// ---------------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------------

// vecJoin is the compiled form of one join: probe the hash index of the
// joined table with the outer key (eqCol >= 0), or expand the block-wise
// cross product (eqCol < 0, the nested-loop shape), then narrow by the
// residual conjuncts — for a cross product, rest holds every conjunct, and
// narrowing them in order reproduces the row engine's checkConjuncts early
// exit: conjunct k+1 is evaluated exactly for the candidates conjunct k
// passed.
type vecJoin struct {
	eqCol int
	outer vexpr
	rest  []vexpr
}

// vecAgg is one aggregate call site of a grouped SELECT.
type vecAgg struct {
	call *ECall
	name string // upper-cased
	star bool   // COUNT(*)
	arg  vexpr  // nil for COUNT(*)
}

// vecOrderKey is one compiled ORDER BY key: an output-column reference
// (select alias or in-range ordinal), a constant, a compiled expression over
// the final batch (non-grouped), or — in grouped queries — a raw expression
// evaluated per surviving group through the hybrid row evaluator with the
// aggregates pre-folded, exactly where the row engine evaluates it.
type vecOrderKey struct {
	outCol int // >= 0: key is output column outCol
	cval   Value
	ex     vexpr // non-nil: evaluated over the batch
	gx     Expr  // non-nil: evaluated per group (grouped queries)
}

// vecSelectPlan is the compiled physical pipeline of one SELECT node:
// seed (access paths) → join probes → filter → project or group/aggregate.
type vecSelectPlan struct {
	nTab   int
	joins  []vecJoin
	filter vexpr
	// fused is the fused compare-and-select form of the WHERE clause when it
	// is a pure AND-chain of fusable typed comparisons (vecfuse.go); the
	// filter stage runs it instead of the closure chain, falling back to
	// filter when a kernel's comparand does not fit its type class at
	// execution time.
	fused   []vpred
	grouped bool
	// items is the compiled projection (non-grouped only; grouped queries
	// project per group through the hybrid row evaluator with aggPre).
	items []vexpr
	// groupBy and aggs drive the grouped accumulation.
	groupBy []vexpr
	aggs    []vecAgg
	order   []vecOrderKey
	columns []string
}

// vecCompiler carries the compile-time scope of one SELECT node.
type vecCompiler struct {
	p     *stmtPlan
	sp    *selectPlan
	tabs  []*Table
	binds []string
	// reason records the first — most specific — refusal criterion hit while
	// compiling this node (the fb* labels above); consulted when compilation
	// fails, "other" when no site recorded anything sharper.
	reason string
}

// fail records a refusal reason (first one wins) and returns false for use
// in refusal sites.
func (cp *vecCompiler) fail(r string) bool {
	if cp.reason == "" {
		cp.reason = r
	}
	return false
}

// failReason is the reason to report for a failed compilation.
func (cp *vecCompiler) failReason() string {
	if cp.reason == "" {
		return fbOther
	}
	return cp.reason
}

// compileVecSelect builds the vectorized pipeline of one planned SELECT
// node, or returns nil plus the fallback reason when the node's shape is not
// covered (the criteria at the top of this file) and execution stays on the
// row interpreter.
func compileVecSelect(p *stmtPlan, st *SelectStmt, sp *selectPlan) (*vecSelectPlan, string) {
	cp := &vecCompiler{p: p, sp: sp}
	if sp.from != nil {
		cp.tabs = append(cp.tabs, sp.from)
		cp.binds = append(cp.binds, sp.fromBinding)
		for i := range sp.joins {
			cp.tabs = append(cp.tabs, sp.joins[i].table)
			cp.binds = append(cp.binds, sp.joins[i].binding)
		}
	}
	vp := &vecSelectPlan{nTab: len(cp.tabs), grouped: sp.grouped}

	// Joins: an equi-join probes the hash index; without an equi-join column
	// the pipeline expands the block-wise cross product and narrows by every
	// conjunct in order (crossJoin). An equi-join outer key that touches the
	// joined table itself refuses: it is evaluated before the probe, and the
	// row engine evaluates it with the joined row unset, which the compiled
	// form cannot represent.
	for k := range sp.joins {
		jp := &sp.joins[k]
		scope := k + 2 // tables bound while this join runs, joined table included
		vj := vecJoin{eqCol: jp.eqCol}
		if jp.eqCol >= 0 {
			if refsTable(jp.outer, cp, scope, k+1) {
				cp.fail(fbJoinShape)
				return nil, cp.failReason()
			}
			outer, ok := cp.compile(jp.outer, scope)
			if !ok {
				return nil, cp.failReason()
			}
			vj.outer = outer
		}
		for _, c := range jp.rest {
			ce, ok := cp.compile(c, scope)
			if !ok {
				return nil, cp.failReason()
			}
			vj.rest = append(vj.rest, ce)
		}
		vp.joins = append(vp.joins, vj)
	}

	if st.Where != nil {
		f, ok := cp.compile(st.Where, vp.nTab)
		if !ok {
			return nil, cp.failReason()
		}
		vp.filter = f
		vp.fused = cp.fuseFilter(st.Where, vp.nTab)
	}

	if sp.grouped {
		// SELECT * in a grouped query projects the representative row, which
		// may be absent (the row engine pads it per group) — refuse.
		for _, item := range st.Items {
			if item.Star {
				cp.fail(fbStar)
				return nil, cp.failReason()
			}
		}
		if !cp.compileGrouped(st, vp) {
			return nil, cp.failReason()
		}
	} else {
		for _, item := range st.Items {
			if item.Star {
				// Projection-order column gather: one typed load per column
				// of every bound table, in binding order — exactly the row
				// engine's bt.row expansion.
				for t := range cp.tabs {
					for c := range cp.tabs[t].Columns {
						vp.items = append(vp.items, vecColumn(t, c))
					}
				}
				continue
			}
			ex, ok := cp.compile(item.Expr, vp.nTab)
			if !ok {
				return nil, cp.failReason()
			}
			vp.items = append(vp.items, ex)
		}
	}

	// ORDER BY: select aliases and in-range ordinals read the output row
	// (the ordinal range is the *expanded* output width, as the row engine
	// checks it against the projected row); other literals are constant
	// keys; any other expression is compiled over the final batch
	// (non-grouped) or kept raw for per-group evaluation through the hybrid
	// row evaluator (grouped).
	outWidth := len(st.Items)
	if !sp.grouped {
		outWidth = len(vp.items)
	}
	for _, o := range st.OrderBy {
		key, ok := cp.compileOrderKey(o.Expr, st, sp, vp, outWidth)
		if !ok {
			cp.fail(fbOrderExpr)
			return nil, cp.failReason()
		}
		vp.order = append(vp.order, key)
	}

	// LIMIT is evaluated once through the row engine; it must be closed (the
	// row engine evaluates it against whatever frame state the tuple loop
	// left behind — only a closed expression is deterministic there).
	if st.Limit != nil && !cp.closed(st.Limit) {
		return nil, cp.failReason()
	}

	vp.columns = selectColumns(st, cp.tabs)
	return vp, ""
}

// compileGrouped collects the aggregate call sites of the projection and
// HAVING and compiles their arguments and the GROUP BY keys.
func (cp *vecCompiler) compileGrouped(st *SelectStmt, vp *vecSelectPlan) bool {
	for _, g := range st.GroupBy {
		if hasAggregate(g) {
			return false // the row engine raises the error
		}
		ex, ok := cp.compile(g, vp.nTab)
		if !ok {
			return false
		}
		vp.groupBy = append(vp.groupBy, ex)
	}
	// An aggregate in an "eager" position — one the row engine evaluates
	// unconditionally for every group it reaches — may take any compilable
	// argument: both engines then evaluate the argument for the same tuples
	// and raise an error on the same inputs (only which of several
	// simultaneous errors is reported can differ, since accumulation is
	// streamed batch-wise rather than aggregate-by-aggregate). Eagerness is
	// broken by the right side of AND/OR (short-circuit) and, for projection
	// items, by a HAVING clause: groups HAVING rejects never evaluate their
	// items in the row engine, while the pipeline accumulates all aggregates
	// streaming — there the argument must be incapable of erroring.
	for _, item := range st.Items {
		if !cp.collectAggs(item.Expr, vp, st.Having == nil) {
			return false
		}
	}
	if st.Having != nil {
		if !cp.collectAggs(st.Having, vp, true) {
			return false
		}
	}
	return true
}

// collectAggs walks an expression, compiling every aggregate call site into
// vp.aggs. Subqueries are not entered: their aggregates belong to the inner
// SELECT (mirroring hasAggregate). eager tracks whether the row engine
// evaluates this position unconditionally (see compileGrouped). Returns
// false on any shape the grouped pipeline cannot run with
// row-engine-identical behavior.
func (cp *vecCompiler) collectAggs(e Expr, vp *vecSelectPlan, eager bool) bool {
	switch x := e.(type) {
	case nil, *ELit, *EParam, *EColumn, *ESubquery, *EExists:
		return true
	case *EBinary:
		if x.Op == OpAnd || x.Op == OpOr {
			// The left side is always evaluated; the right only when the
			// left is not decisive.
			return cp.collectAggs(x.L, vp, eager) && cp.collectAggs(x.R, vp, false)
		}
		return cp.collectAggs(x.L, vp, eager) && cp.collectAggs(x.R, vp, eager)
	case *EUnary:
		return cp.collectAggs(x.X, vp, eager)
	case *EIsNull:
		return cp.collectAggs(x.X, vp, eager)
	case *EIn:
		// evalIn evaluates the needle and every list element eagerly.
		if !cp.collectAggs(x.X, vp, eager) {
			return false
		}
		for _, a := range x.List {
			if !cp.collectAggs(a, vp, eager) {
				return false
			}
		}
		return true
	case *ECall:
		if !x.IsAggregate() {
			// Scalar functions evaluate all arguments eagerly (evalCall).
			for _, a := range x.Args {
				if !cp.collectAggs(a, vp, eager) {
					return false
				}
			}
			return true
		}
		name := strings.ToUpper(x.Name)
		ag := vecAgg{call: x, name: name}
		if x.Star {
			if name != "COUNT" {
				return false // row engine raises "%s(*) is not valid"
			}
			ag.star = true
			vp.aggs = append(vp.aggs, ag)
			return true
		}
		if len(x.Args) != 1 {
			return false // row engine raises the arity error
		}
		if hasAggregate(x.Args[0]) {
			return false // nested aggregate: row engine rejects it
		}
		if !eager && !cp.aggArgSafe(name, x.Args[0]) {
			return false
		}
		arg, ok := cp.compile(x.Args[0], vp.nTab)
		if !ok {
			return false
		}
		ag.arg = arg
		vp.aggs = append(vp.aggs, ag)
		return true
	}
	return false
}

// aggArgSafe reports whether an aggregate argument can never raise an
// evaluation or accumulation error: a bare column whose declared type fits
// the aggregate (storage is homogeneous by construction), or a literal.
func (cp *vecCompiler) aggArgSafe(name string, e Expr) bool {
	switch x := e.(type) {
	case *ELit:
		if x.Value.IsNull() {
			return true
		}
		if name == "SUM" || name == "AVG" {
			return x.Value.IsNumeric()
		}
		return true
	case *EColumn:
		tab, col, ok := cp.resolveCol(x, len(cp.tabs))
		if !ok {
			return false
		}
		typ := cp.tabs[tab].Columns[col].Type
		if name == "SUM" || name == "AVG" {
			return typ == TInt || typ == TFloat
		}
		return true // MIN/MAX/COUNT over a homogeneous column cannot error
	}
	return false
}

// compileOrderKey compiles one ORDER BY key, mirroring the row engine's
// resolution order: select alias first, then integer ordinal within the
// expanded output width, then plain evaluation (constant for literals).
// Grouped queries keep the raw expression (gx): finalizeGroups evaluates it
// per surviving group through the row evaluator with the aggregates
// pre-folded and the representative row bound — the row engine's exact group
// context — after collecting its aggregate call sites with the same
// eagerness rule as projection items (the row engine evaluates order keys
// only for groups HAVING passes).
func (cp *vecCompiler) compileOrderKey(e Expr, st *SelectStmt, sp *selectPlan, vp *vecSelectPlan, outWidth int) (vecOrderKey, bool) {
	if col, ok := e.(*EColumn); ok && col.Qual == "" {
		if idx, ok := sp.aliases[strings.ToLower(col.Name)]; ok {
			return vecOrderKey{outCol: idx}, true
		}
	}
	if lit, ok := e.(*ELit); ok {
		if lit.Value.IsInt() {
			n := int(lit.Value.Int())
			if n >= 1 && n <= outWidth {
				return vecOrderKey{outCol: n - 1}, true
			}
		}
		return vecOrderKey{outCol: -1, cval: lit.Value}, true
	}
	if vp.grouped {
		if !cp.collectAggs(e, vp, st.Having == nil) {
			return vecOrderKey{}, false
		}
		return vecOrderKey{outCol: -1, gx: e}, true
	}
	ex, ok := cp.compile(e, vp.nTab)
	if !ok {
		return vecOrderKey{}, false
	}
	return vecOrderKey{outCol: -1, ex: ex}, true
}

// resolveCol resolves a column reference against the first ntab bound
// tables, exactly as frame.resolve would within the local scope: qualifier
// filter, ambiguity is a refusal (the row engine raises the error).
func (cp *vecCompiler) resolveCol(x *EColumn, ntab int) (int, int, bool) {
	lqual, lname := x.keys()
	tab, col := -1, -1
	for t := 0; t < ntab; t++ {
		if lqual != "" && cp.binds[t] != lqual {
			continue
		}
		c, ok := cp.tabs[t].colIdx[lname]
		if !ok {
			continue
		}
		if tab >= 0 {
			return 0, 0, false // ambiguous: row engine raises the error
		}
		tab, col = t, c
	}
	if tab < 0 {
		return 0, 0, false // outer reference or unknown: row engine decides
	}
	return tab, col, true
}

// closed reports whether an expression cannot reference any table binding,
// inner or outer — its value is fixed for a whole statement execution.
func (cp *vecCompiler) closed(e Expr) bool {
	fi, ok := cp.p.free[e]
	if !ok {
		fi = &freeInfo{}
		collectFree(e, nil, fi, make(map[string]bool))
	}
	return !fi.unqual && len(fi.quals) == 0
}

// closedSelect is the closed test for a bare SELECT node (IN subqueries).
func closedSelect(st *SelectStmt) bool {
	fi := &freeInfo{}
	collectFreeSelect(st, nil, fi, make(map[string]bool))
	return !fi.unqual && len(fi.quals) == 0
}

// freeOf returns the free-variable analysis of e, reusing the plan's memo
// when available.
func (cp *vecCompiler) freeOf(e Expr) *freeInfo {
	if fi, ok := cp.p.free[e]; ok {
		return fi
	}
	fi := &freeInfo{}
	collectFree(e, nil, fi, make(map[string]bool))
	return fi
}

// corrScope is one inner SELECT's scope during corrLocals's walk: its planned
// tables, visible up to limit — the number of tables the row engine has bound
// at the clause being walked (join-On clauses and access-path seeds run with
// partial frames).
type corrScope struct {
	sp    *selectPlan
	limit int
}

func (sc *corrScope) at(t int) (string, *Table) {
	if t == 0 {
		return sc.sp.fromBinding, sc.sp.from
	}
	jp := &sc.sp.joins[t-1]
	return jp.binding, jp.table
}

// matches counts the visible tables of the scope a reference resolves into,
// mirroring frame.resolve within one scope: qualifier filter plus column
// membership.
func (sc *corrScope) matches(lqual, lname string) int {
	n := 0
	for t := 0; t < sc.limit; t++ {
		bind, tab := sc.at(t)
		if lqual != "" && bind != lqual {
			continue
		}
		if _, has := tab.colIdx[lname]; has {
			n++
		}
	}
	return n
}

// corrLocals computes which local tables (ordinals into cp.tabs) a correlated
// subexpression depends on, by mirroring at compile time the scope walk
// frame.resolve performs at runtime: a reference is tried against each inner
// SELECT scope it is nested under, innermost first — at the partial frame
// width of the clause it appears in — then against the compiling SELECT's own
// tables, and a reference resolving past all of those reaches outer frames,
// which are fixed for a whole execution and carry no dependency. A reference
// that resolves (even ambiguously — delegation raises the row engine's error)
// in an inner scope is not a local dependency. Refuses (ok=false) when a
// local resolution reaches a table not yet bound at pipeline stage ntab, or
// when a nested SELECT has no plan to mirror.
func (cp *vecCompiler) corrLocals(e Expr, ntab int) ([]int, bool) {
	var locals []int
	ok := true
	var scopes []*corrScope

	addLocal := func(t int) {
		for _, have := range locals {
			if have == t {
				return
			}
		}
		locals = append(locals, t)
	}

	resolve := func(x *EColumn) {
		lqual, lname := x.keys()
		for i := len(scopes) - 1; i >= 0; i-- {
			if scopes[i].matches(lqual, lname) > 0 {
				return // resolved within an inner scope
			}
		}
		for t := range cp.tabs {
			if lqual != "" && cp.binds[t] != lqual {
				continue
			}
			if _, has := cp.tabs[t].colIdx[lname]; !has {
				continue
			}
			if t >= ntab {
				ok = false // local table not yet bound at this stage
				return
			}
			addLocal(t)
		}
		// No local match either: the reference reaches an outer frame (or is
		// unknown — the delegated evaluation raises the row engine's error).
	}

	var walk func(e Expr)
	var walkSel func(st *SelectStmt)
	walk = func(e Expr) {
		if !ok || e == nil {
			return
		}
		switch x := e.(type) {
		case *ELit, *EParam:
		case *EColumn:
			resolve(x)
		case *EBinary:
			walk(x.L)
			walk(x.R)
		case *EUnary:
			walk(x.X)
		case *EIsNull:
			walk(x.X)
		case *ECall:
			for _, a := range x.Args {
				walk(a)
			}
		case *ESubquery:
			walkSel(x.Select)
		case *EExists:
			walkSel(x.Select)
		case *EIn:
			walk(x.X)
			for _, a := range x.List {
				walk(a)
			}
			if x.Sub != nil {
				walkSel(x.Sub)
			}
		default:
			ok = false
		}
	}
	walkSel = func(st *SelectStmt) {
		sp := cp.p.selects[st]
		if sp == nil || (st.From != nil && sp.from == nil) {
			ok = false // no plan to mirror resolution against
			return
		}
		full := 0
		if sp.from != nil {
			full = 1 + len(sp.joins)
		}
		sc := &corrScope{sp: sp}
		scopes = append(scopes, sc)
		if sp.from != nil {
			// Access-path seed keys are evaluated with only the first table
			// bound (seedRows); resolve them at that frame width too.
			sc.limit = 1
			for _, ap := range sp.access {
				walk(ap.val)
			}
		}
		for k := range st.Joins {
			sc.limit = k + 2
			walk(st.Joins[k].On)
		}
		sc.limit = full
		for _, item := range st.Items {
			if !item.Star {
				walk(item.Expr)
			}
		}
		walk(st.Where)
		for _, g := range st.GroupBy {
			walk(g)
		}
		walk(st.Having)
		for _, o := range st.OrderBy {
			// A bare name matching a select alias resolves to the output
			// column, not through the frame chain (orderKeys).
			if col, isCol := o.Expr.(*EColumn); isCol && col.Qual == "" {
				if _, alias := sp.aliases[strings.ToLower(col.Name)]; alias {
					continue
				}
			}
			walk(o.Expr)
		}
		walk(st.Limit)
		scopes = scopes[:len(scopes)-1]
	}

	walk(e)
	if !ok {
		return nil, false
	}
	sort.Ints(locals)
	return locals, true
}

// corrSub compiles a correlated subexpression (a subquery, EXISTS, or IN)
// into a vexpr that binds the local rows it depends on and delegates to the
// row evaluator — so semantics, including every error, are the row engine's
// by construction — memoized per distinct combination of local row
// positions. The dependency set comes from corrLocals, a compile-time mirror
// of the frame chain's scope walk, so unqualified references resolve exactly
// as they would at runtime. Free references beyond the local tables resolve
// in *outer* frames, which are fixed for the whole execution, so they do not
// enter the memo key; a reference reaching a local table beyond ntab (not
// yet bound at this pipeline stage) refuses.
//
// The row engine re-evaluates the subexpression per tuple; it is
// deterministic and side-effect free, so per-distinct-row evaluation returns
// the same values and raises an error for the same batches of rows. When
// duplicates exist the evaluation *count* differs, never the outcome.
func (cp *vecCompiler) corrSub(e Expr, ntab int) (vexpr, bool) {
	locals, ok := cp.corrLocals(e, ntab)
	if !ok {
		return nil, cp.fail(fbSubquery)
	}
	if len(locals) > 2 {
		return nil, cp.fail(fbSubquery) // memo key packs at most two positions
	}
	return func(vc *vecCtx, b *vbatch, out *vcol) error {
		vals := out.alloc(b.n)
		var views [2][]Row
		for k, t := range locals {
			views[k] = vc.tabs[t].scan()
		}
		for i := 0; i < b.n; i++ {
			key := corrKey{e: e}
			for _, t := range locals {
				key.pos = key.pos<<32 | uint64(uint32(b.pos[t][i]))
			}
			if v, ok := vc.corrMemo[key]; ok {
				vals[i] = v
				continue
			}
			for k, t := range locals {
				vc.bts[t].row = views[k][b.pos[t][i]]
			}
			v, err := vc.ec.eval(e, &vc.fr)
			for _, t := range locals {
				vc.bts[t].row = nil
			}
			if err != nil {
				return err
			}
			if vc.corrMemo == nil {
				vc.corrMemo = make(map[corrKey]Value)
			}
			vc.corrMemo[key] = v
			vals[i] = v
		}
		return nil
	}, true
}

// corrLookup vectorizes the correlated point-lookup shape the ASL property
// compiler emits for attribute dereference:
//
//	(SELECT d.attr FROM Class d WHERE d.id = <expr over local tables>)
//
// a single-table, single-column scalar subquery whose WHERE is exactly one
// equality pinning a column of the inner table to an expression over the
// local batch tables. The row engine runs the full execSelect machinery per
// outer tuple — frames, seeding, a ResultSet — for what is one hash-index
// probe. Here the key side is evaluated batch-at-a-time, then each row does
// the probe plus the same equality recheck the row engine applies after
// index seeding (shared applyBinary kernel, same operand order), so NULL
// keys, duplicate matches, and comparison errors behave identically:
// 0 matches → NULL, n>1 matches → the row engine's cardinality error.
//
// Two nuances route to the generic delegation path (corrSub) at runtime
// rather than diverge: a missing index on the pinned column (the row engine
// would scan), and a key evaluation error (the row engine surfaces it only
// through the per-row recheck, which it never reaches when the inner table
// is empty).
func (cp *vecCompiler) corrLookup(x *ESubquery, ntab int) (vexpr, bool) {
	st := x.Select
	if st.From == nil || len(st.Joins) != 0 || st.Where == nil ||
		len(st.GroupBy) != 0 || st.Having != nil || len(st.OrderBy) != 0 ||
		st.Limit != nil || len(st.Items) != 1 || st.Items[0].Star {
		return nil, false
	}
	sub := cp.p.selects[st]
	if sub == nil || sub.from == nil {
		return nil, false
	}
	t, binding := sub.from, sub.fromBinding
	itemCol, ok := subTableCol(st.Items[0].Expr, binding, t)
	if !ok {
		return nil, false
	}
	eq, ok := st.Where.(*EBinary)
	if !ok || eq.Op != OpEq {
		return nil, false
	}
	keyCol, keyExpr, colIsLeft := -1, Expr(nil), false
	if c, ok := subTableCol(eq.L, binding, t); ok {
		keyCol, keyExpr, colIsLeft = c, eq.R, true
	} else if c, ok := subTableCol(eq.R, binding, t); ok {
		keyCol, keyExpr, colIsLeft = c, eq.L, false
	}
	if keyCol < 0 {
		return nil, false
	}
	// The key must vectorize over the local tables alone; references into
	// the inner scope (or unqualified names, which the inner scope could
	// shadow) would compile against the wrong tables.
	fi := cp.freeOf(keyExpr)
	if fi.unqual {
		return nil, false
	}
	for _, q := range fi.quals {
		if q == binding {
			return nil, false
		}
	}
	kx, ok := cp.compile(keyExpr, ntab)
	if !ok {
		return nil, false
	}
	slow, ok := cp.corrSub(x, ntab)
	if !ok {
		return nil, false
	}
	return func(vc *vecCtx, b *vbatch, out *vcol) error {
		// Grab the probe index once per batch: index mutations happen only
		// under the exclusive DB statement lock, which excludes SELECTs.
		ix := t.index(keyCol)
		if ix == nil {
			return slow(vc, b, out)
		}
		kc := vc.getCol()
		defer vc.putCol(kc)
		if err := kx(vc, b, kc); err != nil {
			return slow(vc, b, out)
		}
		vals := out.alloc(b.n)
		for i := 0; i < b.n; i++ {
			kv := kc.at(i)
			nmatch, matched := 0, -1
			for _, p := range ix.get(kv) {
				sv := t.cols[keyCol].value(p)
				var eqv Value
				var err error
				if colIsLeft {
					eqv, err = applyBinary(OpEq, sv, kv)
				} else {
					eqv, err = applyBinary(OpEq, kv, sv)
				}
				if err != nil {
					return err
				}
				if !eqv.IsNull() && eqv.Bool() {
					nmatch++
					matched = p
				}
			}
			switch nmatch {
			case 0:
				vals[i] = Null
			case 1:
				vals[i] = t.cols[itemCol].value(matched)
			default:
				return fmt.Errorf("sqldb: scalar subquery returned %d rows", nmatch)
			}
		}
		return nil
	}, true
}

// subTableCol resolves an expression as a plain column of the subquery's own
// table: qualified by its binding, or unqualified with the name present in
// the table (the inner scope wins resolution in both engines).
func subTableCol(e Expr, binding string, t *Table) (int, bool) {
	x, ok := e.(*EColumn)
	if !ok {
		return 0, false
	}
	lqual, lname := x.keys()
	if lqual != "" && lqual != binding {
		return 0, false
	}
	c, ok := t.colIdx[lname]
	return c, ok
}

// refsTable reports whether the expression references the bound table with
// ordinal tab (used to refuse outer keys that read the joined table).
func refsTable(e Expr, cp *vecCompiler, ntab, tab int) bool {
	found := false
	var walk func(Expr)
	walk = func(e Expr) {
		if found {
			return
		}
		switch x := e.(type) {
		case *EColumn:
			if t, _, ok := cp.resolveCol(x, ntab); ok && t == tab {
				found = true
			}
		case *EBinary:
			walk(x.L)
			walk(x.R)
		case *EUnary:
			walk(x.X)
		case *ECall:
			for _, a := range x.Args {
				walk(a)
			}
		case *EIsNull:
			walk(x.X)
		case *EIn:
			walk(x.X)
			for _, a := range x.List {
				walk(a)
			}
		}
	}
	walk(e)
	return found
}

// compile builds the vexpr of one expression over the first ntab bound
// tables, or reports that the shape is not covered.
func (cp *vecCompiler) compile(e Expr, ntab int) (vexpr, bool) {
	switch x := e.(type) {
	case *ELit:
		v := x.Value
		return func(vc *vecCtx, b *vbatch, out *vcol) error {
			out.setConst(v)
			return nil
		}, true
	case *EParam:
		return func(vc *vecCtx, b *vbatch, out *vcol) error {
			v, err := vc.ec.eval(x, &vc.fr)
			if err != nil {
				return err
			}
			out.setConst(v)
			return nil
		}, true
	case *EColumn:
		tab, col, ok := cp.resolveCol(x, ntab)
		if !ok {
			return nil, false
		}
		return vecColumn(tab, col), true
	case *EUnary:
		child, ok := cp.compile(x.X, ntab)
		if !ok {
			return nil, false
		}
		return vecUnary(x.Neg, child), true
	case *EBinary:
		l, ok := cp.compile(x.L, ntab)
		if !ok {
			return nil, false
		}
		r, ok := cp.compile(x.R, ntab)
		if !ok {
			return nil, false
		}
		if x.Op == OpAnd || x.Op == OpOr {
			return vecAndOr(x.Op, l, r), true
		}
		return vecBinary(x.Op, l, r), true
	case *EIsNull:
		child, ok := cp.compile(x.X, ntab)
		if !ok {
			return nil, false
		}
		not := x.Not
		return func(vc *vecCtx, b *vbatch, out *vcol) error {
			c := vc.getCol()
			defer vc.putCol(c)
			if err := child(vc, b, c); err != nil {
				return err
			}
			if c.isConst {
				out.setConst(NewBool(c.cval.IsNull() != not))
				return nil
			}
			vals := out.alloc(b.n)
			for i := 0; i < b.n; i++ {
				vals[i] = NewBool(c.vals[i].IsNull() != not)
			}
			return nil
		}, true
	case *ECall:
		if x.IsAggregate() {
			// Aggregates are handled by the grouped pipeline (collectAggs);
			// anywhere else the row engine raises the matching error.
			return nil, false
		}
		args := make([]vexpr, len(x.Args))
		for i, a := range x.Args {
			ae, ok := cp.compile(a, ntab)
			if !ok {
				return nil, false
			}
			args[i] = ae
		}
		return vecCall(x.Name, args), true
	case *ESubquery:
		if cp.closed(x) {
			return vecLazy(x), true
		}
		if ve, ok := cp.corrLookup(x, ntab); ok {
			return ve, true
		}
		return cp.corrSub(x, ntab)
	case *EExists:
		if cp.closed(x) {
			return vecLazy(x), true
		}
		return cp.corrSub(x, ntab)
	case *EIn:
		if x.Sub != nil && !closedSelect(x.Sub) {
			// Correlated IN subquery: delegate the whole node per distinct
			// local row (the needle is re-evaluated with it).
			return cp.corrSub(x, ntab)
		}
		xe, ok := cp.compile(x.X, ntab)
		if !ok {
			return nil, false
		}
		if x.Sub != nil {
			return vecInSub(x, xe), true
		}
		list := make([]vexpr, len(x.List))
		for i, a := range x.List {
			ae, ok := cp.compile(a, ntab)
			if !ok {
				return nil, false
			}
			list[i] = ae
		}
		return vecInList(xe, list, x.Not), true
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Compiled operators
// ---------------------------------------------------------------------------

// vecColumn loads a column of bound table tab for every batch row, straight
// from the typed storage vectors.
func vecColumn(tab, col int) vexpr {
	return func(vc *vecCtx, b *vbatch, out *vcol) error {
		cv := vc.tabs[tab].cols[col]
		pos := b.pos[tab]
		vals := out.alloc(b.n)
		switch cv.typ {
		case TInt:
			for i, p := range pos {
				if cv.nulls.get(int(p)) {
					vals[i] = Value{}
				} else {
					vals[i] = Value{kind: kindInt, i: cv.ints[p]}
				}
			}
		case TBool:
			for i, p := range pos {
				if cv.nulls.get(int(p)) {
					vals[i] = Value{}
				} else {
					vals[i] = Value{kind: kindBool, i: cv.ints[p]}
				}
			}
		case TFloat:
			for i, p := range pos {
				if cv.nulls.get(int(p)) {
					vals[i] = Value{}
				} else {
					vals[i] = Value{kind: kindFloat, f: cv.flts[p]}
				}
			}
		case TText:
			for i, p := range pos {
				if cv.nulls.get(int(p)) {
					vals[i] = Value{}
				} else {
					vals[i] = Value{kind: kindText, s: cv.strs[p]}
				}
			}
		}
		return nil
	}
}

func vecUnary(neg bool, child vexpr) vexpr {
	return func(vc *vecCtx, b *vbatch, out *vcol) error {
		c := vc.getCol()
		defer vc.putCol(c)
		if err := child(vc, b, c); err != nil {
			return err
		}
		if c.isConst {
			v, err := applyUnary(neg, c.cval)
			if err != nil {
				return err
			}
			out.setConst(v)
			return nil
		}
		vals := out.alloc(b.n)
		for i := 0; i < b.n; i++ {
			v, err := applyUnary(neg, c.vals[i])
			if err != nil {
				return err
			}
			vals[i] = v
		}
		return nil
	}
}

// vecBinary evaluates a non-logical binary operator: both sides fully, then
// the shared kernel per row — the same evaluation set as the row engine,
// which has no short-circuit for these operators. Comparisons against a
// constant take a typed fast path that bypasses the kernel's double dispatch
// while reproducing Compare exactly.
func vecBinary(op BinOp, l, r vexpr) vexpr {
	cmp := op == OpEq || op == OpNeq || op == OpLt || op == OpLeq || op == OpGt || op == OpGeq
	return func(vc *vecCtx, b *vbatch, out *vcol) error {
		lc := vc.getCol()
		defer vc.putCol(lc)
		if err := l(vc, b, lc); err != nil {
			return err
		}
		rc := vc.getCol()
		defer vc.putCol(rc)
		if err := r(vc, b, rc); err != nil {
			return err
		}
		if lc.isConst && rc.isConst {
			v, err := applyBinary(op, lc.cval, rc.cval)
			if err != nil {
				return err
			}
			out.setConst(v)
			return nil
		}
		vals := out.alloc(b.n)
		if cmp && rc.isConst && !rc.cval.IsNull() {
			if done, err := cmpColConst(op, lc.vals, rc.cval, vals); done {
				return err
			}
		}
		for i := 0; i < b.n; i++ {
			v, err := applyBinary(op, lc.at(i), rc.at(i))
			if err != nil {
				return err
			}
			vals[i] = v
		}
		return nil
	}
}

// cmpColConst compares a value vector against a non-NULL constant without
// per-row kernel dispatch. It handles the homogeneous cases — numeric vs
// numeric and text vs text (modulo NULLs) — and reports done=false when a
// row needs the full kernel (mixed types, error cases), which then re-runs
// the whole batch through applyBinary.
func cmpColConst(op BinOp, lv []Value, rv Value, out []Value) (bool, error) {
	sign := func(cmp int) bool {
		switch op {
		case OpEq:
			return cmp == 0
		case OpNeq:
			return cmp != 0
		case OpLt:
			return cmp < 0
		case OpLeq:
			return cmp <= 0
		case OpGt:
			return cmp > 0
		}
		return cmp >= 0
	}
	switch {
	case rv.IsNumeric():
		rf := rv.Float()
		for i, v := range lv {
			switch v.kind {
			case kindNull:
				out[i] = Value{}
			case kindInt:
				lf := float64(v.i)
				out[i] = NewBool(sign(b2i(lf > rf) - b2i(lf < rf)))
			case kindFloat:
				out[i] = NewBool(sign(b2i(v.f > rf) - b2i(v.f < rf)))
			default:
				return false, nil
			}
		}
		return true, nil
	case rv.IsText():
		rs := rv.Text()
		for i, v := range lv {
			switch v.kind {
			case kindNull:
				out[i] = Value{}
			case kindText:
				out[i] = NewBool(sign(strings.Compare(v.s, rs)))
			default:
				return false, nil
			}
		}
		return true, nil
	}
	return false, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// vecAndOr evaluates AND/OR with selection narrowing that mirrors the row
// engine's short-circuit exactly: the right operand runs only over the batch
// rows whose left value did not decide the result (a decisive boolean —
// false for AND, true for OR), so both engines evaluate the same set of
// (row, subexpression) pairs and surface the same errors.
func vecAndOr(op BinOp, l, r vexpr) vexpr {
	return func(vc *vecCtx, b *vbatch, out *vcol) error {
		lc := vc.getCol()
		defer vc.putCol(lc)
		if err := l(vc, b, lc); err != nil {
			return err
		}
		if lc.isConst {
			if decided, v := logicalShortCircuit(op, lc.cval); decided {
				out.setConst(v)
				return nil
			}
			// Undecided for every row: evaluate R over the whole batch.
			rc := vc.getCol()
			defer vc.putCol(rc)
			if err := r(vc, b, rc); err != nil {
				return err
			}
			if rc.isConst {
				v, err := combineAndOr(op, lc.cval, rc.cval)
				if err != nil {
					return err
				}
				out.setConst(v)
				return nil
			}
			vals := out.alloc(b.n)
			for i := 0; i < b.n; i++ {
				v, err := combineAndOr(op, lc.cval, rc.vals[i])
				if err != nil {
					return err
				}
				vals[i] = v
			}
			return nil
		}

		vals := out.alloc(b.n)
		// First pass: decide what the left side alone decides.
		sub := vc.getBatch(len(b.pos))
		defer vc.putBatch(sub)
		subIdx := vc.getIdx()
		defer func() { vc.putIdx(subIdx) }()
		for i := 0; i < b.n; i++ {
			if decided, v := logicalShortCircuit(op, lc.vals[i]); decided {
				vals[i] = v
				continue
			}
			subIdx = append(subIdx, int32(i))
		}
		if len(subIdx) == 0 {
			return nil
		}
		rc := vc.getCol()
		defer vc.putCol(rc)
		if len(subIdx) == b.n {
			// No row decided by the left side alone — the common case after
			// an index seed. Evaluate R over the batch as-is, skipping the
			// sub-batch gather.
			if err := r(vc, b, rc); err != nil {
				return err
			}
			for i := 0; i < b.n; i++ {
				v, err := combineAndOr(op, lc.vals[i], rc.at(i))
				if err != nil {
					return err
				}
				vals[i] = v
			}
			return nil
		}
		gatherBatch(sub, b, subIdx)
		if err := r(vc, sub, rc); err != nil {
			return err
		}
		for k, i := range subIdx {
			v, err := combineAndOr(op, lc.vals[i], rc.at(k))
			if err != nil {
				return err
			}
			vals[i] = v
		}
		return nil
	}
}

func vecCall(name string, args []vexpr) vexpr {
	return func(vc *vecCtx, b *vbatch, out *vcol) error {
		cols := make([]*vcol, len(args))
		for i, a := range args {
			c := vc.getCol()
			cols[i] = c
			if err := a(vc, b, c); err != nil {
				for _, cc := range cols[:i+1] {
					vc.putCol(cc)
				}
				return err
			}
		}
		defer func() {
			for _, c := range cols {
				vc.putCol(c)
			}
		}()
		argBuf := make([]Value, len(args))
		vals := out.alloc(b.n)
		for i := 0; i < b.n; i++ {
			for j, c := range cols {
				argBuf[j] = c.at(i)
			}
			v, err := applyScalarFunc(name, argBuf)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		return nil
	}
}

// vecLazy evaluates a closed subexpression (scalar subquery, EXISTS) lazily:
// once per execution, on the first batch that reaches it, through the row
// engine — sharing the statement-wide invariant-subquery cache.
func vecLazy(e Expr) vexpr {
	return func(vc *vecCtx, b *vbatch, out *vcol) error {
		v, err := vc.lazyEval(e)
		if err != nil {
			return err
		}
		out.setConst(v)
		return nil
	}
}

func vecInSub(x *EIn, xe vexpr) vexpr {
	return func(vc *vecCtx, b *vbatch, out *vcol) error {
		lc := vc.getCol()
		defer vc.putCol(lc)
		if err := xe(vc, b, lc); err != nil {
			return err
		}
		cands, err := vc.inCandidates(x)
		if err != nil {
			return err
		}
		if lc.isConst {
			v, err := applyInList(lc.cval, cands, x.Not)
			if err != nil {
				return err
			}
			out.setConst(v)
			return nil
		}
		vals := out.alloc(b.n)
		for i := 0; i < b.n; i++ {
			v, err := applyInList(lc.vals[i], cands, x.Not)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		return nil
	}
}

func vecInList(xe vexpr, list []vexpr, not bool) vexpr {
	return func(vc *vecCtx, b *vbatch, out *vcol) error {
		lc := vc.getCol()
		defer vc.putCol(lc)
		if err := xe(vc, b, lc); err != nil {
			return err
		}
		cols := make([]*vcol, len(list))
		for i, a := range list {
			c := vc.getCol()
			cols[i] = c
			if err := a(vc, b, c); err != nil {
				for _, cc := range cols[:i+1] {
					vc.putCol(cc)
				}
				return err
			}
		}
		defer func() {
			for _, c := range cols {
				vc.putCol(c)
			}
		}()
		cands := make([]Value, len(list))
		vals := out.alloc(b.n)
		for i := 0; i < b.n; i++ {
			for j, c := range cols {
				cands[j] = c.at(i)
			}
			v, err := applyInList(lc.at(i), cands, not)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		return nil
	}
}

// gatherBatch fills dst with the rows of src selected by idx.
func gatherBatch(dst *vbatch, src *vbatch, idx []int32) {
	dst.n = len(idx)
	for t := range src.pos {
		if src.pos[t] == nil {
			dst.pos[t] = nil
			continue
		}
		col := dst.pos[t][:0]
		if cap(col) < len(idx) {
			col = make([]int32, 0, len(idx))
		}
		for _, i := range idx {
			col = append(col, src.pos[t][i])
		}
		dst.pos[t] = col
	}
}
