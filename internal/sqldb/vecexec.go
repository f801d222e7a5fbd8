package sqldb

// The vectorized SELECT pipeline. A compiled plan (vec.go) runs here as a
// chain of physical operators over batches of row positions:
//
//	seed (access paths / full scan, as positions)
//	  → hash-join probes (equi-column index, built lazily like the row engine)
//	  → residual-conjunct and WHERE filters (selection-vector narrowing)
//	  → projection, or streaming grouped aggregation
//	  → shared ORDER BY / LIMIT tail (exec.go)
//
// The pipeline mirrors the row interpreter's observable behavior exactly:
// same seed strategy (including falling back to a scan when an access path's
// key errors), same join expansion order (index position order), same
// conjunct narrowing order, same first-seen group order, same accumulation
// order (so float sums are bit-identical), and the same shared sort/LIMIT
// code. Grouped finalization is hybrid: aggregates are accumulated here,
// batch-at-a-time, then the scalar parts of the projection and HAVING run
// through the row evaluator with the aggregate call sites pre-folded
// (execCtx.aggPre), against the group's representative row.

import "fmt"

// vecGroup is the streaming state of one group: the representative row
// positions (the group's first row, mirroring the row engine's rep tuple),
// one accumulator per aggregate call site, and the tuple count.
type vecGroup struct {
	rep    []int32
	hasRep bool
	accs   []aggAcc
	n      int64
}

func (ec *execCtx) vecExecSelect(st *SelectStmt, sp *selectPlan, parent *frame) (*ResultSet, error) {
	rows, err := ec.vecExecRows(st, sp, parent, nil)
	if err != nil {
		return nil, err
	}
	set := &ResultSet{Columns: sp.vec.columns}
	set.Rows = make([]Row, len(rows))
	for i := range rows {
		set.Rows[i] = rows[i].row
	}
	return set, nil
}

// vecExecScalar evaluates a planned single-column SELECT in scalar-subquery
// position without materializing a ResultSet — the shape the property
// queries hit once per attribute dereference. Cardinality semantics are the
// row engine's: 0 rows → NULL, one row → its value, more → the error.
func (ec *execCtx) vecExecScalar(st *SelectStmt, sp *selectPlan, parent *frame) (Value, error) {
	n, first, err := ec.vecCount(st, sp, parent)
	if err != nil {
		return Null, err
	}
	switch n {
	case 0:
		return Null, nil
	case 1:
		return first, nil
	}
	return Null, fmt.Errorf("sqldb: scalar subquery returned %d rows", n)
}

// vecExecExists evaluates a planned SELECT in EXISTS position without
// materializing a ResultSet.
func (ec *execCtx) vecExecExists(st *SelectStmt, sp *selectPlan, parent *frame) (Value, error) {
	n, _, err := ec.vecCount(st, sp, parent)
	if err != nil {
		return Null, err
	}
	return NewBool(n > 0), nil
}

// rowCount is the sink of a SELECT whose rows need not be materialized: the
// number of output rows and the first column of the first one.
type rowCount struct {
	n     int
	first Value
}

// vecCount runs a planned SELECT for its row count and first value — all a
// scalar or EXISTS subquery observes. A non-grouped SELECT without ORDER BY
// or LIMIT drains into a rowCount sink, skipping the per-row output cells;
// the others are sorted and limited first, so they materialize their rows.
func (ec *execCtx) vecCount(st *SelectStmt, sp *selectPlan, parent *frame) (int, Value, error) {
	if !sp.vec.grouped && len(st.OrderBy) == 0 && st.Limit == nil {
		var c rowCount
		if _, err := ec.vecExecRows(st, sp, parent, &c); err != nil {
			return 0, Null, err
		}
		return c.n, c.first, nil
	}
	rows, err := ec.vecExecRows(st, sp, parent, nil)
	if err != nil || len(rows) == 0 || len(rows[0].row) == 0 {
		return len(rows), Null, err
	}
	return len(rows), rows[0].row[0], nil
}

// vecExecRows runs the compiled pipeline of one planned SELECT and returns
// the ordered, limited output rows. Row cells are freshly allocated —
// nothing aliases the pooled context, which is released on return. With a
// sink (non-grouped plans only), the projected rows are counted into it
// instead and no rows are returned.
func (ec *execCtx) vecExecRows(st *SelectStmt, sp *selectPlan, parent *frame, sink *rowCount) ([]sortableRow, error) {
	vp := sp.vec

	// Bind the tables. Rows stay nil — positions replace them — except
	// during grouped finalization, which materializes representative rows.
	// A table-less SELECT binds nothing and runs one batch of one empty
	// tuple, mirroring the row engine's single seed tuple.
	vc := acquireVecCtx(ec, vp.nTab)
	defer vc.release()
	vc.fr = frame{parent: parent}
	bts, tabs := vc.bts, vc.tabs
	fr := &vc.fr
	var seed []int32
	var err error
	if vp.nTab > 0 {
		vc.btStore[0] = boundTable{binding: sp.fromBinding, table: sp.from}
		vc.tabs[0] = sp.from
		for i := range sp.joins {
			vc.btStore[i+1] = boundTable{binding: sp.joins[i].binding, table: sp.joins[i].table}
			vc.tabs[i+1] = sp.joins[i].table
		}
		fr.tables = bts[:1]

		// Seed positions while the frame holds only the first table —
		// access-path keys resolve exactly as they would in the row engine's
		// seed phase.
		seed, err = ec.vecSeed(sp, fr, bts[0], vc.seed[:0])
		if err != nil {
			return nil, err
		}
		vc.seed = seed
		fr.tables = bts
	}

	// Grab each equi-join's probe index once: indexes mutate only under the
	// exclusive DB statement lock, so probes need no further locking.
	// Nested-loop joins (eqCol < 0) have no index.
	idxs := vc.idxBuf[:0]
	for k := range vp.joins {
		var ix *colIndex
		if vp.joins[k].eqCol >= 0 {
			ix = tabs[k+1].createIndex(vp.joins[k].eqCol)
		}
		idxs = append(idxs, ix)
	}
	vc.idxBuf = idxs

	// Decide the filter strategy for the whole execution: fused kernels when
	// every comparand binds and class-checks, the compiled filter tree
	// otherwise (which also reproduces comparand errors).
	fused := vp.fused
	if fused != nil && !vc.fuseReady(fused) {
		fused = nil
	}

	var rows []sortableRow

	// Grouped state, shared across batches: first-seen key order, as in
	// groupTuples. Without GROUP BY the single group exists even when empty —
	// and lives on the pooled context (the scalar-aggregation shape of the
	// property queries), skipping the key/map machinery entirely.
	var groups map[string]*vecGroup
	var groupOrder []string
	var single *vecGroup
	newGroup := func() *vecGroup {
		g := &vecGroup{}
		if len(vp.aggs) > 0 {
			g.accs = make([]aggAcc, len(vp.aggs))
			for i := range g.accs {
				g.accs[i] = newAggAcc()
			}
		}
		return g
	}
	if vp.grouped {
		if len(vp.groupBy) == 0 {
			single = vc.singleGroup(vp)
		} else {
			groups = make(map[string]*vecGroup)
		}
	}

	b, nb := &vc.b, &vc.nb
	keyBuf := vc.keyBuf

	for start := 0; ; start += vecBatchSize {
		if vp.nTab == 0 {
			// One batch of one empty tuple, like the row engine's seed.
			if start > 0 {
				break
			}
			b.n = 1
		} else {
			if start >= len(seed) {
				break
			}
			end := start + vecBatchSize
			if end > len(seed) {
				end = len(seed)
			}
			b.n = end - start
			// Copy the chunk out of the seed buffer: the position batches are
			// pooled, and a gather reusing one of them in place must never
			// write into unconsumed seed positions.
			if cap(vc.chunkBuf) < b.n {
				vc.chunkBuf = make([]int32, vecBatchSize)
			}
			vc.chunkBuf = vc.chunkBuf[:b.n]
			copy(vc.chunkBuf, seed[start:end])
			b.pos[0] = vc.chunkBuf
			for t := 1; t < vp.nTab; t++ {
				b.pos[t] = nil
			}
		}

		// Join expansions, narrowing by the residual conjuncts after each.
		for k := range vp.joins {
			if b.n == 0 {
				break
			}
			if vp.joins[k].eqCol < 0 {
				vc.crossJoin(b, nb, k)
			} else if err := vc.probeJoin(b, nb, &vp.joins[k], k, idxs[k]); err != nil {
				return nil, err
			}
			b, nb = nb, b
			for _, rest := range vp.joins[k].rest {
				if b.n == 0 {
					break
				}
				out, err := vc.narrow(b, nb, rest)
				if err != nil {
					return nil, err
				}
				if out != b {
					b, nb = nb, b
				}
			}
		}
		if b.n == 0 {
			continue
		}

		// WHERE.
		if vp.filter != nil {
			if fused != nil {
				out := vc.narrowFused(b, nb, fused)
				if out != b {
					b, nb = nb, b
				}
			} else {
				out, err := vc.narrow(b, nb, vp.filter)
				if err != nil {
					return nil, err
				}
				if out != b {
					b, nb = nb, b
				}
			}
			if b.n == 0 {
				continue
			}
		}

		if vp.grouped {
			if single != nil {
				if err := vc.accumulateSingle(b, vp, single); err != nil {
					return nil, err
				}
				continue
			}
			keyBuf, err = vc.accumulate(b, vp, groups, &groupOrder, newGroup, keyBuf)
			if err != nil {
				return nil, err
			}
			continue
		}

		if sink != nil {
			if err := vc.count(b, vp, sink); err != nil {
				return nil, err
			}
			continue
		}
		out, err := vc.project(b, vp)
		if err != nil {
			return nil, err
		}
		rows = append(rows, out...)
	}

	vc.keyBuf = keyBuf

	if vp.grouped {
		seq := vc.groupSeq[:0]
		if single != nil {
			seq = append(seq, single)
		} else {
			for _, k := range groupOrder {
				seq = append(seq, groups[k])
			}
		}
		vc.groupSeq = seq
		rows, err = vc.finalizeGroups(st, vp, seq)
		if err != nil {
			return nil, err
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

	return rows, nil
}

// vecSeed returns the seed row positions of the first table: an index point
// lookup when one of the planned access paths applies (the positions are
// copied — downstream narrowing must not alias the index), a full scan
// otherwise. Mirrors seedRows, including swallowing key-evaluation errors to
// fall back to the scan.
func (ec *execCtx) vecSeed(sp *selectPlan, fr *frame, bt *boundTable, buf []int32) ([]int32, error) {
	for _, ap := range sp.access {
		ix := bt.table.index(ap.col)
		if ix == nil {
			continue
		}
		v, err := ec.eval(ap.val, fr)
		if err != nil {
			continue // not evaluable up front; fall back to a scan
		}
		for _, p := range ix.get(v) {
			buf = append(buf, int32(p))
		}
		return buf, nil
	}
	n := bt.table.nrows // stable: DML runs under the exclusive statement lock
	for i := 0; i < n; i++ {
		buf = append(buf, int32(i))
	}
	return buf, nil
}

// probeJoin expands the batch through one equi-join: evaluate the outer key,
// skip NULL keys, and emit one output row per index hit, in index position
// order — the same candidate order as the row engine's lookup loop.
func (vc *vecCtx) probeJoin(b, nb *vbatch, vj *vecJoin, k int, ix *colIndex) error {
	keys := vc.getCol()
	defer vc.putCol(keys)
	if err := vj.outer(vc, b, keys); err != nil {
		return err
	}
	nb.n = 0
	for t := 0; t <= k+1; t++ {
		nb.pos[t] = nb.pos[t][:0]
	}
	for i := 0; i < b.n; i++ {
		key := keys.at(i)
		if key.IsNull() {
			continue
		}
		for _, p := range ix.get(key) {
			for t := 0; t <= k; t++ {
				nb.pos[t] = append(nb.pos[t], b.pos[t][i])
			}
			nb.pos[k+1] = append(nb.pos[k+1], int32(p))
		}
	}
	nb.n = len(nb.pos[k+1])
	for t := k + 2; t < len(nb.pos); t++ {
		nb.pos[t] = nil
	}
	return nil
}

// crossJoin expands the batch through a nested-loop join: every batch row
// pairs with every storage row of the joined table, outer-major in storage
// order — the row engine's iteration order. The ON conjuncts all live in the
// join's rest list and narrow the product immediately after, reproducing
// checkConjuncts's early exit block-wise.
func (vc *vecCtx) crossJoin(b, nb *vbatch, k int) {
	inner := vc.tabs[k+1].nrows // stable under the statement lock
	nb.n = 0
	for t := 0; t <= k+1; t++ {
		nb.pos[t] = nb.pos[t][:0]
	}
	for i := 0; i < b.n; i++ {
		for p := 0; p < inner; p++ {
			for t := 0; t <= k; t++ {
				nb.pos[t] = append(nb.pos[t], b.pos[t][i])
			}
			nb.pos[k+1] = append(nb.pos[k+1], int32(p))
		}
	}
	nb.n = len(nb.pos[k+1])
	for t := k + 2; t < len(nb.pos); t++ {
		nb.pos[t] = nil
	}
}

// narrow filters the batch by one predicate, with the row engine's evalBool
// semantics: NULL and false drop the row, a non-NULL non-boolean raises. It
// returns the surviving batch: b itself when no row was dropped (skipping the
// gather), nb otherwise.
func (vc *vecCtx) narrow(b, nb *vbatch, pred vexpr) (*vbatch, error) {
	c := vc.getCol()
	defer vc.putCol(c)
	if err := pred(vc, b, c); err != nil {
		return nil, err
	}
	sel := vc.selBuf[:0]
	for i := 0; i < b.n; i++ {
		v := c.at(i)
		if v.IsNull() {
			continue
		}
		if !v.IsBool() {
			return nil, fmt.Errorf("sqldb: predicate evaluated to %s, want boolean", v)
		}
		if v.Bool() {
			sel = append(sel, int32(i))
		}
	}
	vc.selBuf = sel
	if len(sel) == b.n {
		return b, nil
	}
	gatherBatch(nb, b, sel)
	return nb, nil
}

// project evaluates the projection and ORDER BY keys over a batch, emitting
// one output row per batch row with a single backing allocation per batch.
func (vc *vecCtx) project(b *vbatch, vp *vecSelectPlan) ([]sortableRow, error) {
	ncol := len(vp.items)
	cells := make(Row, b.n*ncol)
	rows := make([]sortableRow, b.n)
	for i := range rows {
		rows[i].row = cells[i*ncol : (i+1)*ncol : (i+1)*ncol]
	}
	c := vc.getCol()
	defer vc.putCol(c)
	for j, item := range vp.items {
		if err := item(vc, b, c); err != nil {
			return nil, err
		}
		for i := 0; i < b.n; i++ {
			rows[i].row[j] = c.at(i)
		}
	}
	if len(vp.order) > 0 {
		kcells := make([]Value, b.n*len(vp.order))
		for i := range rows {
			rows[i].keys = kcells[i*len(vp.order) : (i+1)*len(vp.order) : (i+1)*len(vp.order)]
		}
		for j := range vp.order {
			key := &vp.order[j]
			switch {
			case key.outCol >= 0:
				for i := range rows {
					rows[i].keys[j] = rows[i].row[key.outCol]
				}
			case key.ex != nil:
				if err := key.ex(vc, b, c); err != nil {
					return nil, err
				}
				for i := 0; i < b.n; i++ {
					rows[i].keys[j] = c.at(i)
				}
			default:
				for i := range rows {
					rows[i].keys[j] = key.cval
				}
			}
		}
	}
	return rows, nil
}

// count is project into a rowCount sink: every item is evaluated over the
// batch in project's order, so the same errors surface, but only the row
// count and the first value are kept.
func (vc *vecCtx) count(b *vbatch, vp *vecSelectPlan, sink *rowCount) error {
	c := vc.getCol()
	defer vc.putCol(c)
	for j, item := range vp.items {
		if err := item(vc, b, c); err != nil {
			return err
		}
		if j == 0 && sink.n == 0 && b.n > 0 {
			sink.first = c.at(0)
		}
	}
	sink.n += b.n
	return nil
}

// accumulate folds one batch into the grouped state: evaluate the GROUP BY
// keys and aggregate arguments batch-wise, then route each row to its group
// in first-seen order. Accumulation order equals the row engine's tuple
// order, so float sums stay bit-identical.
func (vc *vecCtx) accumulate(b *vbatch, vp *vecSelectPlan, groups map[string]*vecGroup, order *[]string, newGroup func() *vecGroup, keyBuf []byte) ([]byte, error) {
	keyCols := make([]*vcol, len(vp.groupBy))
	for j, g := range vp.groupBy {
		c := vc.getCol()
		keyCols[j] = c
		if err := g(vc, b, c); err != nil {
			for _, cc := range keyCols[:j+1] {
				vc.putCol(cc)
			}
			return keyBuf, err
		}
	}
	argCols := make([]*vcol, len(vp.aggs))
	for j := range vp.aggs {
		if vp.aggs[j].arg == nil {
			continue
		}
		c := vc.getCol()
		argCols[j] = c
		if err := vp.aggs[j].arg(vc, b, c); err != nil {
			for _, cc := range keyCols {
				vc.putCol(cc)
			}
			for _, cc := range argCols[:j+1] {
				if cc != nil {
					vc.putCol(cc)
				}
			}
			return keyBuf, err
		}
	}
	defer func() {
		for _, c := range keyCols {
			vc.putCol(c)
		}
		for _, c := range argCols {
			if c != nil {
				vc.putCol(c)
			}
		}
	}()

	for i := 0; i < b.n; i++ {
		keyBuf = keyBuf[:0]
		for _, c := range keyCols {
			keyBuf = c.at(i).AppendKey(keyBuf)
			keyBuf = append(keyBuf, 0)
		}
		g, ok := groups[string(keyBuf)]
		if !ok {
			g = newGroup()
			k := string(keyBuf)
			groups[k] = g
			*order = append(*order, k)
		}
		if !g.hasRep {
			g.hasRep = true
			if cap(g.rep) < len(b.pos) {
				g.rep = make([]int32, len(b.pos))
			}
			g.rep = g.rep[:len(b.pos)]
			for t := range b.pos {
				g.rep[t] = b.pos[t][i]
			}
		}
		g.n++
		for j := range vp.aggs {
			if argCols[j] == nil {
				continue
			}
			if err := g.accs[j].add(vp.aggs[j].name, argCols[j].at(i)); err != nil {
				return keyBuf, err
			}
		}
	}
	return keyBuf, nil
}

// singleGroup readies the pooled lone-group state of a scalar aggregation
// (GROUP BY absent): the accumulators and representative-position buffer are
// reused across executions.
func (vc *vecCtx) singleGroup(vp *vecSelectPlan) *vecGroup {
	g := &vc.sg
	g.hasRep = false
	g.n = 0
	g.rep = g.rep[:0]
	if cap(g.accs) < len(vp.aggs) {
		g.accs = make([]aggAcc, len(vp.aggs))
	}
	g.accs = g.accs[:len(vp.aggs)]
	for i := range g.accs {
		g.accs[i] = newAggAcc()
	}
	return g
}

// accumulateSingle folds one batch into the lone group of a scalar
// aggregation: no key building, no map routing. The tuple-then-aggregate
// iteration order matches the row engine exactly, so float accumulation and
// error surfacing are identical.
func (vc *vecCtx) accumulateSingle(b *vbatch, vp *vecSelectPlan, g *vecGroup) error {
	args := vc.argBuf[:0]
	defer func() {
		for _, c := range args {
			if c != nil {
				vc.putCol(c)
			}
		}
	}()
	for j := range vp.aggs {
		if vp.aggs[j].arg == nil {
			args = append(args, nil)
			continue
		}
		c := vc.getCol()
		args = append(args, c)
		if err := vp.aggs[j].arg(vc, b, c); err != nil {
			vc.argBuf = args
			return err
		}
	}
	vc.argBuf = args

	if !g.hasRep && b.n > 0 {
		g.hasRep = true
		if cap(g.rep) < len(b.pos) {
			g.rep = make([]int32, len(b.pos))
		}
		g.rep = g.rep[:len(b.pos)]
		for t := range b.pos {
			g.rep[t] = b.pos[t][0]
		}
	}
	for i := 0; i < b.n; i++ {
		g.n++
		for j := range vp.aggs {
			if args[j] == nil {
				continue
			}
			if err := g.accs[j].add(vp.aggs[j].name, args[j].at(i)); err != nil {
				return err
			}
		}
	}
	return nil
}

// finalizeGroups emits one output row per surviving group, in first-seen
// order: fold the accumulated aggregates into execCtx.aggPre, bind the
// group's representative row, and run HAVING and the projection through the
// row evaluator — the hybrid path that keeps scalar semantics (subqueries,
// aliases, functions) byte-identical to the row engine's grouped output.
func (vc *vecCtx) finalizeGroups(st *SelectStmt, vp *vecSelectPlan, seq []*vecGroup) ([]sortableRow, error) {
	ec := vc.ec
	pre := vc.pre
	if pre == nil {
		pre = make(map[*ECall]Value, len(vp.aggs))
		vc.pre = pre
	}
	clear(pre)
	saved := ec.aggPre
	defer func() { ec.aggPre = saved }()

	var rows []sortableRow
	for _, g := range seq {
		if g.hasRep {
			for t, bt := range vc.bts {
				bt.row = vc.tabs[t].scan()[g.rep[t]]
			}
		} else {
			for _, bt := range vc.bts {
				bt.row = nil
			}
		}
		for j := range vp.aggs {
			ag := &vp.aggs[j]
			if ag.star {
				pre[ag.call] = NewInt(g.n)
				continue
			}
			v, err := g.accs[j].final(ag.name, ag.call.Name)
			if err != nil {
				return nil, err
			}
			pre[ag.call] = v
		}
		ec.aggPre = pre

		if st.Having != nil {
			ok, err := ec.evalBool(st.Having, &vc.fr)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		out := make(Row, 0, len(st.Items))
		for _, item := range st.Items {
			v, err := ec.eval(item.Expr, &vc.fr)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		var keys []Value
		if len(vp.order) > 0 {
			keys = make([]Value, len(vp.order))
			for j := range vp.order {
				switch {
				case vp.order[j].outCol >= 0:
					keys[j] = out[vp.order[j].outCol]
				case vp.order[j].gx != nil:
					// Evaluate the key through the row evaluator while the
					// representative row is bound and the aggregates are
					// pre-folded — exactly the row engine's orderKeys timing.
					v, err := ec.eval(vp.order[j].gx, &vc.fr)
					if err != nil {
						return nil, err
					}
					keys[j] = v
				default:
					keys[j] = vp.order[j].cval
				}
			}
		}
		rows = append(rows, sortableRow{row: out, keys: keys})
	}
	// Leave the frame rows clear: later lazy evaluations (LIMIT) must not
	// see a stale representative row.
	for _, bt := range vc.bts {
		bt.row = nil
	}
	return rows, nil
}
