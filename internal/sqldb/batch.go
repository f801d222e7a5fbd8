package sqldb

import (
	"context"
	"fmt"
)

// Batched execution: the array-binding analogue of classic database drivers.
// A statement that runs many times with only its parameters changing (the ASL
// property queries run once per property × context instance) can ship all its
// parameter sets at once; the engine then runs every binding against one
// immutable plan under a single statement-lock acquisition, instead of paying
// one acquisition — and, over the wire protocol, one client/server round
// trip — per binding.
//
// Partial failure does not abort a batch: each binding gets its own result or
// error, in binding order, so callers can map outcomes back to their inputs.
// Only statement-level failures (a closed handle, a plan that cannot be
// rebuilt after DDL, a non-DML statement) fail the batch as a whole.

// BatchResult is the outcome of one binding of a batched execution: exactly
// one of Res and Err is non-nil.
type BatchResult struct {
	Res *Result
	Err error
}

// ExecuteBatch runs the prepared statement once per binding, in order,
// holding the statement lock once for the whole batch (shared for SELECT,
// exclusive for writes). Per-binding failures are reported in the returned
// slice and do not stop later bindings. Batches are restricted to DML — DDL
// has no parameters to bind and moves the schema under the batch's own plan.
func (ps *PreparedStmt) ExecuteBatch(bindings []*Params) ([]BatchResult, error) {
	return ps.ExecuteBatchContext(context.Background(), bindings)
}

// ExecuteBatchContext is ExecuteBatch observing a context: cancellation is
// checked between bindings (the per-binding work itself is uninterruptible,
// so a cancel overshoots by at most one binding), and a canceled batch
// returns the context's error with no results — partial batches are never
// reported as success, so callers cannot mistake them for complete ones.
func (ps *PreparedStmt) ExecuteBatchContext(ctx context.Context, bindings []*Params) ([]BatchResult, error) {
	if ps.closed.Load() {
		return nil, fmt.Errorf("sqldb: prepared statement is closed")
	}
	out := make([]BatchResult, len(bindings))
	if len(bindings) == 0 {
		return out, nil
	}
	for attempt := 0; attempt < 8; attempt++ {
		plan := ps.plan.Load()
		if plan.version != ps.db.ddl.Load() {
			var err error
			if plan, err = ps.replan(); err != nil {
				return nil, err
			}
		}
		err := ps.db.execBatch(ctx, plan, bindings, out)
		if err == errPlanStale {
			continue
		}
		if err != nil {
			return nil, err
		}
		ps.db.batchExecs.Add(1)
		ps.db.batchBindings.Add(int64(len(bindings)))
		return out, nil
	}
	return nil, fmt.Errorf("sqldb: statement kept replanning during concurrent DDL")
}

// execBatch runs every binding against the plan under one lock acquisition.
// The plan version is re-validated under the lock, exactly as execStmt does
// per execution, so DDL racing the batch forces a replan rather than running
// against stale table storage; once the batch holds the lock no DDL can move
// the schema mid-batch.
func (db *DB) execBatch(ctx context.Context, plan *stmtPlan, bindings []*Params, out []BatchResult) error {
	switch st := plan.stmt.(type) {
	case *SelectStmt:
		db.mu.RLock()
		defer db.mu.RUnlock()
		if err := db.planFresh(plan); err != nil {
			return err
		}
		// The batch is the natural cache unit: each binding is looked up in
		// the result cache individually, and only the misses execute. All
		// bindings share one data-version snapshot — the shared statement
		// lock is held for the whole batch, so no DML can move the versions
		// between the first lookup and the last store. One execution context
		// serves every binding; its subquery slots are cleared in between.
		ec := &execCtx{db: db, plan: plan}
		for i, params := range bindings {
			if err := ctx.Err(); err != nil {
				return err
			}
			key, dataVer, cacheable := db.cacheKeyFor(plan, params)
			if cacheable {
				if set, hit := db.lookupResult(key, plan.version, dataVer); hit {
					out[i] = BatchResult{Res: &Result{Set: set, Cached: true}}
					continue
				}
			}
			ec.rebind(params)
			set, err := ec.execSelect(st, nil)
			if err != nil {
				out[i] = BatchResult{Err: err}
				continue
			}
			if cacheable {
				db.storeResult(key, plan.version, dataVer, set)
			}
			out[i] = BatchResult{Res: &Result{Set: set}}
		}
		return nil
	case *InsertStmt, *UpdateStmt, *DeleteStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		if err := db.planFresh(plan); err != nil {
			return err
		}
		for i, params := range bindings {
			if err := ctx.Err(); err != nil {
				return err
			}
			var res *Result
			var err error
			switch s := st.(type) {
			case *InsertStmt:
				res, err = db.execInsertLocked(s, params, plan)
			case *UpdateStmt:
				res, err = db.execUpdateLocked(s, params, plan)
			case *DeleteStmt:
				res, err = db.execDeleteLocked(s, params, plan)
			}
			out[i] = BatchResult{Res: res, Err: err}
			if err != nil {
				out[i].Res = nil
			}
		}
		return nil
	}
	return fmt.Errorf("sqldb: batch execution supports DML statements only, not %T", plan.stmt)
}
