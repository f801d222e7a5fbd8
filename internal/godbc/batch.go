package godbc

// Batched statement execution: the JDBC addBatch/executeBatch analogue.
// Bindings accumulated on a prepared statement are shipped to the server in
// one ReqExecBatch round trip (split transparently when they exceed the
// protocol's MaxBatch), so N executions of the same statement cost one
// client/server round trip instead of N.

import (
	"context"
	"fmt"

	"repro/internal/asl/sqlgen"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// BatchResult is the per-binding outcome of an executed batch: Err, or an
// affected-row count and (for SELECT) the binding's result set.
type BatchResult struct {
	Set      *sqldb.ResultSet
	Affected int
	Err      error
}

// AddBatch queues one parameter set on the statement, like JDBC's addBatch.
// The queue is shipped, in order, by ExecuteBatch.
func (st *Stmt) AddBatch(params *sqldb.Params) {
	st.batch = append(st.batch, params)
}

// ExecuteBatch executes the queued parameter sets and clears the queue. The
// returned results are ordered as the bindings were added; per-binding
// failures are reported in the results and do not stop later bindings.
func (st *Stmt) ExecuteBatch() ([]BatchResult, error) {
	bindings := st.batch
	st.batch = nil
	return st.ExecBatch(bindings)
}

// ExecBatch executes the statement once per binding. Batches larger than
// wire.MaxBatch are split into multiple requests; results are returned in
// binding order regardless of the split.
func (st *Stmt) ExecBatch(bindings []*sqldb.Params) ([]BatchResult, error) {
	return st.execBatch(context.Background(), bindings)
}

// ExecQueryBatch implements sqlgen.BatchPreparedQuery on a connection-bound
// prepared statement.
func (st *Stmt) ExecQueryBatch(bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	return st.ExecQueryBatchContext(context.Background(), bindings)
}

// ExecQueryBatchContext is ExecQueryBatch observing ctx before and during
// every chunk's round trip.
func (st *Stmt) ExecQueryBatchContext(ctx context.Context, bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	results, err := st.execBatch(ctx, bindings)
	if err != nil {
		return nil, err
	}
	return queryResults(results), nil
}

func (st *Stmt) execBatch(ctx context.Context, bindings []*sqldb.Params) ([]BatchResult, error) {
	if st.closed {
		return nil, errStmtClosed
	}
	out := make([]BatchResult, 0, len(bindings))
	for start := 0; start < len(bindings); start += wire.MaxBatch {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		chunk := bindings[start:min(start+wire.MaxBatch, len(bindings))]
		resp, err := st.conn.roundTripCtx(ctx, batchRequest(st.id, chunk))
		if err == nil {
			out, err = decodeBatch(out, resp, len(chunk))
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// batchRequest builds the ReqExecBatch request of one chunk of bindings.
func batchRequest(stmtID int64, bindings []*sqldb.Params) *wire.Request {
	req := &wire.Request{Kind: wire.ReqExecBatch, StmtID: stmtID, Batch: make([]wire.BatchBinding, len(bindings))}
	for i, p := range bindings {
		req.Batch[i].Pos, req.Batch[i].Named = encodeValues(p)
	}
	return req
}

// decodeBatch appends the per-binding results of a ReqExecBatch reply for n
// bindings to out, in binding order. A statement-level failure fails the
// whole chunk.
func decodeBatch(out []BatchResult, resp *wire.Response, n int) ([]BatchResult, error) {
	if _, err := replyErr(resp, nil); err != nil {
		return nil, err
	}
	if len(resp.Items) != n {
		return nil, fmt.Errorf("godbc: batch returned %d results for %d bindings", len(resp.Items), n)
	}
	for _, item := range resp.Items {
		if item.Err != "" {
			out = append(out, BatchResult{Err: fmt.Errorf("godbc: %s", item.Err)})
			continue
		}
		out = append(out, BatchResult{Affected: item.Affected, Set: decodeRows(item.Columns, item.Rows)})
	}
	return out, nil
}

// queryResults converts wire batch results to the analyzer's shape.
func queryResults(results []BatchResult) []sqlgen.BatchQueryResult {
	out := make([]sqlgen.BatchQueryResult, len(results))
	for i, r := range results {
		out[i] = sqlgen.BatchQueryResult{Set: r.Set, Err: r.Err}
	}
	return out
}

// toQueryResults converts the embedded engine's batch results to the
// analyzer's shape.
func toQueryResults(results []sqldb.BatchResult) []sqlgen.BatchQueryResult {
	out := make([]sqlgen.BatchQueryResult, len(results))
	for i, r := range results {
		switch {
		case r.Err != nil:
			out[i] = sqlgen.BatchQueryResult{Err: r.Err}
		case r.Res.Set == nil:
			out[i] = sqlgen.BatchQueryResult{Err: errNoResultSet}
		default:
			out[i] = sqlgen.BatchQueryResult{Set: r.Res.Set}
		}
	}
	return out
}
