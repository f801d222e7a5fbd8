package godbc

// This file implements prepared statements: the JDBC PreparedStatement
// analogue for the wire protocol and the embedded engine. A statement is
// parsed and planned once — on the server for networked connections,
// in-process for the embedded configurations — and then executed repeatedly
// with fresh parameters, paying only the execution cost per call.
//
// Every executor's PrepareQuery follows one rule: a statement the engine
// refuses to prepare runs as text, one binding at a time (textStmt). The
// engine's Prepare validates every referenced table eagerly, while text
// execution is lazy — a subquery over a missing table that is never
// evaluated succeeds as text — so falling back keeps results and per-binding
// diagnostics identical to text execution. Transport failures are not
// refusals; they fail the prepare.

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/asl/sqlgen"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// errStmtClosed is the failure of executing a closed statement handle.
var errStmtClosed = errors.New("godbc: prepared statement is closed")

// Stmt is a prepared statement bound to one connection, like a JDBC
// PreparedStatement. It is not safe for concurrent use (its connection is
// not); use Pool.PrepareQuery for concurrent callers.
type Stmt struct {
	conn   *Conn
	id     int64
	sql    string
	closed bool
	// batch holds parameter sets queued by AddBatch until ExecuteBatch ships
	// them (see batch.go).
	batch []*sqldb.Params
}

// Prepare parses and plans a statement on the server, returning a reusable
// handle.
func (c *Conn) Prepare(query string) (*Stmt, error) {
	resp, err := replyErr(c.roundTrip(&wire.Request{Kind: wire.ReqPrepare, SQL: query}))
	if err != nil {
		return nil, err
	}
	return &Stmt{conn: c, id: resp.StmtID, sql: query}, nil
}

// SQL returns the statement text the handle was prepared from.
func (st *Stmt) SQL() string { return st.sql }

// Exec runs the prepared statement and returns the affected-row count.
func (st *Stmt) Exec(params *sqldb.Params) (Result, error) {
	resp, err := st.exec(context.Background(), params)
	if err != nil {
		return Result{}, err
	}
	return Result{Affected: resp.Affected}, nil
}

// ExecQuery runs the prepared SELECT and returns the complete result set in
// a single round trip.
func (st *Stmt) ExecQuery(params *sqldb.Params) (*sqldb.ResultSet, error) {
	return st.ExecQueryContext(context.Background(), params)
}

// ExecQueryContext is ExecQuery observing a context.
func (st *Stmt) ExecQueryContext(ctx context.Context, params *sqldb.Params) (*sqldb.ResultSet, error) {
	resp, err := st.exec(ctx, params)
	if err != nil {
		return nil, err
	}
	return decodeSet(resp), nil
}

func (st *Stmt) exec(ctx context.Context, params *sqldb.Params) (*wire.Response, error) {
	if st.closed {
		return nil, errStmtClosed
	}
	req := &wire.Request{Kind: wire.ReqExecPrepared, StmtID: st.id}
	encodeParams(req, params)
	return replyErr(st.conn.roundTripCtx(ctx, req))
}

// Close releases the server-side handle. Closing is idempotent.
func (st *Stmt) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	if st.conn.closed || st.conn.broken {
		return nil // the server released the handle with the connection
	}
	_, err := replyErr(st.conn.roundTrip(&wire.Request{Kind: wire.ReqClosePrepared, StmtID: st.id}))
	return err
}

// PrepareQuery implements sqlgen.QueryPreparer. A statement the server
// refuses to prepare runs as text.
func (c *Conn) PrepareQuery(query string) (sqlgen.PreparedQuery, error) {
	st, err := c.Prepare(query)
	switch {
	case err == nil:
		return st, nil
	case c.broken || c.closed:
		return nil, err
	}
	return textStmt{sql: query, exec: c.ExecQueryContext}, nil
}

// prepared returns the connection's cached handle for the query, preparing
// it on first use. This is how pooled prepared statements attach to
// whichever connection serves the call: each underlying connection prepares
// a given statement at most once for its lifetime.
func (c *Conn) prepared(query string) (*Stmt, error) {
	if st, ok := c.stmts[query]; ok {
		return st, nil
	}
	st, err := c.Prepare(query)
	if err != nil {
		return nil, err
	}
	if c.stmts == nil {
		c.stmts = make(map[string]*Stmt)
	}
	c.stmts[query] = st
	return st, nil
}

// ctxStmt is the context-observing execution surface every handle here
// offers; PooledStmt dispatches to one per call.
type ctxStmt interface {
	sqlgen.ContextPreparedQuery
	sqlgen.ContextBatchPreparedQuery
}

// PooledStmt is a prepared statement over a connection pool: safe for
// concurrent use, it lazily prepares the query once per underlying
// connection and executes on whichever connection the pool hands out.
type PooledStmt struct {
	pool *Pool
	sql  string

	mu     sync.Mutex
	closed bool
	// textOnly is set after a server-side prepare rejects the statement
	// (not a transport failure): later executions go straight to the text
	// protocol instead of paying a doomed prepare round trip per call.
	textOnly bool
}

// PrepareQuery implements sqlgen.QueryPreparer. Preparation is lazy: the
// query is planned on each underlying connection the first time that
// connection serves an execution.
func (p *Pool) PrepareQuery(query string) (sqlgen.PreparedQuery, error) {
	return &PooledStmt{pool: p, sql: query}, nil
}

// ExecQuery checks a connection out of the pool, ensures the statement is
// prepared on it, and executes.
func (ps *PooledStmt) ExecQuery(params *sqldb.Params) (*sqldb.ResultSet, error) {
	return ps.ExecQueryContext(context.Background(), params)
}

// ExecQueryContext is ExecQuery observing ctx at checkout and across the
// round trip.
func (ps *PooledStmt) ExecQueryContext(ctx context.Context, params *sqldb.Params) (*sqldb.ResultSet, error) {
	c, h, err := ps.checkout(ctx)
	if err != nil {
		return nil, err
	}
	defer ps.pool.Put(c)
	return h.ExecQueryContext(ctx, params)
}

// ExecQueryBatch implements sqlgen.BatchPreparedQuery over the pool: the
// whole batch executes on one checked-out connection, so it costs one
// round trip per wire.MaxBatch chunk.
func (ps *PooledStmt) ExecQueryBatch(bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	return ps.ExecQueryBatchContext(context.Background(), bindings)
}

// ExecQueryBatchContext is ExecQueryBatch observing ctx at checkout and on
// every chunk's round trip.
func (ps *PooledStmt) ExecQueryBatchContext(ctx context.Context, bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	c, h, err := ps.checkout(ctx)
	if err != nil {
		return nil, err
	}
	defer ps.pool.Put(c)
	return h.ExecQueryBatchContext(ctx, bindings)
}

// checkout takes a connection from the pool and returns the statement's
// handle on it: the connection's prepared handle, or a text handle once the
// server has refused to prepare the statement. The caller returns c to the
// pool.
func (ps *PooledStmt) checkout(ctx context.Context) (c *Conn, h ctxStmt, err error) {
	ps.mu.Lock()
	closed, textOnly := ps.closed, ps.textOnly
	ps.mu.Unlock()
	if closed {
		return nil, nil, errStmtClosed
	}
	if c, err = ps.pool.GetCtx(ctx); err != nil {
		return nil, nil, err
	}
	if !textOnly {
		st, err := c.prepared(ps.sql)
		if err == nil {
			return c, st, nil
		}
		if c.broken {
			ps.pool.Put(c)
			return nil, nil, err
		}
		ps.mu.Lock()
		ps.textOnly = true
		ps.mu.Unlock()
	}
	return c, textStmt{sql: ps.sql, exec: c.ExecQueryContext}, nil
}

// Close marks the pooled statement closed. The per-connection handles stay
// cached on their connections (other pooled statements for the same SQL
// share them) and are released by the server when the connections close.
func (ps *PooledStmt) Close() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.closed = true
	return nil
}

// embeddedStmt adapts a sqldb prepared statement to sqlgen.PreparedQuery.
type embeddedStmt struct {
	ps *sqldb.PreparedStmt
}

// PrepareQuery implements sqlgen.QueryPreparer for the in-process engine;
// the returned handle is safe for concurrent use (sqldb plans are
// immutable). A statement the engine refuses to prepare runs as text.
func (e Embedded) PrepareQuery(query string) (sqlgen.PreparedQuery, error) {
	ps, err := e.DB.Prepare(query)
	if err != nil {
		return textStmt{sql: query, exec: e.ExecQueryContext}, nil
	}
	return embeddedStmt{ps: ps}, nil
}

func (s embeddedStmt) ExecQuery(params *sqldb.Params) (*sqldb.ResultSet, error) {
	return s.ExecQueryContext(context.Background(), params)
}

// ExecQueryContext checks ctx before executing; the in-process execution
// itself is uninterruptible but fast.
func (s embeddedStmt) ExecQueryContext(ctx context.Context, params *sqldb.Params) (*sqldb.ResultSet, error) {
	res, err := execPrepared(ctx, s.ps, params)
	if err != nil {
		return nil, err
	}
	return res.Set, nil
}

// ExecQueryBatch implements sqlgen.BatchPreparedQuery on the in-process
// engine: one statement-lock acquisition for the whole batch.
func (s embeddedStmt) ExecQueryBatch(bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	return s.ExecQueryBatchContext(context.Background(), bindings)
}

// ExecQueryBatchContext hands ctx to the engine, which observes it between
// bindings.
func (s embeddedStmt) ExecQueryBatchContext(ctx context.Context, bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	results, err := s.ps.ExecuteBatchContext(ctx, bindings)
	if err != nil {
		return nil, err
	}
	return toQueryResults(results), nil
}

func (s embeddedStmt) Close() error { return s.ps.Close() }

// execPrepared runs one execution of an in-process prepared SELECT.
func execPrepared(ctx context.Context, ps *sqldb.PreparedStmt, params *sqldb.Params) (*sqldb.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := ps.Execute(params)
	if err != nil {
		return nil, err
	}
	if res.Set == nil {
		return nil, errNoResultSet
	}
	return res, nil
}

// profiledStmt is the prepared handle of ProfiledEmbedded: the vendor's
// compile cost was paid at prepare time, so executions are charged only the
// per-statement and per-row delays.
type profiledStmt struct {
	ps      *sqldb.PreparedStmt
	profile wire.Profile
}

// PrepareQuery implements sqlgen.QueryPreparer, charging the one-time
// statement-compilation delay up front. A statement the engine refuses to
// prepare runs as text, paying the compile cost per call.
func (e ProfiledEmbedded) PrepareQuery(query string) (sqlgen.PreparedQuery, error) {
	ps, err := e.DB.Prepare(query)
	if err != nil {
		return textStmt{sql: query, exec: e.ExecQueryContext}, nil
	}
	wire.Delay(e.Profile.PerPrepare + e.Profile.PerStatement)
	return profiledStmt{ps: ps, profile: e.Profile}, nil
}

func (s profiledStmt) ExecQuery(params *sqldb.Params) (*sqldb.ResultSet, error) {
	return s.ExecQueryContext(context.Background(), params)
}

// ExecQueryContext applies the vendor delays through wire.DelayCtx; a result
// the engine's cache answered is not charged.
func (s profiledStmt) ExecQueryContext(ctx context.Context, params *sqldb.Params) (*sqldb.ResultSet, error) {
	res, err := execPrepared(ctx, s.ps, params)
	if err != nil {
		return nil, err
	}
	if !res.Cached {
		if err := wire.DelayCtx(ctx, s.profile.PerStatement+time.Duration(len(res.Set.Rows))*s.profile.PerRowRead); err != nil {
			return nil, err
		}
	}
	return res.Set, nil
}

// ExecQueryBatch implements sqlgen.BatchPreparedQuery with the vendor's
// per-binding costs applied. There is no round trip to amortize in process;
// profiled batches exist so the batched analyzer runs against this executor
// with the same cost model as per-execution calls.
func (s profiledStmt) ExecQueryBatch(bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	return s.ExecQueryBatchContext(context.Background(), bindings)
}

func (s profiledStmt) ExecQueryBatchContext(ctx context.Context, bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	results, err := s.ps.ExecuteBatchContext(ctx, bindings)
	if err != nil {
		return nil, err
	}
	var delay time.Duration
	for _, r := range results {
		if r.Err == nil && r.Res.Cached {
			continue // the cache answered; no vendor work to charge
		}
		delay += s.profile.PerStatement
		if r.Err == nil && r.Res.Set != nil {
			delay += time.Duration(len(r.Res.Set.Rows)) * s.profile.PerRowRead
		}
	}
	if err := wire.DelayCtx(ctx, delay); err != nil {
		return nil, err
	}
	return toQueryResults(results), nil
}

func (s profiledStmt) Close() error { return s.ps.Close() }

// textStmt is the handle of a statement the engine refused to prepare:
// every execution ships the SQL text through exec, one binding at a time.
// Per-binding failures are reported inline, as in a prepared batch; a
// transport failure or a canceled context fails the whole batch.
type textStmt struct {
	sql  string
	exec func(ctx context.Context, query string, params *sqldb.Params) (*sqldb.ResultSet, error)
}

func (s textStmt) ExecQuery(params *sqldb.Params) (*sqldb.ResultSet, error) {
	return s.ExecQueryContext(context.Background(), params)
}

func (s textStmt) ExecQueryContext(ctx context.Context, params *sqldb.Params) (*sqldb.ResultSet, error) {
	return s.exec(ctx, s.sql, params)
}

func (s textStmt) ExecQueryBatch(bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	return s.ExecQueryBatchContext(context.Background(), bindings)
}

func (s textStmt) ExecQueryBatchContext(ctx context.Context, bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	out := make([]sqlgen.BatchQueryResult, len(bindings))
	for i, p := range bindings {
		set, err := s.exec(ctx, s.sql, p)
		if err != nil && (ctx.Err() != nil || isTransportError(err)) {
			return nil, err
		}
		out[i] = sqlgen.BatchQueryResult{Set: set, Err: err}
	}
	return out, nil
}

// Close is a no-op: a text handle holds nothing on the server.
func (s textStmt) Close() error { return nil }

var _ sqlgen.QueryPreparer = (*Conn)(nil)
var _ sqlgen.QueryPreparer = (*Pool)(nil)
var _ sqlgen.QueryPreparer = Embedded{}
var _ sqlgen.QueryPreparer = ProfiledEmbedded{}
var _ ctxStmt = (*Stmt)(nil)
var _ ctxStmt = (*PooledStmt)(nil)
var _ ctxStmt = embeddedStmt{}
var _ ctxStmt = profiledStmt{}
var _ ctxStmt = textStmt{}
