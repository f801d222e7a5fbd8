package godbc

// MuxConn multiplexes concurrent requests over one wire connection. Where a
// Pool gives N concurrent callers N sockets, a MuxConn gives them one: every
// request is tagged with a fresh nonzero ID, a single reader goroutine
// demultiplexes the replies by their echoed IDs, and a canceled caller sends
// a ReqCancel so the server stops the request's work — the connection itself
// survives cancellation, unlike the deadline-snapping cancel of a plain Conn.
//
// Both ends are built from this module, so the server always echoes IDs. A
// reply with ID 0 can only come from a peer that does not multiplex; it
// poisons the connection with a protocol error, so such a peer fails at its
// first reply instead of leaving callers waiting for replies that never
// match.

import (
	"context"
	"fmt"
	"net"
	"sync"

	"repro/internal/asl/sqlgen"
	"repro/internal/metrics"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// MuxConn is a multiplexed connection: one socket, many concurrent requests.
// It is safe for concurrent use. It implements Executor, sqlgen.QueryPreparer
// and the context-observing execution interfaces, so it drops into every
// place a Pool does.
type MuxConn struct {
	nc    net.Conn
	codec *wire.Codec

	// writeMu serializes request encoding on the shared gob stream.
	writeMu sync.Mutex

	mu      sync.Mutex
	nextID  int64
	pending map[int64]chan *wire.Response
	err     error
	closed  bool

	stmtMu sync.Mutex
	stmts  map[string]*MuxStmt

	fetchSize int

	// requests and cancels feed Metrics (see metrics.go).
	requests metrics.Counter
	cancels  metrics.Counter
}

// DialMux connects a multiplexed connection to a wire server.
func DialMux(addr string) (*MuxConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, &transportError{fmt.Errorf("godbc: dial %s: %w", addr, err)}
	}
	m := &MuxConn{
		nc:        nc,
		codec:     wire.NewCodec(nc),
		pending:   make(map[int64]chan *wire.Response),
		fetchSize: DefaultFetchSize,
	}
	go m.readLoop()
	return m, nil
}

// errNoMux is the protocol error a reply without a request ID poisons the
// connection with.
var errNoMux = &transportError{fmt.Errorf("godbc: protocol error: reply without a request ID (the server does not multiplex requests)")}

// readLoop is the demultiplexer: it owns the read side of the codec for the
// connection's whole life, routing each reply to its waiting request by the
// echoed ID. Replies to abandoned requests and ReqCancel acks have no waiter
// and are dropped.
func (m *MuxConn) readLoop() {
	for {
		resp, err := m.codec.ReadResponse()
		if err != nil {
			m.fail(&transportError{fmt.Errorf("godbc: receive: %w", err)})
			return
		}
		if resp.ID == 0 {
			m.fail(errNoMux)
			return
		}
		m.mu.Lock()
		ch := m.pending[resp.ID]
		delete(m.pending, resp.ID)
		m.mu.Unlock()
		if ch != nil {
			ch <- resp
		}
	}
}

// fail poisons the connection: every pending and future request gets err.
func (m *MuxConn) fail(err error) {
	m.mu.Lock()
	if m.err == nil {
		m.err = err
	}
	pending := m.pending
	m.pending = make(map[int64]chan *wire.Response)
	m.mu.Unlock()
	for _, ch := range pending {
		close(ch)
	}
}

// Close terminates the connection. In-flight requests fail with a transport
// error.
func (m *MuxConn) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	m.mu.Unlock()
	err := m.nc.Close()
	m.fail(&transportError{fmt.Errorf("godbc: connection closed")})
	return err
}

// SetFetchSize sets the cursor fetch size used by Query.
func (m *MuxConn) SetFetchSize(n int) {
	if n < 1 {
		n = 1
	}
	m.mu.Lock()
	m.fetchSize = n
	m.mu.Unlock()
}

// ConcurrentQuery marks the multiplexed connection as safe for concurrent
// querying: requests interleave on the shared socket instead of taking turns.
func (m *MuxConn) ConcurrentQuery() bool { return true }

// register allocates an ID for a request and parks its reply channel.
func (m *MuxConn) register() (int64, chan *wire.Response, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return 0, nil, m.err
	}
	if m.closed {
		return 0, nil, &transportError{fmt.Errorf("godbc: connection closed")}
	}
	m.nextID++
	id := m.nextID
	ch := make(chan *wire.Response, 1)
	m.pending[id] = ch
	m.requests.Inc()
	return id, ch, nil
}

// abandon gives up on a registered request whose caller stopped waiting: the
// entry is removed and a best-effort ReqCancel tells the server to stop the
// work. Its ack carries a fresh unregistered ID, so the demultiplexer drops
// it, as it drops the abandoned request's late reply.
func (m *MuxConn) abandon(id int64) {
	m.mu.Lock()
	if _, ok := m.pending[id]; !ok {
		m.mu.Unlock()
		return // reply already routed (or connection failed)
	}
	m.cancels.Inc()
	delete(m.pending, id)
	m.nextID++
	cancelID := m.nextID
	m.mu.Unlock()
	m.writeMu.Lock()
	m.codec.WriteRequest(&wire.Request{Kind: wire.ReqCancel, ID: cancelID, CancelID: id})
	m.writeMu.Unlock()
}

// roundTrip performs one tagged request/response exchange, observing ctx.
func (m *MuxConn) roundTrip(ctx context.Context, req *wire.Request) (*wire.Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	id, ch, err := m.register()
	if err != nil {
		return nil, err
	}
	req.ID = id
	m.writeMu.Lock()
	werr := m.codec.WriteRequest(req)
	m.writeMu.Unlock()
	if werr != nil {
		werr = &transportError{fmt.Errorf("godbc: send: %w", werr)}
		m.fail(werr)
		return nil, werr
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			m.mu.Lock()
			err := m.err
			m.mu.Unlock()
			return nil, err
		}
		return resp, nil
	case <-ctx.Done():
		m.abandon(id)
		return nil, ctx.Err()
	}
}

// Ping performs a protocol round trip.
func (m *MuxConn) Ping() error {
	_, err := replyErr(m.roundTrip(context.Background(), &wire.Request{Kind: wire.ReqPing}))
	return err
}

// Exec runs a statement and returns the affected-row count.
func (m *MuxConn) Exec(query string, params *sqldb.Params) (Result, error) {
	return m.ExecContext(context.Background(), query, params)
}

// ExecContext is Exec observing a context.
func (m *MuxConn) ExecContext(ctx context.Context, query string, params *sqldb.Params) (Result, error) {
	resp, err := m.execText(ctx, query, params)
	if err != nil {
		return Result{}, err
	}
	return Result{Affected: resp.Affected}, nil
}

// ExecQuery runs a SELECT and returns the complete result set.
func (m *MuxConn) ExecQuery(query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	return m.ExecQueryContext(context.Background(), query, params)
}

// ExecQueryContext is ExecQuery observing a context.
func (m *MuxConn) ExecQueryContext(ctx context.Context, query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	resp, err := m.execText(ctx, query, params)
	if err != nil {
		return nil, err
	}
	return decodeSet(resp), nil
}

func (m *MuxConn) execText(ctx context.Context, query string, params *sqldb.Params) (*wire.Response, error) {
	req := &wire.Request{Kind: wire.ReqExec, SQL: query}
	encodeParams(req, params)
	return replyErr(m.roundTrip(ctx, req))
}

// MuxStmt is a prepared statement on a multiplexed connection. It is safe
// for concurrent use: executions are independent tagged requests sharing the
// server-side handle (sqldb plans are immutable). Statements are cached per
// connection by SQL text, so Close is a no-op — the server releases handles
// with the connection.
type MuxStmt struct {
	m   *MuxConn
	id  int64
	sql string
}

// PrepareQuery implements sqlgen.QueryPreparer, returning the connection's
// cached handle for the query (preparing it on first use). A statement the
// server refuses to prepare runs as text.
func (m *MuxConn) PrepareQuery(query string) (sqlgen.PreparedQuery, error) {
	m.stmtMu.Lock()
	defer m.stmtMu.Unlock()
	if st, ok := m.stmts[query]; ok {
		return st, nil
	}
	resp, err := m.roundTrip(context.Background(), &wire.Request{Kind: wire.ReqPrepare, SQL: query})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return textStmt{sql: query, exec: m.ExecQueryContext}, nil
	}
	st := &MuxStmt{m: m, id: resp.StmtID, sql: query}
	if m.stmts == nil {
		m.stmts = make(map[string]*MuxStmt)
	}
	m.stmts[query] = st
	return st, nil
}

// Close is a no-op: the handle is shared via the connection's statement
// cache and released by the server when the connection closes.
func (st *MuxStmt) Close() error { return nil }

// ExecQuery executes the prepared statement.
func (st *MuxStmt) ExecQuery(params *sqldb.Params) (*sqldb.ResultSet, error) {
	return st.ExecQueryContext(context.Background(), params)
}

// ExecQueryContext executes the prepared statement observing a context.
func (st *MuxStmt) ExecQueryContext(ctx context.Context, params *sqldb.Params) (*sqldb.ResultSet, error) {
	req := &wire.Request{Kind: wire.ReqExecPrepared, StmtID: st.id}
	encodeParams(req, params)
	resp, err := replyErr(st.m.roundTrip(ctx, req))
	if err != nil {
		return nil, err
	}
	return decodeSet(resp), nil
}

// ExecQueryBatch implements sqlgen.BatchPreparedQuery.
func (st *MuxStmt) ExecQueryBatch(bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	return st.ExecQueryBatchContext(context.Background(), bindings)
}

// ExecQueryBatchContext executes the statement once per binding, shipping
// wire.MaxBatch bindings per tagged request.
func (st *MuxStmt) ExecQueryBatchContext(ctx context.Context, bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	out := make([]BatchResult, 0, len(bindings))
	for start := 0; start < len(bindings); start += wire.MaxBatch {
		chunk := bindings[start:min(start+wire.MaxBatch, len(bindings))]
		resp, err := st.m.roundTrip(ctx, batchRequest(st.id, chunk))
		if err == nil {
			out, err = decodeBatch(out, resp, len(chunk))
		}
		if err != nil {
			return nil, err
		}
	}
	return queryResults(out), nil
}

var _ Executor = (*MuxConn)(nil)
var _ sqlgen.QueryPreparer = (*MuxConn)(nil)
var _ sqlgen.ContextQueryExecutor = (*MuxConn)(nil)
var _ ctxStmt = (*MuxStmt)(nil)
