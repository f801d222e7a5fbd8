// Package godbc is a JDBC-like database driver for the sqldb wire protocol:
// connections, statement execution with positional and named parameters, and
// cursor-based result iteration with a configurable fetch size.
//
// The paper's COSY prototype accessed its databases through JDBC and
// measured about 1 ms per fetched record, a factor of 2–4 over C-based
// access; the row-at-a-time default fetch size reproduces that behaviour
// against a wire server, while Embedded provides the in-process path that
// stands in for "C-based" access.
package godbc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// DefaultFetchSize is the number of rows fetched per cursor round trip,
// mirroring JDBC's row-at-a-time default.
const DefaultFetchSize = 1

// Conn is a database connection. A Conn is not safe for concurrent use, like
// a JDBC Connection; use a Pool to serve concurrent callers.
type Conn struct {
	nc        net.Conn
	codec     *wire.Codec
	fetchSize int
	closed    bool
	// broken is set when a transport-level failure leaves the connection in
	// an undefined protocol state; a Pool discards such connections.
	broken bool
	// stmts caches prepared statements by SQL text so pooled prepared
	// statements plan at most once per connection (see prepared.go).
	stmts map[string]*Stmt
}

// Dial connects to a wire server.
func Dial(addr string) (*Conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, &transportError{fmt.Errorf("godbc: dial %s: %w", addr, err)}
	}
	return &Conn{nc: nc, codec: wire.NewCodec(nc), fetchSize: DefaultFetchSize}, nil
}

// transportError marks a failure of the transport itself — a refused dial, a
// dropped connection mid-round-trip — as opposed to the server answering with
// a statement error. The sharding layer promotes transport errors to
// ShardError so analyses can tell a dead shard from a bad query; the message
// is unchanged, so non-sharded callers see exactly the errors they always
// did.
type transportError struct{ err error }

func (e *transportError) Error() string { return e.err.Error() }
func (e *transportError) Unwrap() error { return e.err }

// isTransportError reports whether err originated in the transport layer.
func isTransportError(err error) bool {
	var te *transportError
	return errors.As(err, &te)
}

// SetFetchSize sets the number of rows per fetch round trip (JDBC's
// setFetchSize). Values below 1 are treated as 1.
func (c *Conn) SetFetchSize(n int) {
	if n < 1 {
		n = 1
	}
	c.fetchSize = n
}

// FetchSize returns the current fetch size.
func (c *Conn) FetchSize() int { return c.fetchSize }

// Close terminates the connection.
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.nc.Close()
}

// Ping performs a protocol round trip.
func (c *Conn) Ping() error {
	_, err := replyErr(c.roundTrip(&wire.Request{Kind: wire.ReqPing}))
	return err
}

func (c *Conn) roundTrip(req *wire.Request) (*wire.Response, error) {
	if c.closed {
		return nil, fmt.Errorf("godbc: connection closed")
	}
	if err := c.codec.WriteRequest(req); err != nil {
		c.broken = true
		return nil, &transportError{fmt.Errorf("godbc: send: %w", err)}
	}
	resp, err := c.codec.ReadResponse()
	if err != nil {
		c.broken = true
		return nil, &transportError{fmt.Errorf("godbc: receive: %w", err)}
	}
	return resp, nil
}

func encodeParams(req *wire.Request, params *sqldb.Params) {
	req.Pos, req.Named = encodeValues(params)
}

func encodeValues(params *sqldb.Params) (pos []wire.WireValue, named map[string]wire.WireValue) {
	if params == nil {
		return nil, nil
	}
	for _, v := range params.Positional {
		pos = append(pos, wire.ToWire(v))
	}
	if len(params.Named) > 0 {
		named = make(map[string]wire.WireValue, len(params.Named))
		for k, v := range params.Named {
			named[k] = wire.ToWire(v)
		}
	}
	return pos, named
}

// Result reports the outcome of a non-query statement.
type Result struct {
	Affected int
}

// Exec runs a statement and returns the affected-row count. SELECTs may also
// be run through Exec; their rows are returned inline by ExecQuery instead.
func (c *Conn) Exec(query string, params *sqldb.Params) (Result, error) {
	return c.ExecContext(context.Background(), query, params)
}

// ExecContext is Exec observing a context.
func (c *Conn) ExecContext(ctx context.Context, query string, params *sqldb.Params) (Result, error) {
	resp, err := c.execText(ctx, query, params)
	if err != nil {
		return Result{}, err
	}
	return Result{Affected: resp.Affected}, nil
}

// ExecQuery runs a SELECT and returns the complete result set in a single
// round trip (the bulk path).
func (c *Conn) ExecQuery(query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	return c.ExecQueryContext(context.Background(), query, params)
}

// ExecQueryContext is ExecQuery observing a context.
func (c *Conn) ExecQueryContext(ctx context.Context, query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	resp, err := c.execText(ctx, query, params)
	if err != nil {
		return nil, err
	}
	return decodeSet(resp), nil
}

// execText ships one statement as text and returns the server's reply.
func (c *Conn) execText(ctx context.Context, query string, params *sqldb.Params) (*wire.Response, error) {
	req := &wire.Request{Kind: wire.ReqExec, SQL: query}
	encodeParams(req, params)
	return replyErr(c.roundTripCtx(ctx, req))
}

// replyErr turns a reply that carries a statement error into that error.
func replyErr(resp *wire.Response, err error) (*wire.Response, error) {
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("godbc: %s", resp.Err)
	}
	return resp, nil
}

func decodeSet(resp *wire.Response) *sqldb.ResultSet {
	return decodeRows(resp.Columns, resp.Rows)
}

func decodeRows(columns []string, rows [][]wire.WireValue) *sqldb.ResultSet {
	set := &sqldb.ResultSet{Columns: columns}
	for _, wr := range rows {
		row := make(sqldb.Row, len(wr))
		for i, wv := range wr {
			row[i] = wv.FromWire()
		}
		set.Rows = append(set.Rows, row)
	}
	return set
}

// Rows is a cursor over a query result, fetched in batches of the
// connection's fetch size. Always Close a Rows that was not fully drained.
type Rows struct {
	conn     *Conn
	cursorID int64
	columns  []string
	buf      []sqldb.Row
	pos      int
	done     bool
	err      error
	cur      sqldb.Row
}

// Query opens a cursor for a SELECT.
func (c *Conn) Query(query string, params *sqldb.Params) (*Rows, error) {
	req := &wire.Request{Kind: wire.ReqQueryCursor, SQL: query}
	encodeParams(req, params)
	resp, err := replyErr(c.roundTrip(req))
	if err != nil {
		return nil, err
	}
	return &Rows{conn: c, cursorID: resp.CursorID, columns: resp.Columns}, nil
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.columns }

// Next advances to the next row, fetching a new batch from the server when
// the local buffer is exhausted. It returns false at end of data or on
// error; check Err afterwards.
func (r *Rows) Next() bool {
	if r.err != nil {
		return false
	}
	if r.pos >= len(r.buf) {
		if r.done {
			return false
		}
		resp, err := replyErr(r.conn.roundTrip(&wire.Request{
			Kind:     wire.ReqFetch,
			CursorID: r.cursorID,
			FetchN:   r.conn.fetchSize,
		}))
		if err != nil {
			r.err = err
			return false
		}
		r.buf = decodeRows(nil, resp.Rows).Rows
		r.pos = 0
		r.done = resp.Done
		if len(r.buf) == 0 {
			return false
		}
	}
	r.cur = r.buf[r.pos]
	r.pos++
	return true
}

// Row returns the current row.
func (r *Rows) Row() sqldb.Row { return r.cur }

// Err returns the error that terminated iteration, if any.
func (r *Rows) Err() error { return r.err }

// Close releases the server-side cursor.
func (r *Rows) Close() error {
	if r.done {
		return nil
	}
	r.done = true
	_, err := replyErr(r.conn.roundTrip(&wire.Request{Kind: wire.ReqCloseCursor, CursorID: r.cursorID}))
	return err
}

// Executor is the interface shared by networked connections and the
// embedded engine, so analysis code is deployment-agnostic.
type Executor interface {
	Exec(query string, params *sqldb.Params) (Result, error)
	ExecQuery(query string, params *sqldb.Params) (*sqldb.ResultSet, error)
}

// Embedded adapts an in-process sqldb.DB to the Executor interface — the
// "MS Access" local configuration and the stand-in for C-based direct
// access.
type Embedded struct {
	DB *sqldb.DB
}

// Exec implements Executor.
func (e Embedded) Exec(query string, params *sqldb.Params) (Result, error) {
	res, err := e.DB.Exec(query, params)
	if err != nil {
		return Result{}, err
	}
	return Result{Affected: res.Affected}, nil
}

// ExecQuery implements Executor.
func (e Embedded) ExecQuery(query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	return e.ExecQueryContext(context.Background(), query, params)
}

// ExecQueryContext checks ctx before executing; the in-process scan itself
// is uninterruptible but fast.
func (e Embedded) ExecQueryContext(ctx context.Context, query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	res, err := e.execQuery(ctx, query, params)
	if err != nil {
		return nil, err
	}
	return res.Set, nil
}

// execQuery runs a SELECT on the engine, keeping the engine's result for the
// cache flag ProfiledEmbedded charges by.
func (e Embedded) execQuery(ctx context.Context, query string, params *sqldb.Params) (*sqldb.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := e.DB.Exec(query, params)
	if err != nil {
		return nil, err
	}
	if res.Set == nil {
		return nil, errNoResultSet
	}
	return res, nil
}

// errNoResultSet is the failure of a query call on a statement that returns
// no rows (DDL, a write).
var errNoResultSet = errors.New("godbc: statement produced no result set")

// ConcurrentQuery marks the embedded engine as safe for concurrent querying
// (sqldb serializes writers against readers internally).
func (e Embedded) ConcurrentQuery() bool { return true }

// ProfiledEmbedded is an in-process executor with a vendor profile applied
// client side: the "MS Access through a local driver" configuration of the
// paper's comparison. Round-trip delays do not apply (there is no network).
type ProfiledEmbedded struct {
	DB      *sqldb.DB
	Profile wire.Profile
}

// Exec implements Executor. Text execution compiles the statement anew, so
// the profile's prepare cost is charged on every call (use PrepareQuery to
// pay it once).
func (e ProfiledEmbedded) Exec(query string, params *sqldb.Params) (Result, error) {
	res, err := e.DB.Exec(query, params)
	if err != nil {
		return Result{}, err
	}
	if !res.Cached {
		wire.Delay(e.Profile.PerPrepare + e.Profile.PerStatement + time.Duration(res.Affected)*e.Profile.PerRowWrite)
	}
	return Result{Affected: res.Affected}, nil
}

// ExecQuery implements Executor.
func (e ProfiledEmbedded) ExecQuery(query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	return e.ExecQueryContext(context.Background(), query, params)
}

// ExecQueryContext applies the vendor delays through wire.DelayCtx, so a
// canceled request stops paying simulated latency immediately. A result the
// engine's cache answered skips the delays — the modeled driver never
// compiled or executed anything.
func (e ProfiledEmbedded) ExecQueryContext(ctx context.Context, query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	res, err := Embedded{DB: e.DB}.execQuery(ctx, query, params)
	if err != nil {
		return nil, err
	}
	if !res.Cached {
		if err := wire.DelayCtx(ctx, e.Profile.PerPrepare+e.Profile.PerStatement+time.Duration(len(res.Set.Rows))*e.Profile.PerRowRead); err != nil {
			return nil, err
		}
	}
	return res.Set, nil
}

// ProfiledEmbedded deliberately does not implement ConcurrentQuery: it
// emulates a single serial local driver, and letting workers overlap (and
// concurrently spin) its simulated delays would divide the very cost the
// profile exists to model.

// CursorQuery adapts a connection so that every ExecQuery is served through
// a row-at-a-time cursor — the JDBC default the paper's client-side
// evaluation measurements are based on. Use it to reproduce the
// "fetch the data components, evaluate in the tool" configuration.
type CursorQuery struct {
	Conn *Conn
}

// ExecQuery implements the query interface by draining a cursor.
func (c CursorQuery) ExecQuery(query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	rows, err := c.Conn.Query(query, params)
	if err != nil {
		return nil, err
	}
	set := &sqldb.ResultSet{Columns: rows.Columns()}
	for rows.Next() {
		set.Rows = append(set.Rows, rows.Row())
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	return set, rows.Close()
}

var _ Executor = (*Conn)(nil)
var _ Executor = Embedded{}
var _ Executor = ProfiledEmbedded{}
