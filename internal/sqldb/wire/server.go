package wire

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sqldb"
)

// Server serves a sqldb.DB over TCP.
type Server struct {
	db      *sqldb.DB
	profile Profile
	lis     net.Listener
	logger  *log.Logger

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	nextCursor int64
	nextStmt   int64

	// requests counts protocol requests served; vendorNanos accumulates the
	// simulated vendor delay charged by sleep. Both feed ReqServerStats.
	requests    atomic.Int64
	vendorNanos atomic.Int64

	// sem, when non-nil, bounds how many statements the server executes
	// simultaneously (see SetMaxConcurrent).
	sem chan struct{}
}

// NewServer returns a server for db with the given vendor profile. If logger
// is nil, logging is disabled.
func NewServer(db *sqldb.DB, profile Profile, logger *log.Logger) (*Server, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	return &Server{db: db, profile: profile, logger: logger, conns: make(map[net.Conn]struct{})}, nil
}

// Listen binds the server to addr ("127.0.0.1:0" picks a free port) and
// starts accepting connections in the background.
func (s *Server) Listen(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.lis = lis
	s.wg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the bound address; valid after Listen.
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Close stops the listener and all connections and waits for the handler
// goroutines to finish. Calling Close while a Shutdown drain is in progress
// force-closes the lingering connections immediately.
func (s *Server) Close() error {
	s.mu.Lock()
	wasClosed := s.closed
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if s.lis != nil && !wasClosed {
		err = s.lis.Close()
	}
	s.wg.Wait()
	return err
}

// Shutdown closes the listener, then waits up to timeout for the connected
// clients to finish their in-flight requests and disconnect on their own.
// Connections still open when the timeout expires are closed forcibly, as
// Close does immediately. Shutdown is what a signal handler should call: a
// draining server never cuts a response off mid-write.
func (s *Server) Shutdown(timeout time.Duration) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	var lerr error
	if s.lis != nil {
		lerr = s.lis.Close()
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
		return lerr
	case <-time.After(timeout):
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	<-done
	return lerr
}

func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// cursor is a server-side materialized result with a read offset.
type cursor struct {
	set *sqldb.ResultSet
	off int
}

// connState is the per-connection server state. Untagged (ID 0) requests
// touch it from the one handler goroutine only; multiplexed requests run concurrently,
// so the cursor and statement tables are guarded by mu and response writes by
// writeMu (a gob encoder is not safe for concurrent use — and serialized
// writes are also the backpressure path: a client that stops reading blocks
// its own connection's writers without affecting any other connection).
type connState struct {
	mu      sync.Mutex
	cursors map[int64]*cursor
	// stmts holds this connection's prepared statements; like JDBC
	// PreparedStatements, handles are scoped to the connection and released
	// when it closes.
	stmts map[int64]*sqldb.PreparedStmt

	writeMu sync.Mutex

	// inflight maps the ID of each multiplexed request being served to the
	// cancel function of its context; ReqCancel fires it.
	inflMu   sync.Mutex
	inflight map[int64]context.CancelFunc

	// wg counts the goroutines serving multiplexed requests, so connection
	// teardown (and server drain) waits for them.
	wg sync.WaitGroup
}

// cancel aborts the in-flight request with the given ID, if any.
func (st *connState) cancel(id int64) {
	st.inflMu.Lock()
	cancel := st.inflight[id]
	st.inflMu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// register records a request's cancel function under its ID.
func (st *connState) register(id int64, cancel context.CancelFunc) {
	st.inflMu.Lock()
	st.inflight[id] = cancel
	st.inflMu.Unlock()
}

// unregister removes a completed request and releases its context.
func (st *connState) unregister(id int64, cancel context.CancelFunc) {
	st.inflMu.Lock()
	delete(st.inflight, id)
	st.inflMu.Unlock()
	cancel()
}

// write sends one response on the shared codec, serialized across the
// connection's request goroutines.
func (st *connState) write(s *Server, codec *Codec, resp *Response) bool {
	st.writeMu.Lock()
	err := codec.WriteResponse(resp)
	st.writeMu.Unlock()
	if err != nil {
		s.logf("wire: write: %v", err)
		return false
	}
	return true
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	st := &connState{
		cursors:  make(map[int64]*cursor),
		stmts:    make(map[int64]*sqldb.PreparedStmt),
		inflight: make(map[int64]context.CancelFunc),
	}
	// connCtx is the parent of every request context on this connection.
	// When the client disconnects, the read loop returns and the deferred
	// cancel stops all of the connection's in-flight server-side work —
	// an abandoned analysis does not keep burning server capacity.
	connCtx, cancelConn := context.WithCancel(context.Background())
	defer func() {
		cancelConn()
		st.wg.Wait()
		for _, ps := range st.stmts {
			ps.Close()
		}
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	codec := NewCodec(conn)
	for {
		req, err := codec.ReadRequest()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				s.logf("wire: read: %v", err)
			}
			return
		}
		if req.Kind == ReqCancel {
			st.cancel(req.CancelID)
			if !st.write(s, codec, &Response{ID: req.ID}) {
				return
			}
			continue
		}
		if req.ID == 0 {
			// A classic Conn (and so every Pool) tags nothing: one request
			// in flight at a time, served in order.
			if !st.write(s, codec, s.serve(connCtx, req, st)) {
				return
			}
			continue
		}
		// Multiplexed request: serve concurrently under its own cancelable
		// context and tag the response with the request's ID.
		reqCtx, cancel := context.WithCancel(connCtx)
		st.register(req.ID, cancel)
		st.wg.Add(1)
		go func(req *Request) {
			defer st.wg.Done()
			resp := s.serve(reqCtx, req, st)
			resp.ID = req.ID
			st.unregister(req.ID, cancel)
			st.write(s, codec, resp)
		}(req)
	}
}

// SetMaxConcurrent bounds the number of statements the server executes
// simultaneously; n <= 0 removes the bound (the default). The vendor
// profiles model per-statement cost but not server capacity — as if the
// server scaled to any number of concurrent clients. A real 1999 database
// host did not, and a capacity bound is what makes one saturated server
// observable: requests beyond the bound queue, which is exactly the regime
// the client-side sharding layer exists to relieve. The bound gates
// statement execution only; the round-trip (network) delay is charged
// outside it. Call before Listen.
func (s *Server) SetMaxConcurrent(n int) {
	if n <= 0 {
		s.sem = nil
		return
	}
	s.sem = make(chan struct{}, n)
}

// canceled is the response of a request whose context fired mid-service.
func canceled() *Response { return &Response{Err: ErrCanceled} }

func (s *Server) serve(ctx context.Context, req *Request, st *connState) *Response {
	s.requests.Add(1)
	if s.sleep(ctx, s.profile.RoundTrip) != nil {
		return canceled()
	}
	if s.sem != nil {
		// The capacity queue is a blocking point: a canceled request must
		// leave the queue instead of executing work nobody will read.
		select {
		case s.sem <- struct{}{}:
			defer func() { <-s.sem }()
		case <-ctx.Done():
			return canceled()
		}
	}
	switch req.Kind {
	case ReqPing:
		s.sleep(ctx, s.profile.PerStatement)
		return &Response{}
	case ReqExec:
		return s.serveExec(ctx, req)
	case ReqQueryCursor:
		return s.serveQueryCursor(ctx, req, st)
	case ReqFetch:
		return s.serveFetch(ctx, req, st)
	case ReqCloseCursor:
		st.mu.Lock()
		delete(st.cursors, req.CursorID)
		st.mu.Unlock()
		return &Response{}
	case ReqPrepare:
		return s.servePrepare(ctx, req, st)
	case ReqExecPrepared:
		return s.serveExecPrepared(ctx, req, st)
	case ReqClosePrepared:
		st.mu.Lock()
		ps, ok := st.stmts[req.StmtID]
		if ok {
			delete(st.stmts, req.StmtID)
		}
		st.mu.Unlock()
		if ok {
			ps.Close()
		}
		return &Response{}
	case ReqExecBatch:
		return s.serveExecBatch(ctx, req, st)
	case ReqCacheStats:
		st := s.db.Stats()
		return &Response{Cache: &CacheStats{
			Hits:          st.ResultCacheHits,
			Misses:        st.ResultCacheMisses,
			Invalidations: st.ResultCacheInvalidations,
			Evictions:     st.ResultCacheEvictions,
			Entries:       st.ResultCacheEntries,
		}}
	case ReqServerStats:
		st := s.db.Stats()
		return &Response{Server: &ServerStats{
			Engine:          st.Engine,
			VecSelects:      st.VecSelects,
			VecFallbacks:    st.VecFallbacks,
			FbJoinShape:     st.VecFallbackReasons.JoinShape,
			FbStar:          st.VecFallbackReasons.Star,
			FbOrderExpr:     st.VecFallbackReasons.OrderExpr,
			FbSubquery:      st.VecFallbackReasons.Subquery,
			FbOther:         st.VecFallbackReasons.Other,
			PlanCacheHits:   st.PlanCacheHits,
			PlanCacheMisses: st.PlanCacheMisses,
			Requests:        s.requests.Load(),
			VendorNanos:     s.vendorNanos.Load(),
		}}
	}
	return &Response{Err: fmt.Sprintf("wire: unknown request kind %d", req.Kind)}
}

func toParams(req *Request) *sqldb.Params {
	return bindParams(req.Pos, req.Named)
}

func bindParams(pos []WireValue, named map[string]WireValue) *sqldb.Params {
	if len(pos) == 0 && len(named) == 0 {
		return nil
	}
	p := &sqldb.Params{Named: make(map[string]sqldb.Value, len(named))}
	for _, v := range pos {
		p.Positional = append(p.Positional, v.FromWire())
	}
	for k, v := range named {
		p.Named[k] = v.FromWire()
	}
	return p
}

func (s *Server) serveExec(ctx context.Context, req *Request) *Response {
	res, err := s.db.Exec(req.SQL, toParams(req))
	if err != nil {
		return &Response{Err: err.Error()}
	}
	resp := &Response{Affected: res.Affected, Done: true}
	if res.Cached {
		// The result cache answered before the vendor's compiler or executor
		// ran: only the round trip (already charged in serve) applies.
		resp.CacheHits = 1
		resp.Columns = res.Set.Columns
		resp.Rows = encodeRows(res.Set.Rows)
		return resp
	}
	// A text-protocol execution compiles the statement anew every time, so
	// it is charged the prepare cost on top of the per-statement overhead.
	if s.sleep(ctx, s.profile.PerPrepare+s.profile.PerStatement+time.Duration(res.Affected)*s.profile.PerRowWrite) != nil {
		return canceled()
	}
	if res.Set != nil {
		resp.Columns = res.Set.Columns
		resp.Rows = encodeRows(res.Set.Rows)
		if s.sleep(ctx, time.Duration(len(resp.Rows))*s.profile.PerRowRead) != nil {
			return canceled()
		}
	}
	return resp
}

func (s *Server) servePrepare(ctx context.Context, req *Request, st *connState) *Response {
	ps, err := s.db.Prepare(req.SQL)
	if err != nil {
		return &Response{Err: err.Error()}
	}
	if s.sleep(ctx, s.profile.PerPrepare+s.profile.PerStatement) != nil {
		ps.Close()
		return canceled()
	}
	id := atomic.AddInt64(&s.nextStmt, 1)
	st.mu.Lock()
	st.stmts[id] = ps
	st.mu.Unlock()
	return &Response{StmtID: id}
}

// stmt looks up a connection-scoped prepared statement.
func (st *connState) stmt(id int64) (*sqldb.PreparedStmt, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	ps, ok := st.stmts[id]
	return ps, ok
}

func (s *Server) serveExecPrepared(ctx context.Context, req *Request, st *connState) *Response {
	ps, ok := st.stmt(req.StmtID)
	if !ok {
		return &Response{Err: fmt.Sprintf("wire: no prepared statement %d", req.StmtID)}
	}
	res, err := ps.Execute(toParams(req))
	if err != nil {
		return &Response{Err: err.Error()}
	}
	resp := &Response{Affected: res.Affected, Done: true}
	if res.Cached {
		// Served from the result cache: no statement or row work happened in
		// the modeled vendor server, so no delay beyond the round trip.
		resp.CacheHits = 1
		resp.Columns = res.Set.Columns
		resp.Rows = encodeRows(res.Set.Rows)
		return resp
	}
	// Executing a prepared handle skips the compile cost; only the fixed
	// per-statement overhead and the row costs apply.
	if s.sleep(ctx, s.profile.PerStatement+time.Duration(res.Affected)*s.profile.PerRowWrite) != nil {
		return canceled()
	}
	if res.Set != nil {
		resp.Columns = res.Set.Columns
		resp.Rows = encodeRows(res.Set.Rows)
		if s.sleep(ctx, time.Duration(len(resp.Rows))*s.profile.PerRowRead) != nil {
			return canceled()
		}
	}
	return resp
}

// serveExecBatch executes a prepared handle once per binding. The whole batch
// was carried by one request, so the profile's round-trip latency was charged
// once (in serve); what accumulates per binding is only the per-statement and
// per-row work the vendor server would really do — the array-binding
// economics that make batches worthwhile on high-latency links.
func (s *Server) serveExecBatch(ctx context.Context, req *Request, st *connState) *Response {
	if len(req.Batch) > MaxBatch {
		return &Response{Err: fmt.Sprintf("wire: batch of %d bindings exceeds the limit of %d", len(req.Batch), MaxBatch)}
	}
	ps, ok := st.stmt(req.StmtID)
	if !ok {
		return &Response{Err: fmt.Sprintf("wire: no prepared statement %d", req.StmtID)}
	}
	bindings := make([]*sqldb.Params, len(req.Batch))
	for i, b := range req.Batch {
		bindings[i] = bindParams(b.Pos, b.Named)
	}
	// The engine observes ctx between bindings, so canceling a multiplexed
	// batch stops the scan work itself, not just the simulated delays.
	results, err := ps.ExecuteBatchContext(ctx, bindings)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return canceled()
	}
	if err != nil {
		return &Response{Err: err.Error()}
	}
	resp := &Response{Items: make([]BatchItem, len(results)), Done: true}
	var delay time.Duration
	for i, r := range results {
		if r.Err != nil {
			resp.Items[i] = BatchItem{Err: r.Err.Error()}
			delay += s.profile.PerStatement
			continue
		}
		item := BatchItem{Affected: r.Res.Affected}
		if r.Res.Cached {
			// A binding the result cache answered costs the vendor server
			// nothing beyond the (already charged, batch-wide) round trip.
			item.Cached = true
			item.Columns = r.Res.Set.Columns
			item.Rows = encodeRows(r.Res.Set.Rows)
			resp.Items[i] = item
			resp.CacheHits++
			continue
		}
		delay += s.profile.PerStatement + time.Duration(r.Res.Affected)*s.profile.PerRowWrite
		if r.Res.Set != nil {
			item.Columns = r.Res.Set.Columns
			item.Rows = encodeRows(r.Res.Set.Rows)
			delay += time.Duration(len(item.Rows)) * s.profile.PerRowRead
		}
		resp.Items[i] = item
	}
	if s.sleep(ctx, delay) != nil {
		return canceled()
	}
	return resp
}

func (s *Server) serveQueryCursor(ctx context.Context, req *Request, st *connState) *Response {
	res, err := s.db.Exec(req.SQL, toParams(req))
	if err != nil {
		return &Response{Err: err.Error()}
	}
	if res.Set == nil {
		return &Response{Err: "wire: statement produced no result set"}
	}
	if !res.Cached {
		if s.sleep(ctx, s.profile.PerPrepare+s.profile.PerStatement) != nil {
			return canceled()
		}
	}
	id := atomic.AddInt64(&s.nextCursor, 1)
	st.mu.Lock()
	st.cursors[id] = &cursor{set: res.Set}
	st.mu.Unlock()
	resp := &Response{CursorID: id, Columns: res.Set.Columns}
	if res.Cached {
		resp.CacheHits = 1
	}
	return resp
}

func (s *Server) serveFetch(ctx context.Context, req *Request, st *connState) *Response {
	// The cursor offset advances under the state lock: two multiplexed
	// fetches on one cursor each get a distinct, disjoint slice.
	st.mu.Lock()
	cur, ok := st.cursors[req.CursorID]
	if !ok {
		st.mu.Unlock()
		return &Response{Err: fmt.Sprintf("wire: no cursor %d", req.CursorID)}
	}
	n := req.FetchN
	if n <= 0 {
		n = 1
	}
	end := cur.off + n
	if end > len(cur.set.Rows) {
		end = len(cur.set.Rows)
	}
	rows := cur.set.Rows[cur.off:end]
	cur.off = end
	done := cur.off >= len(cur.set.Rows)
	if done {
		delete(st.cursors, req.CursorID)
	}
	st.mu.Unlock()
	if s.sleep(ctx, time.Duration(len(rows))*s.profile.PerRowRead) != nil {
		return canceled()
	}
	return &Response{Rows: encodeRows(rows), Done: done}
}

func encodeRows(rows []sqldb.Row) [][]WireValue {
	out := make([][]WireValue, len(rows))
	for i, r := range rows {
		wr := make([]WireValue, len(r))
		for j, v := range r {
			wr[j] = ToWire(v)
		}
		out[i] = wr
	}
	return out
}

// sleep injects the profile's simulated processing delay, observing the
// request's context. Sub-millisecond delays are spun rather than slept: the
// OS timer granularity (≈1 ms) would otherwise flatten the differences
// between vendor profiles that the insertion benchmarks measure.
func (s *Server) sleep(ctx context.Context, d time.Duration) error {
	if d > 0 {
		// Count the full charge even when a cancellation cuts the delay
		// short: VendorNanos reports what the workload cost at the simulated
		// vendor's prices, not how long this process happened to block.
		s.vendorNanos.Add(int64(d))
	}
	return DelayCtx(ctx, d)
}

// Delay blocks for d with microsecond precision.
func Delay(d time.Duration) {
	DelayCtx(context.Background(), d)
}

// DelayCtx blocks for d with microsecond precision, returning early with the
// context's error when it is canceled. Long delays (the sleepable remote
// round trips a canceled analysis would otherwise sit out in full) select on
// the context; the sub-2ms spin path checks it once at the end, which bounds
// the overshoot of a cancellation to less than the OS timer granularity.
func DelayCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	if d >= 2*time.Millisecond {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			return ctx.Err()
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
	}
	return ctx.Err()
}
