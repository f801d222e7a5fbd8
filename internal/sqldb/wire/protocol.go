// Package wire implements a client/server protocol for the sqldb engine:
// length-prefixed gob messages over TCP, server-side cursors with
// configurable fetch granularity, and per-vendor performance profiles that
// model the database configurations of the paper's Section 5 (local MS
// Access versus networked Oracle 7, MS SQL Server, and Postgres).
package wire

import (
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"repro/internal/sqldb"
)

// RequestKind selects the operation of a request.
type RequestKind int

// Request kinds.
const (
	ReqExec          RequestKind = iota // execute statement, inline result
	ReqQueryCursor                      // execute SELECT, open a cursor
	ReqFetch                            // fetch next batch from a cursor
	ReqCloseCursor                      // discard a cursor
	ReqPing                             // round-trip probe
	ReqPrepare                          // parse and plan, return a statement handle
	ReqExecPrepared                     // execute a prepared handle, inline result
	ReqClosePrepared                    // discard a statement handle
	ReqExecBatch                        // execute a prepared handle once per binding, inline results
	ReqCacheStats                       // fetch the server's result-cache counters
	ReqCancel                           // cancel the in-flight multiplexed request named by CancelID
	ReqServerStats                      // fetch the server's engine and vendor-cost counters
)

// MaxBatch is the largest number of parameter bindings one ReqExecBatch may
// carry. The limit bounds the server-side memory of a single request (every
// binding's result set is materialized before the response is written);
// clients split larger batches transparently (see godbc.Stmt.ExecuteBatch).
const MaxBatch = 256

// WireValue is the on-wire representation of a sqldb.Value.
type WireValue struct {
	Kind byte // 0 null, 1 int, 2 float, 3 text, 4 bool
	I    int64
	F    float64
	S    string
}

// ToWire converts an engine value.
func ToWire(v sqldb.Value) WireValue {
	switch {
	case v.IsNull():
		return WireValue{Kind: 0}
	case v.IsInt():
		return WireValue{Kind: 1, I: v.Int()}
	case v.IsNumeric():
		return WireValue{Kind: 2, F: v.Float()}
	case v.IsText():
		return WireValue{Kind: 3, S: v.Text()}
	default:
		b := int64(0)
		if v.Bool() {
			b = 1
		}
		return WireValue{Kind: 4, I: b}
	}
}

// FromWire converts back to an engine value.
func (w WireValue) FromWire() sqldb.Value {
	switch w.Kind {
	case 1:
		return sqldb.NewInt(w.I)
	case 2:
		return sqldb.NewFloat(w.F)
	case 3:
		return sqldb.NewText(w.S)
	case 4:
		return sqldb.NewBool(w.I != 0)
	}
	return sqldb.Null
}

// Request is a client message.
type Request struct {
	Kind     RequestKind
	SQL      string
	Pos      []WireValue
	Named    map[string]WireValue
	CursorID int64
	FetchN   int
	// StmtID addresses a server-side prepared statement for ReqExecPrepared,
	// ReqClosePrepared, and ReqExecBatch; prepared requests ship no SQL text.
	StmtID int64
	// Batch carries the parameter bindings of a ReqExecBatch: one entry per
	// execution of the prepared handle, at most MaxBatch of them.
	Batch []BatchBinding
	// ID tags a multiplexed request. A nonzero ID tells the server this
	// connection may have several requests in flight: the server executes
	// tagged requests concurrently and echoes the ID on the matching
	// Response, so the client can demultiplex replies that arrive out of
	// order. ID 0 (what a classic godbc.Conn sends) is served one request
	// at a time, in order.
	ID int64
	// CancelID names the in-flight request a ReqCancel aborts. Cancellation
	// is cooperative: the server cancels the target's context, the target's
	// blocking points (capacity queue, profiled vendor delays, per-binding
	// batch progress) observe it, and the target still produces exactly one
	// Response (an error) so the reply stream stays balanced. Canceling an
	// unknown or already-completed ID is a harmless no-op.
	CancelID int64
}

// BatchBinding is one parameter set of a batched execution.
type BatchBinding struct {
	Pos   []WireValue
	Named map[string]WireValue
}

// BatchItem is the per-binding outcome of a ReqExecBatch: either Err or a
// result. Items are ordered exactly as the request's bindings, so partial
// failures map back to their parameter sets.
type BatchItem struct {
	Err      string
	Columns  []string
	Rows     [][]WireValue
	Affected int
	// Cached marks a binding answered from the server's result cache.
	Cached bool
}

// CacheStats is the result-cache counter snapshot a ReqCacheStats returns.
type CacheStats struct {
	Hits          int64
	Misses        int64
	Invalidations int64
	Evictions     int64
	Entries       int
}

// ServerStats is the engine and cost counter snapshot a ReqServerStats
// returns: the backend's SELECT engine counters plus the server's own
// request count and the cumulative simulated vendor delay it has charged.
type ServerStats struct {
	// Engine names the backend's SELECT execution engine ("vector" or "row").
	Engine string
	// VecSelects / VecFallbacks count planned SELECTs executed on the
	// vectorized operators versus the row interpreter.
	VecSelects   int64
	VecFallbacks int64
	// FbJoinShape..FbOther break VecFallbacks down by refused plan shape.
	FbJoinShape int64
	FbStar      int64
	FbOrderExpr int64
	FbSubquery  int64
	FbOther     int64
	// PlanCacheHits / Misses count ad-hoc statement traffic through the
	// server's plan cache.
	PlanCacheHits   int64
	PlanCacheMisses int64
	// Requests counts protocol requests this server has served.
	Requests int64
	// VendorNanos is the cumulative simulated vendor delay (round trips,
	// statement and prepare costs, per-row charges) the server has injected,
	// in nanoseconds — the profiled "money spent at the database vendor".
	VendorNanos int64
}

// Response is a server message.
type Response struct {
	Err      string
	Columns  []string
	Rows     [][]WireValue
	Affected int
	CursorID int64
	// StmtID is the handle returned by ReqPrepare.
	StmtID int64
	// Done marks cursor exhaustion.
	Done bool
	// Items holds the per-binding outcomes of a ReqExecBatch.
	Items []BatchItem
	// CacheHits counts how many of this reply's results were served from the
	// server's result cache (0 or 1 for single executions, up to the binding
	// count for a batch).
	CacheHits int
	// Cache is the counter snapshot answering a ReqCacheStats.
	Cache *CacheStats
	// Server is the counter snapshot answering a ReqServerStats.
	Server *ServerStats
	// ID echoes the Request.ID of a multiplexed request so the client can
	// route the reply; it is 0 exactly when the request's was.
	ID int64
}

// ErrCanceled is the Response.Err text of a request whose server-side work
// was stopped by a ReqCancel or a client disconnect. Clients that canceled
// deliberately have usually stopped waiting already; the text exists so a
// late reply is self-describing.
const ErrCanceled = "wire: request canceled"

// Codec frames gob messages on a stream.
type Codec struct {
	enc *gob.Encoder
	dec *gob.Decoder
}

// NewCodec wraps a bidirectional stream.
func NewCodec(rw io.ReadWriter) *Codec {
	return &Codec{enc: gob.NewEncoder(rw), dec: gob.NewDecoder(rw)}
}

// WriteRequest sends a request.
func (c *Codec) WriteRequest(r *Request) error { return c.enc.Encode(r) }

// ReadRequest receives a request.
func (c *Codec) ReadRequest() (*Request, error) {
	var r Request
	if err := c.dec.Decode(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// WriteResponse sends a response.
func (c *Codec) WriteResponse(r *Response) error { return c.enc.Encode(r) }

// ReadResponse receives a response.
func (c *Codec) ReadResponse() (*Response, error) {
	var r Response
	if err := c.dec.Decode(&r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Profile models the performance character of a database deployment. The
// engine is identical in all configurations; what differed between the
// paper's four DBMS setups was deployment (local file database versus
// networked server) and per-statement server cost. The delays below are
// injected server side, on top of the real cost of TCP transport and gob
// marshalling.
type Profile struct {
	// Name identifies the vendor configuration in reports.
	Name string
	// RoundTrip is network and request-dispatch latency charged once per
	// protocol request (the distributed setups of the paper transferred
	// data over the network to the database server).
	RoundTrip time.Duration
	// PerStatement is fixed statement-processing overhead (dispatch,
	// logging, transaction bookkeeping) charged on every execution, text or
	// prepared.
	PerStatement time.Duration
	// PerPrepare is statement-compilation overhead (lexing, parsing, query
	// planning in the vendor server). A text-protocol execution compiles the
	// statement anew and is charged PerPrepare every time; a prepared
	// statement pays it once, on ReqPrepare, and executions of the handle
	// skip it — the PreparedStatement economics of the paper's JDBC
	// deployments.
	PerPrepare time.Duration
	// PerRowWrite is added per inserted/updated/deleted row; it models
	// per-row commit cost, the dominant term of the paper's insertion
	// comparison.
	PerRowWrite time.Duration
	// PerRowRead is added per row shipped to the client.
	PerRowRead time.Duration
}

// The vendor profiles. The constants are calibrated so that the *ratios*
// reproduce Section 5: Oracle insertion ≈ 20× slower than the local
// embedded engine ("MS Access"), MS SQL Server / Postgres ≈ 2× faster than
// Oracle, and row-at-a-time cursor fetch ≈ 2–4× slower than bulk ("C-based")
// access. Absolute values are scaled down roughly 5–15× from the 1999
// hardware so the benchmark suite stays fast; EXPERIMENTS.md records the
// mapping.
var (
	// ProfileAccess models the local MS Access configuration: in-process,
	// no network, only driver dispatch overhead. Apply it with
	// godbc.ProfiledEmbedded.
	ProfileAccess = Profile{Name: "access", PerStatement: 12 * time.Microsecond, PerPrepare: 6 * time.Microsecond}
	// ProfileOracle models the networked Oracle 7 server of the paper. Its
	// statement compiler ("hard parse") is the most expensive of the four
	// vendors, which is exactly what PreparedStatement was amortizing in the
	// measured deployment.
	ProfileOracle = Profile{Name: "oracle7", RoundTrip: 150 * time.Microsecond, PerStatement: 20 * time.Microsecond, PerPrepare: 60 * time.Microsecond, PerRowWrite: 130 * time.Microsecond, PerRowRead: 60 * time.Microsecond}
	// ProfileMSSQL models the MS SQL Server configuration.
	ProfileMSSQL = Profile{Name: "mssql", RoundTrip: 100 * time.Microsecond, PerStatement: 10 * time.Microsecond, PerPrepare: 25 * time.Microsecond, PerRowWrite: 40 * time.Microsecond, PerRowRead: 30 * time.Microsecond}
	// ProfilePostgres models the Postgres configuration.
	ProfilePostgres = Profile{Name: "postgres", RoundTrip: 100 * time.Microsecond, PerStatement: 12 * time.Microsecond, PerPrepare: 25 * time.Microsecond, PerRowWrite: 42 * time.Microsecond, PerRowRead: 30 * time.Microsecond}
	// ProfileOracleRemote models the paper's measured deployment at full
	// scale: the COSY prototype talked to the Oracle server across the
	// department network through JDBC and paid about 1 ms per fetched record,
	// latency the analyzer spends idle on the wire. Unlike the scaled-down
	// LAN profiles above, this round trip is long enough that Delay sleeps
	// instead of spinning, so concurrent requests from a connection pool
	// genuinely overlap — the configuration the parallel evaluation pipeline
	// is built for.
	ProfileOracleRemote = Profile{Name: "oracle-remote", RoundTrip: 2 * time.Millisecond, PerStatement: 20 * time.Microsecond, PerPrepare: 60 * time.Microsecond, PerRowWrite: 130 * time.Microsecond, PerRowRead: 60 * time.Microsecond}
	// ProfileFast is a zero-overhead server profile used to isolate pure
	// protocol cost in tests and benchmarks.
	ProfileFast = Profile{Name: "fast"}
)

// String renders the profile name.
func (p Profile) String() string { return p.Name }

// Validate rejects nonsensical profiles.
func (p Profile) Validate() error {
	if p.RoundTrip < 0 || p.PerStatement < 0 || p.PerPrepare < 0 || p.PerRowWrite < 0 || p.PerRowRead < 0 {
		return fmt.Errorf("wire: profile %s has negative delays", p.Name)
	}
	return nil
}

// ByName returns the named built-in profile.
func ByName(name string) (Profile, bool) {
	for _, p := range []Profile{ProfileAccess, ProfileOracle, ProfileMSSQL, ProfilePostgres, ProfileOracleRemote, ProfileFast} {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}
