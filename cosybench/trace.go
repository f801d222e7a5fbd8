package main

// The traced run's executor wrapper. It sits between core (or service) and
// the godbc executor and times every call into it, so the analyzer's own time
// is the analysis wall time minus the time spent below it. It must not change
// what core does: core picks its execution path by probing the executor and
// its prepared statements for capability interfaces, so the wrapper
// implements exactly the capabilities of what it wraps (checked by
// sameCapabilities), and the traced run proves the path unchanged by
// comparing engine counters with the untraced run.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asl/sqlgen"
	"repro/internal/core"
	"repro/internal/sqldb"
)

// layerClock accumulates what a traced executor observed.
type layerClock struct {
	nanos    atomic.Int64 // wall time inside executor calls, prepares included
	prepares atomic.Int64
	calls    atomic.Int64 // executions, single and batched
	bindings atomic.Int64 // parameter sets those executions carried

	mu  sync.Mutex
	err error // first capability mismatch of a prepared statement
}

// reset forgets what the clock saw, such as a warm-up.
func (c *layerClock) reset() {
	c.nanos.Store(0)
	c.prepares.Store(0)
	c.calls.Store(0)
	c.bindings.Store(0)
}

func (c *layerClock) since(t0 time.Time) { c.nanos.Add(int64(time.Since(t0))) }

func (c *layerClock) exec(bindings int) {
	c.calls.Add(1)
	c.bindings.Add(int64(bindings))
}

func (c *layerClock) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
}

// Err returns the first capability mismatch found while tracing.
func (c *layerClock) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// fullExecutor is what every godbc executor the benchmark wraps offers.
type fullExecutor interface {
	sqlgen.QueryExecutor
	sqlgen.ContextQueryExecutor
	sqlgen.QueryPreparer
}

// fullStmt is what every godbc prepared statement offers.
type fullStmt interface {
	sqlgen.PreparedQuery
	sqlgen.ContextPreparedQuery
	sqlgen.BatchPreparedQuery
	sqlgen.ContextBatchPreparedQuery
}

type tracedExec struct {
	inner fullExecutor
	clock *layerClock
}

// tracedConcurrentExec is tracedExec for executors that are safe for
// concurrent use (godbc.Embedded, godbc.Pool).
type tracedConcurrentExec struct{ tracedExec }

// traced wraps q so every call into it is timed on clock.
func traced(q core.QueryExec, clock *layerClock) (core.QueryExec, error) {
	fe, ok := q.(fullExecutor)
	if !ok {
		return nil, fmt.Errorf("trace: executor %T offers %s, not QueryExecutor, ContextQueryExecutor and QueryPreparer", q, capabilities(q))
	}
	var w core.QueryExec = tracedExec{inner: fe, clock: clock}
	if _, ok := q.(core.ConcurrentQuerier); ok {
		w = tracedConcurrentExec{tracedExec{inner: fe, clock: clock}}
	}
	if err := sameCapabilities(q, w); err != nil {
		return nil, err
	}
	return w, nil
}

func (e tracedExec) ExecQuery(query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	defer e.clock.since(time.Now())
	e.clock.exec(1)
	return e.inner.ExecQuery(query, params)
}

func (e tracedExec) ExecQueryContext(ctx context.Context, query string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	defer e.clock.since(time.Now())
	e.clock.exec(1)
	return e.inner.ExecQueryContext(ctx, query, params)
}

func (e tracedExec) PrepareQuery(query string) (sqlgen.PreparedQuery, error) {
	t0 := time.Now()
	pq, err := e.inner.PrepareQuery(query)
	e.clock.since(t0)
	e.clock.prepares.Add(1)
	if err != nil {
		return nil, err
	}
	fs, ok := pq.(fullStmt)
	if !ok {
		// Hand back the statement itself so core keeps its path; the run is
		// marked incorrect instead.
		e.clock.fail(fmt.Errorf("trace: prepared statement %T offers only %s", pq, capabilities(pq)))
		return pq, nil
	}
	ts := tracedStmt{inner: fs, clock: e.clock}
	if err := sameCapabilities(pq, ts); err != nil {
		e.clock.fail(err)
		return pq, nil
	}
	return ts, nil
}

func (e tracedConcurrentExec) ConcurrentQuery() bool {
	return e.inner.(core.ConcurrentQuerier).ConcurrentQuery()
}

type tracedStmt struct {
	inner fullStmt
	clock *layerClock
}

func (s tracedStmt) ExecQuery(params *sqldb.Params) (*sqldb.ResultSet, error) {
	defer s.clock.since(time.Now())
	s.clock.exec(1)
	return s.inner.ExecQuery(params)
}

func (s tracedStmt) ExecQueryContext(ctx context.Context, params *sqldb.Params) (*sqldb.ResultSet, error) {
	defer s.clock.since(time.Now())
	s.clock.exec(1)
	return s.inner.ExecQueryContext(ctx, params)
}

func (s tracedStmt) ExecQueryBatch(bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	defer s.clock.since(time.Now())
	s.clock.exec(len(bindings))
	return s.inner.ExecQueryBatch(bindings)
}

func (s tracedStmt) ExecQueryBatchContext(ctx context.Context, bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	defer s.clock.since(time.Now())
	s.clock.exec(len(bindings))
	return s.inner.ExecQueryBatchContext(ctx, bindings)
}

func (s tracedStmt) Close() error { return s.inner.Close() }

// capabilities lists the execution interfaces core and sqlgen probe for that
// x implements, with the answer of ConcurrentQuery when present.
func capabilities(x any) string {
	var caps []string
	add := func(name string, ok bool) {
		if ok {
			caps = append(caps, name)
		}
	}
	_, ok := x.(sqlgen.QueryExecutor)
	add("QueryExecutor", ok)
	_, ok = x.(sqlgen.ContextQueryExecutor)
	add("ContextQueryExecutor", ok)
	_, ok = x.(sqlgen.QueryPreparer)
	add("QueryPreparer", ok)
	_, ok = x.(sqlgen.RoutedPreparer)
	add("RoutedPreparer", ok)
	_, ok = x.(sqlgen.RoutedExecutor)
	add("RoutedExecutor", ok)
	_, ok = x.(sqlgen.PreparedQuery)
	add("PreparedQuery", ok)
	_, ok = x.(sqlgen.ContextPreparedQuery)
	add("ContextPreparedQuery", ok)
	_, ok = x.(sqlgen.BatchPreparedQuery)
	add("BatchPreparedQuery", ok)
	_, ok = x.(sqlgen.ContextBatchPreparedQuery)
	add("ContextBatchPreparedQuery", ok)
	if cq, ok := x.(core.ConcurrentQuerier); ok {
		add(fmt.Sprintf("ConcurrentQuery=%t", cq.ConcurrentQuery()), true)
	}
	return "{" + strings.Join(caps, ", ") + "}"
}

// sameCapabilities reports a wrapper whose capabilities differ from those of
// the value it wraps.
func sameCapabilities(inner, wrapper any) error {
	if a, b := capabilities(inner), capabilities(wrapper); a != b {
		return fmt.Errorf("trace: %T offers %s but its wrapper offers %s", inner, a, b)
	}
	return nil
}
