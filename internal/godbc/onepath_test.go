package godbc_test

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/asl/sqlgen"
	"repro/internal/godbc"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// ctxStmt is what every executor's prepared handle offers.
type ctxStmt interface {
	sqlgen.PreparedQuery
	sqlgen.BatchPreparedQuery
	sqlgen.ContextPreparedQuery
	sqlgen.ContextBatchPreparedQuery
}

// outcome renders one execution's result or error for comparison.
func outcome(set *sqldb.ResultSet, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	return fmt.Sprint(set.Columns, set.Rows)
}

func batchOutcome(results []sqlgen.BatchQueryResult, err error) string {
	if err != nil {
		return "batch error: " + err.Error()
	}
	var b strings.Builder
	for _, r := range results {
		b.WriteString(outcome(r.Set, r.Err) + "; ")
	}
	return b.String()
}

// TestPlainAndContextCallsAgree: every operation has one body, reached by
// the plain method through context.Background() and by the ...Context
// method with a live context. On every executor the two must agree — on a
// success, a per-binding error, a closed statement, and a statement the
// engine refuses to prepare, which runs as text with the text path's
// per-binding diagnostics.
func TestPlainAndContextCallsAgree(t *testing.T) {
	db, srv := startServer(t)
	conn, err := godbc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pool, err := godbc.NewPool(srv.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	mux, err := godbc.DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer mux.Close()
	sharded, err := godbc.DialSharded([]string{srv.Addr()}, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	type executor interface {
		sqlgen.QueryExecutor
		sqlgen.ContextQueryExecutor
		sqlgen.QueryPreparer
	}
	executors := []struct {
		name string
		q    executor
	}{
		{"Conn", conn},
		{"Pool", pool},
		{"MuxConn", mux},
		{"Embedded", godbc.Embedded{DB: db}},
		{"ProfiledEmbedded", godbc.ProfiledEmbedded{DB: db, Profile: wire.ProfileFast}},
		{"ShardedDB", sharded},
	}
	const (
		valid = "SELECT v FROM t WHERE id = ?"
		ghost = "SELECT (SELECT id FROM ghost) FROM t WHERE id = ?"
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bindings := append(idParams(1, 2), &sqldb.Params{}) // the last binds nothing

	for _, ex := range executors {
		t.Run(ex.name, func(t *testing.T) {
			prepare := func(sql string) ctxStmt {
				t.Helper()
				pq, err := ex.q.PrepareQuery(sql)
				if err != nil {
					t.Fatalf("prepare %q: %v", sql, err)
				}
				st, ok := pq.(ctxStmt)
				if !ok {
					t.Fatalf("%T lacks an execution method", pq)
				}
				return st
			}
			agree := func(what, plain, withCtx string) {
				t.Helper()
				if plain != withCtx {
					t.Errorf("%s: plain %q, context %q", what, plain, withCtx)
				}
			}
			for _, sql := range []string{valid, ghost} {
				st := prepare(sql)
				for i, p := range bindings {
					agree(fmt.Sprintf("%s binding %d", sql, i), outcome(st.ExecQuery(p)), outcome(st.ExecQueryContext(ctx, p)))
				}
				agree(sql+" batch", batchOutcome(st.ExecQueryBatch(bindings)), batchOutcome(st.ExecQueryBatchContext(ctx, bindings)))
				st.Close()
				agree(sql+" closed", outcome(st.ExecQuery(bindings[0])), outcome(st.ExecQueryContext(ctx, bindings[0])))
				agree(sql+" closed batch", batchOutcome(st.ExecQueryBatch(bindings)), batchOutcome(st.ExecQueryBatchContext(ctx, bindings)))
			}

			good := batchOutcome(prepare(valid).ExecQueryBatchContext(ctx, bindings[:2]))
			if strings.Contains(good, "error") {
				t.Errorf("valid batch failed: %s", good)
			}
			// The refused statement's diagnostics are the text path's.
			st := prepare(ghost)
			results, err := st.ExecQueryBatchContext(ctx, bindings[:2])
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				text := outcome(ex.q.ExecQueryContext(ctx, ghost, bindings[i]))
				if got := outcome(r.Set, r.Err); got != text || !strings.Contains(got, "ghost") {
					t.Errorf("ghost binding %d: %q, text path %q", i, got, text)
				}
			}
			agree("text exec", outcome(ex.q.ExecQuery(valid, bindings[0])), outcome(ex.q.ExecQueryContext(ctx, valid, bindings[0])))
		})
	}
}

// TestMuxConnRejectsUntaggedReplies: a peer that answers without echoing
// the request ID does not multiplex. The MuxConn must fail the call promptly
// with a protocol error, and every later call with it, instead of waiting
// for a reply that will never match.
func TestMuxConnRejectsUntaggedReplies(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		c, err := lis.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		codec := wire.NewCodec(c)
		for {
			if _, err := codec.ReadRequest(); err != nil {
				return
			}
			if err := codec.WriteResponse(&wire.Response{}); err != nil {
				return
			}
		}
	}()
	m, err := godbc.DialMux(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	done := make(chan error, 1)
	go func() {
		_, err := m.ExecQuery("SELECT 1", nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "protocol error") {
			t.Fatalf("err = %v, want a protocol error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call against a non-multiplexing peer hangs")
	}
	if err := m.Ping(); err == nil || !strings.Contains(err.Error(), "protocol error") {
		t.Fatalf("later call: err = %v, want the protocol error", err)
	}
}
