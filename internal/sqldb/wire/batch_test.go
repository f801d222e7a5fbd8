package wire_test

import (
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/godbc"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// rawClient opens a codec straight onto the server socket, bypassing godbc,
// so tests can send protocol-level requests godbc would never emit.
func rawClient(t *testing.T, addr string) *wire.Codec {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return wire.NewCodec(nc)
}

func startBatchServer(t *testing.T, profile wire.Profile) (*sqldb.DB, *wire.Server) {
	t.Helper()
	db := sqldb.NewDB()
	srv, err := wire.NewServer(db, profile, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return db, srv
}

func TestBatchUnknownHandle(t *testing.T) {
	_, srv := startBatchServer(t, wire.ProfileFast)
	codec := rawClient(t, srv.Addr())
	if err := codec.WriteRequest(&wire.Request{
		Kind:   wire.ReqExecBatch,
		StmtID: 12345,
		Batch:  []wire.BatchBinding{{}},
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := codec.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Err, "no prepared statement") {
		t.Fatalf("Err = %q", resp.Err)
	}
	// The connection must remain usable after the batch-level error.
	if err := codec.WriteRequest(&wire.Request{Kind: wire.ReqPing}); err != nil {
		t.Fatal(err)
	}
	if resp, err = codec.ReadResponse(); err != nil || resp.Err != "" {
		t.Fatalf("ping after batch error: %v %q", err, resp.Err)
	}
}

func TestBatchOversizedRejectedAtProtocolLevel(t *testing.T) {
	db, srv := startBatchServer(t, wire.ProfileFast)
	db.MustExec("CREATE TABLE t (id INTEGER)", nil)
	// A raw request over the limit must be rejected whole: the server cannot
	// truncate without breaking binding-to-result ordering.
	codec := rawClient(t, srv.Addr())
	over := make([]wire.BatchBinding, wire.MaxBatch+1)
	if err := codec.WriteRequest(&wire.Request{Kind: wire.ReqExecBatch, StmtID: 1, Batch: over}); err != nil {
		t.Fatal(err)
	}
	resp, err := codec.ReadResponse()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(resp.Err, "exceeds the limit") {
		t.Fatalf("Err = %q", resp.Err)
	}
}

func TestBatchClientSplitsOversizedBatches(t *testing.T) {
	db, srv := startBatchServer(t, wire.ProfileFast)
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)", nil)
	n := wire.MaxBatch*2 + 17
	for i := 0; i < n; i++ {
		db.MustExec("INSERT INTO t (id, v) VALUES (?, ?)", &sqldb.Params{Positional: []sqldb.Value{
			sqldb.NewInt(int64(i)), sqldb.NewInt(int64(i * i)),
		}})
	}
	conn, err := godbc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	st, err := conn.Prepare("SELECT v FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var bindings []*sqldb.Params
	for i := 0; i < n; i++ {
		bindings = append(bindings, &sqldb.Params{Positional: []sqldb.Value{sqldb.NewInt(int64(i))}})
	}
	results, err := st.ExecBatch(bindings)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("got %d results for %d bindings", len(results), n)
	}
	// Result ordering must survive the chunk split.
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("binding %d: %v", i, r.Err)
		}
		if got := r.Set.Rows[0][0].Int(); got != int64(i*i) {
			t.Fatalf("binding %d: v = %d, want %d", i, got, i*i)
		}
	}
	if st := db.Stats(); st.BatchExecs != 3 || st.BatchBindings != int64(n) {
		t.Fatalf("server saw %d batches with %d bindings, want 3 with %d", st.BatchExecs, st.BatchBindings, n)
	}
}

func TestBatchPartialFailureOrderingOverWire(t *testing.T) {
	db, srv := startBatchServer(t, wire.ProfileFast)
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)", nil)
	db.MustExec("INSERT INTO t (id, v) VALUES (1, 10), (2, 20), (3, 30)", nil)
	conn, err := godbc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	st, err := conn.Prepare("SELECT v FROM t WHERE id = $id")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.AddBatch(&sqldb.Params{Named: map[string]sqldb.Value{"id": sqldb.NewInt(1)}})
	st.AddBatch(&sqldb.Params{Named: map[string]sqldb.Value{"wrong": sqldb.NewInt(2)}})
	st.AddBatch(&sqldb.Params{Named: map[string]sqldb.Value{"id": sqldb.NewInt(3)}})
	results, err := st.ExecuteBatch()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].Err != nil || results[0].Set.Rows[0][0].Int() != 10 {
		t.Fatalf("binding 0: %+v", results[0])
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "parameter") {
		t.Fatalf("binding 1: %+v", results[1])
	}
	if results[2].Err != nil || results[2].Set.Rows[0][0].Int() != 30 {
		t.Fatalf("binding 2: %+v", results[2])
	}
	// ExecuteBatch must have cleared the queue.
	if again, err := st.ExecuteBatch(); err != nil || len(again) != 0 {
		t.Fatalf("queue not cleared: %v %v", again, err)
	}
}

func TestBatchStaleSchemaMidFlight(t *testing.T) {
	db, srv := startBatchServer(t, wire.ProfileFast)
	db.MustExec("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)", nil)
	for i := 0; i < 8; i++ {
		db.MustExec("INSERT INTO t (id, v) VALUES (?, ?)", &sqldb.Params{Positional: []sqldb.Value{
			sqldb.NewInt(int64(i)), sqldb.NewInt(int64(100 + i)),
		}})
	}
	conn, err := godbc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	st, err := conn.Prepare("SELECT v FROM t WHERE id = ?")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// DDL between the prepare and the batch bumps the schema version; the
	// server-side handle must replan and the batch must still succeed.
	db.MustExec("CREATE INDEX idx_t_id ON t (id)", nil)
	var bindings []*sqldb.Params
	for i := 0; i < 8; i++ {
		bindings = append(bindings, &sqldb.Params{Positional: []sqldb.Value{sqldb.NewInt(int64(i))}})
	}
	results, err := st.ExecBatch(bindings)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil || r.Set.Rows[0][0].Int() != int64(100+i) {
			t.Fatalf("binding %d after DDL: %+v", i, r)
		}
	}
	if db.Stats().Replans == 0 {
		t.Fatal("expected the server to replan the stale handle")
	}
	// A table dropped under the handle must fail the whole batch cleanly and
	// leave the connection usable.
	db.MustExec("DROP TABLE t", nil)
	if _, err := st.ExecBatch(bindings[:2]); err == nil {
		t.Fatal("batch against a dropped table must fail")
	}
	if err := conn.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestServerShutdownDrains(t *testing.T) {
	db, srv := startBatchServer(t, wire.ProfileFast)
	db.MustExec("CREATE TABLE t (id INTEGER)", nil)
	// No clients: shutdown returns promptly.
	start := time.Now()
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("idle shutdown took %v", elapsed)
	}

	// A lingering client: shutdown waits, then force-closes at the deadline.
	db2, srv2 := startBatchServer(t, wire.ProfileFast)
	db2.MustExec("CREATE TABLE t (id INTEGER)", nil)
	conn, err := godbc.Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Shutdown(50 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := conn.Ping(); err == nil {
		t.Fatal("ping after forced shutdown must fail")
	}
	// New connections are refused after shutdown.
	if _, err := godbc.Dial(srv2.Addr()); err == nil {
		// Dial may succeed before the OS notices; the first round trip must fail.
		c2, _ := godbc.Dial(srv2.Addr())
		if c2 != nil {
			if err := c2.Ping(); err == nil {
				t.Fatal("server accepted traffic after shutdown")
			}
			c2.Close()
		}
	}
	// Shutdown after shutdown is a no-op.
	if err := srv2.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
}
