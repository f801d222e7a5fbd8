package wire_test

// Fault injection for the multiplexed wire layer: the protocol's failure
// modes are torn byte streams, dying peers, and readers that stop reading.
// None of them may take down the server, wedge unrelated connections, or
// leak the in-flight requests' goroutines.

import (
	"bytes"
	"context"
	"encoding/gob"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/godbc"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
	"repro/internal/testutil"
)

// startServer launches a wire server over a fresh database.
func startServer(t *testing.T, profile wire.Profile) (*sqldb.DB, *wire.Server) {
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

// TestTornFrameClientToServer: a client that dies mid-frame (partial gob
// bytes, then EOF) must cost the server nothing but that one connection —
// concurrent and subsequent clients are unaffected.
func TestTornFrameClientToServer(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, srv := startServer(t, wire.ProfileFast)

	// A healthy connection established before the fault.
	healthy, err := godbc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	// Encode a valid request, then send only half of it.
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&wire.Request{Kind: wire.ReqPing}); err != nil {
		t.Fatal(err)
	}
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw.Write(buf.Bytes()[:buf.Len()/2]); err != nil {
		t.Fatal(err)
	}
	raw.Close()

	// And one that sends outright garbage.
	raw2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := raw2.Write([]byte("\xff\xfe\xfd this is not gob \x00\x01")); err != nil {
		t.Fatal(err)
	}
	raw2.Close()

	// The server survives both: the pre-existing connection still works, and
	// new connections are accepted.
	if err := healthy.Ping(); err != nil {
		t.Fatalf("healthy connection after torn frames: %v", err)
	}
	fresh, err := godbc.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial after torn frames: %v", err)
	}
	defer fresh.Close()
	if err := fresh.Ping(); err != nil {
		t.Fatalf("fresh connection after torn frames: %v", err)
	}
}

// TestTornFrameServerToClient: garbage on the reply stream must surface as a
// transport error on every in-flight call and mark the connection broken —
// never hang, never mis-deliver.
func TestTornFrameServerToClient(t *testing.T) {
	testutil.CheckGoroutines(t)
	// A fake "server" that reads one request and answers with garbage.
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	go func() {
		conn, err := lis.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 1024)
		conn.Read(buf)
		conn.Write([]byte("\x07garbage that is not a gob Response"))
	}()

	m, err := godbc.DialMux(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Ping(); err == nil {
		t.Fatal("ping over a garbage reply stream succeeded")
	}
	// The connection is poisoned: later calls fail fast instead of hanging.
	errc := make(chan error, 1)
	go func() { errc <- m.Ping() }()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("second ping on a poisoned connection succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second ping on a poisoned connection hung")
	}
}

// TestServerDeathMidMuxStream: the server dies with several multiplexed
// requests in flight. Every pending call fails with a transport error; none
// hang, nothing leaks.
func TestServerDeathMidMuxStream(t *testing.T) {
	testutil.CheckGoroutines(t)
	db, srv := startServer(t, wire.ProfileOracleRemote) // slow: requests stay in flight
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY)", nil); err != nil {
		t.Fatal(err)
	}

	m, err := godbc.DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Ping(); err != nil { // confirm mux mode before the kill
		t.Fatal(err)
	}

	const inflight = 8
	var wg sync.WaitGroup
	errs := make([]error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = m.ExecQuery("SELECT id FROM t", nil)
		}(i)
	}
	time.Sleep(5 * time.Millisecond) // let the requests reach the server
	srv.Close()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight requests did not fail after server death")
	}
	// Whether a given request completed before the shutdown or died with it
	// is timing; what is guaranteed is that none hung and the connection now
	// reports a transport error.
	if err := m.Ping(); err == nil {
		t.Fatal("ping succeeded after server death")
	}
}

// TestSlowReaderBackpressure: a client that floods requests and never reads
// replies only backs up its own connection. A second client on the same
// server stays responsive — per-connection writes must not share a lock.
func TestSlowReaderBackpressure(t *testing.T) {
	testutil.CheckGoroutines(t)
	db, srv := startServer(t, wire.ProfileFast)
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)", nil); err != nil {
		t.Fatal(err)
	}
	// Bulk rows so replies are big enough to fill kernel buffers eventually.
	for i := 0; i < 64; i++ {
		if _, err := db.Exec("INSERT INTO t (id, v) VALUES (?, ?)", &sqldb.Params{
			Positional: []sqldb.Value{sqldb.NewInt(int64(i)), sqldb.NewText("xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx")},
		}); err != nil {
			t.Fatal(err)
		}
	}

	// The slow reader: raw codec, writes mux-tagged requests, reads nothing.
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	codec := wire.NewCodec(raw)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for i := int64(1); ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := codec.WriteRequest(&wire.Request{Kind: wire.ReqQueryCursor, SQL: "SELECT id, v FROM t", ID: i}); err != nil {
				return // write blocked until teardown closed the socket
			}
		}
	}()

	// Meanwhile a well-behaved client must see ordinary latency.
	c, err := godbc.DialMux(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := c.ExecQueryContext(ctx, "SELECT id FROM t", nil)
		cancel()
		if err != nil {
			t.Fatalf("well-behaved client starved beside a slow reader: %v", err)
		}
	}
}

// TestPreMuxClientAgainstMuxServer: a plain Conn (never sends IDs) against
// the current server — the server must serve it serially and echo no IDs,
// exactly as before the extension (gob tolerance both ways).
func TestPreMuxClientAgainstMuxServer(t *testing.T) {
	testutil.CheckGoroutines(t)
	db, srv := startServer(t, wire.ProfileFast)
	if _, err := db.Exec("CREATE TABLE t (id INTEGER PRIMARY KEY)", nil); err != nil {
		t.Fatal(err)
	}

	conn, err := godbc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Ping(); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Exec("INSERT INTO t (id) VALUES (?)", &sqldb.Params{Positional: []sqldb.Value{sqldb.NewInt(1)}}); err != nil {
		t.Fatal(err)
	}
	set, err := conn.ExecQuery("SELECT id FROM t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Rows) != 1 {
		t.Fatalf("rows: %v", set.Rows)
	}
}
