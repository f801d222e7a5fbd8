package main

import (
	"testing"

	"repro/internal/core"
	"repro/internal/godbc"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// TestTracedCapabilities checks that the wrapper offers exactly what each
// executor the benchmark wraps offers, for the executor and for its prepared
// statements, and that core takes the same path through it.
func TestTracedCapabilities(t *testing.T) {
	g, db, run := smallDataset(t)
	srv, err := wire.NewServer(db, wire.ProfileFast, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool, err := godbc.NewPool(srv.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()
	conn, err := godbc.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const query = "SELECT NoPe FROM TestRun WHERE id = :id"
	for name, q := range map[string]core.QueryExec{
		"Embedded": godbc.Embedded{DB: db},
		"Pool":     pool,
		"Conn":     conn,
	} {
		clock := &layerClock{}
		w, err := traced(q, clock)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a, b := capabilities(q), capabilities(w); a != b {
			t.Errorf("%s: executor offers %s, wrapper %s", name, a, b)
		}
		inner, err := q.(fullExecutor).PrepareQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		outer, err := w.(fullExecutor).PrepareQuery(query)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := capabilities(inner), capabilities(outer); a != b {
			t.Errorf("%s: statement offers %s, wrapper %s", name, a, b)
		}
		if _, ok := outer.(tracedStmt); !ok {
			t.Errorf("%s: prepared statement %T is not traced", name, outer)
		}
		inner.Close()
		outer.Close()

		before := db.Stats()
		if _, err := core.New(g, core.WithWorkers(1)).AnalyzeSQL(run, q); err != nil {
			t.Fatal(err)
		}
		mid := db.Stats()
		if _, err := core.New(g, core.WithWorkers(1)).AnalyzeSQL(run, w); err != nil {
			t.Fatal(err)
		}
		after := db.Stats()
		if err := samePath(&phase{analyses: 1, engine: deltaOf(before, mid)}, &phase{analyses: 1, engine: deltaOf(mid, after)}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if clock.calls.Load() == 0 || clock.prepares.Load() == 0 || clock.nanos.Load() <= 0 || clock.Err() != nil {
			t.Errorf("%s: clock saw calls=%d prepares=%d nanos=%d err=%v",
				name, clock.calls.Load(), clock.prepares.Load(), clock.nanos.Load(), clock.Err())
		}
	}

	// An executor with fewer capabilities is refused rather than changed.
	if _, err := traced(textOnly{}, &layerClock{}); err == nil {
		t.Error("an executor without prepared statements was wrapped")
	}
}

type textOnly struct{}

func (textOnly) ExecQuery(string, *sqldb.Params) (*sqldb.ResultSet, error) { return nil, nil }
