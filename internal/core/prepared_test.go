package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/apprentice"
	"repro/internal/asl/sqlgen"
	"repro/internal/godbc"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// The prepared-statement pipeline must be invisible in the output: for every
// executor and worker count, the report produced with prepared statements is
// byte-identical to the per-call text-protocol one. Run with -race to
// exercise concurrent executions of the shared prepared handles.

// textExec runs the per-call text protocol through the analyzer's one
// execution path: its handles ship the SQL text once per binding.
type textExec struct{ q QueryExec }

func (e textExec) ExecQuery(sql string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	return e.q.ExecQuery(sql, params)
}

func (e textExec) PrepareQuery(sql string) (sqlgen.PreparedQuery, error) {
	return textHandle{q: e.q, sql: sql}, nil
}

type textHandle struct {
	q   QueryExec
	sql string
}

func (h textHandle) ExecQuery(params *sqldb.Params) (*sqldb.ResultSet, error) {
	return h.q.ExecQuery(h.sql, params)
}

func (h textHandle) ExecQueryBatchContext(ctx context.Context, bindings []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	out := make([]sqlgen.BatchQueryResult, len(bindings))
	for i, p := range bindings {
		out[i].Set, out[i].Err = h.q.ExecQuery(h.sql, p)
	}
	return out, nil
}

func (h textHandle) Close() error { return nil }

// TestPreparedMatchesTextEmbedded compares prepared and text execution on
// the embedded engine for every library workload.
func TestPreparedMatchesTextEmbedded(t *testing.T) {
	for name, w := range apprentice.Library() {
		t.Run(name, func(t *testing.T) {
			g := buildGraph(t, w)
			db := loadDB(t, g)
			run := lastRun(g)
			q := godbc.Embedded{DB: db}

			text := New(g)
			prepared := New(g)
			want := renderWith(t, text, 1, func() (*Report, error) { return text.AnalyzeSQL(run, textExec{q}) })
			for _, workers := range []int{1, 8} {
				got := renderWith(t, prepared, workers, func() (*Report, error) { return prepared.AnalyzeSQL(run, q) })
				if got != want {
					t.Errorf("workers=%d prepared report differs from text:\n--- text ---\n%s--- prepared ---\n%s", workers, want, got)
				}
			}
		})
	}
}

// TestPreparedMatchesTextOverPool drives the full networked stack: the
// pool's prepared statements at workers=8 must reproduce the serial
// text-protocol report byte for byte.
func TestPreparedMatchesTextOverPool(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	srv, err := wire.NewServer(db, wire.ProfileFast, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pool, err := godbc.NewPool(srv.Addr(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer pool.Close()

	run := lastRun(g)
	text := New(g)
	want := renderWith(t, text, 1, func() (*Report, error) { return text.AnalyzeSQL(run, textExec{pool}) })
	prepared := New(g)
	for _, workers := range []int{1, 8} {
		got := renderWith(t, prepared, workers, func() (*Report, error) { return prepared.AnalyzeSQL(run, pool) })
		if got != want {
			t.Errorf("workers=%d pooled prepared report differs from serial text:\n--- text ---\n%s--- prepared ---\n%s", workers, want, got)
		}
	}
	// The 8 properties were prepared lazily on at most pool-size
	// connections; the database must not have accumulated more handles.
	if live := db.Stats().PreparedLive; live > int64(8*pool.Size()) {
		t.Errorf("server holds %d prepared handles", live)
	}
}

// TestPreparedHandlesReleasedEmbedded: an analysis must close every handle
// it prepared.
func TestPreparedHandlesReleasedEmbedded(t *testing.T) {
	g := buildGraph(t, apprentice.Stencil())
	db := loadDB(t, g)
	a := New(g)
	if _, err := a.AnalyzeSQL(lastRun(g), godbc.Embedded{DB: db}); err != nil {
		t.Fatal(err)
	}
	if live := db.Stats().PreparedLive; live != 0 {
		t.Fatalf("%d prepared handles leaked", live)
	}
}

// TestGuidedSQLMatchesGuidedObject: the SQL-engine refinement search must
// visit the same instances with the same outcomes as the object-engine one.
func TestGuidedSQLMatchesGuidedObject(t *testing.T) {
	for name, w := range apprentice.Library() {
		t.Run(name, func(t *testing.T) {
			g := buildGraph(t, w)
			db := loadDB(t, g)
			run := lastRun(g)
			a := New(g)
			obj, objStats, err := a.AnalyzeGuided(run, DefaultHierarchy())
			if err != nil {
				t.Fatal(err)
			}
			sql, sqlStats, err := a.AnalyzeGuidedSQL(run, DefaultHierarchy(), godbc.Embedded{DB: db})
			if err != nil {
				t.Fatal(err)
			}
			if objStats.Evaluated != sqlStats.Evaluated || objStats.Exhaustive != sqlStats.Exhaustive {
				t.Fatalf("search stats differ: object %+v, sql %+v", objStats, sqlStats)
			}
			compareReports(t, obj, sql)
		})
	}
}

// countingPreparer wraps an executor and counts prepare and text-execution
// traffic.
type countingPreparer struct {
	godbc.Embedded
	prepares  int
	textExecs int
}

func (c *countingPreparer) PrepareQuery(sql string) (sqlgen.PreparedQuery, error) {
	c.prepares++
	return c.Embedded.PrepareQuery(sql)
}

func (c *countingPreparer) ExecQuery(sql string, params *sqldb.Params) (*sqldb.ResultSet, error) {
	c.textExecs++
	return c.Embedded.ExecQuery(sql, params)
}

// TestGuidedSQLPreparesOncePerProperty: the refinement search prepares each
// property's query at most once regardless of how many contexts it
// evaluates, and ships no query text per instance.
func TestGuidedSQLPreparesOncePerProperty(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	a := New(g)
	q := &countingPreparer{Embedded: godbc.Embedded{DB: db}}
	rep, stats, err := a.AnalyzeGuidedSQL(lastRun(g), DefaultHierarchy(), q)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bottleneck() == nil {
		t.Fatal("no bottleneck")
	}
	if stats.Evaluated == 0 {
		t.Fatal("search evaluated nothing")
	}
	if q.prepares == 0 || q.prepares > len(a.props) {
		t.Fatalf("prepared %d times for %d properties", q.prepares, len(a.props))
	}
	if q.textExecs != 0 {
		t.Fatalf("%d text executions on the prepared path", q.textExecs)
	}
	if live := db.Stats().PreparedLive; live != 0 {
		t.Fatalf("%d prepared handles leaked", live)
	}
}

// TestAnalyzeSQLPreparesOncePerProperty: the exhaustive analysis prepares
// exactly one handle per property and executes it per context.
func TestAnalyzeSQLPreparesOncePerProperty(t *testing.T) {
	g := buildGraph(t, apprentice.Stencil())
	db := loadDB(t, g)
	a := New(g)
	q := &countingPreparer{Embedded: godbc.Embedded{DB: db}}
	if _, err := a.AnalyzeSQL(lastRun(g), q); err != nil {
		t.Fatal(err)
	}
	if q.prepares != len(a.props) {
		t.Fatalf("prepared %d times for %d properties", q.prepares, len(a.props))
	}
	if q.textExecs != 0 {
		t.Fatalf("%d text executions on the prepared path", q.textExecs)
	}
}

// plainPreparer prepares handles without context-observing array binding.
type plainPreparer struct{ godbc.Embedded }

func (plainPreparer) PrepareQuery(string) (sqlgen.PreparedQuery, error) { return plainStmt{}, nil }

type plainStmt struct{}

func (plainStmt) ExecQuery(*sqldb.Params) (*sqldb.ResultSet, error) {
	return nil, errors.New("plainStmt executed")
}

func (plainStmt) Close() error { return nil }

// TestUnsupportedExecutorFailsAnalysis: an executor that does not prepare
// statements, or whose handles do not run context-observing batches, gets an
// error naming what is missing from both SQL analyses — never a panic, never
// a report.
func TestUnsupportedExecutorFailsAnalysis(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	run := lastRun(g)
	for _, tc := range []struct {
		q    QueryExec
		want string
	}{
		{godbc.CursorQuery{}, "does not prepare statements"}, // text-only: ExecQuery alone
		{plainPreparer{godbc.Embedded{DB: db}}, "ExecQueryBatchContext"},
	} {
		a := New(g)
		rep, err := a.AnalyzeSQL(run, tc.q)
		if !errors.Is(err, errUnsupported) || !strings.Contains(err.Error(), tc.want) || rep != nil {
			t.Errorf("AnalyzeSQL over %T: report=%v err=%v, want an error naming %q", tc.q, rep != nil, err, tc.want)
		}
		grep, _, err := a.AnalyzeGuidedSQL(run, DefaultHierarchy(), tc.q)
		if !errors.Is(err, errUnsupported) || !strings.Contains(err.Error(), tc.want) || grep != nil {
			t.Errorf("AnalyzeGuidedSQL over %T: report=%v err=%v, want an error naming %q", tc.q, grep != nil, err, tc.want)
		}
	}
}
