package core

import (
	"context"
	"sync"
	"testing"

	"repro/internal/apprentice"
	"repro/internal/asl/sqlgen"
	"repro/internal/godbc"
	"repro/internal/sqldb"
	"repro/internal/sqldb/wire"
)

// The batched pipeline must be invisible in the output: for every executor,
// batch size, and worker count, the report produced with batched execution
// is byte-identical to the batch-of-one one and to the per-call
// text-protocol one. Run with -race to exercise concurrent batches.

// TestBatchedMatchesUnbatchedEmbedded compares text and batched execution on
// the embedded engine for every library workload at workers 1 and 8.
func TestBatchedMatchedUnbatchedEmbedded(t *testing.T) {
	for name, w := range apprentice.Library() {
		t.Run(name, func(t *testing.T) {
			g := buildGraph(t, w)
			db := loadDB(t, g)
			run := lastRun(g)
			q := godbc.Embedded{DB: db}

			text := New(g)
			want := renderWith(t, text, 1, func() (*Report, error) { return text.AnalyzeSQL(run, textExec{q}) })
			for _, batch := range []int{2, 5, DefaultBatchSize} {
				for _, workers := range []int{1, 8} {
					batched := New(g, WithBatchSize(batch))
					got := renderWith(t, batched, workers, func() (*Report, error) { return batched.AnalyzeSQL(run, q) })
					if got != want {
						t.Errorf("batchsize=%d workers=%d report differs from text:\n--- text ---\n%s--- batched ---\n%s",
							batch, workers, want, got)
					}
				}
			}
		})
	}
}

// TestBatchedMatchesUnbatchedOverPool drives the full networked stack: the
// pool's batched requests must reproduce the serial batch-of-one report byte
// for byte at workers 1 and 8, and the server must actually have served
// batches.
func TestBatchedMatchesUnbatchedOverPool(t *testing.T) {
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
	unbatched := New(g, WithBatchSize(1))
	want := renderWith(t, unbatched, 1, func() (*Report, error) { return unbatched.AnalyzeSQL(run, pool) })
	for _, workers := range []int{1, 8} {
		batched := New(g, WithBatchSize(4))
		got := renderWith(t, batched, workers, func() (*Report, error) { return batched.AnalyzeSQL(run, pool) })
		if got != want {
			t.Errorf("workers=%d batched report differs from serial unbatched:\n--- unbatched ---\n%s--- batched ---\n%s",
				workers, want, got)
		}
	}
	if st := db.Stats(); st.BatchExecs == 0 {
		t.Error("server served no batches on the batched path")
	}
}

// TestGuidedSQLBatchedMatchesObject: the batched refinement search must
// visit the same instances with the same outcomes as the object-engine one.
func TestGuidedSQLBatchedMatchesObject(t *testing.T) {
	for name, w := range apprentice.Library() {
		t.Run(name, func(t *testing.T) {
			g := buildGraph(t, w)
			db := loadDB(t, g)
			run := lastRun(g)
			a := New(g, WithBatchSize(3))
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

// countingBatchPreparer wraps the embedded engine and counts how contexts
// reach the database: batched requests versus per-instance executions.
type countingBatchPreparer struct {
	godbc.Embedded

	mu       sync.Mutex
	batches  int // ExecQueryBatchContext calls
	bindings int // parameter sets shipped in them
	perExec  int // per-instance ExecQuery calls on prepared handles
}

func (c *countingBatchPreparer) PrepareQuery(sql string) (sqlgen.PreparedQuery, error) {
	pq, err := c.Embedded.PrepareQuery(sql)
	if err != nil {
		return nil, err
	}
	return &countingBatchStmt{parent: c, bs: pq.(batchStmt)}, nil
}

type countingBatchStmt struct {
	parent *countingBatchPreparer
	bs     batchStmt
}

func (s *countingBatchStmt) ExecQuery(p *sqldb.Params) (*sqldb.ResultSet, error) {
	s.parent.mu.Lock()
	s.parent.perExec++
	s.parent.mu.Unlock()
	return s.bs.ExecQuery(p)
}

func (s *countingBatchStmt) ExecQueryBatchContext(ctx context.Context, b []*sqldb.Params) ([]sqlgen.BatchQueryResult, error) {
	s.parent.mu.Lock()
	s.parent.batches++
	s.parent.bindings += len(b)
	s.parent.mu.Unlock()
	return s.bs.ExecQueryBatchContext(ctx, b)
}

func (s *countingBatchStmt) Close() error { return s.bs.Close() }

// TestAnalyzeSQLBatchesEveryContext: every context reaches the database
// inside a batch — zero per-instance executions — and the batch count
// reflects the chunking; with batchsize 1, every batch carries one binding.
func TestAnalyzeSQLBatchesEveryContext(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	run := lastRun(g)

	q := &countingBatchPreparer{Embedded: godbc.Embedded{DB: db}}
	a := New(g, WithBatchSize(4))
	rep, err := a.AnalyzeSQL(run, q)
	if err != nil {
		t.Fatal(err)
	}
	total := len(rep.Instances) + rep.Skipped + len(rep.Diagnostics)
	if q.perExec != 0 {
		t.Errorf("%d per-instance executions on the batched path", q.perExec)
	}
	if q.bindings != total {
		t.Errorf("batches carried %d bindings for %d instances", q.bindings, total)
	}
	if q.batches == 0 || q.batches >= total {
		t.Errorf("%d batches for %d instances: no amortization", q.batches, total)
	}

	q2 := &countingBatchPreparer{Embedded: godbc.Embedded{DB: db}}
	a2 := New(g, WithBatchSize(1))
	if _, err := a2.AnalyzeSQL(run, q2); err != nil {
		t.Fatal(err)
	}
	if q2.perExec != 0 {
		t.Errorf("%d per-instance executions with batch size 1", q2.perExec)
	}
	if q2.batches != total || q2.bindings != total {
		t.Errorf("batch size 1 shipped %d batches with %d bindings for %d instances", q2.batches, q2.bindings, total)
	}
}

// TestGuidedSQLBatchesGroups: the refinement search ships each step's
// contexts as batches and never per instance when batching is on.
func TestGuidedSQLBatchesGroups(t *testing.T) {
	g := buildGraph(t, apprentice.Particles())
	db := loadDB(t, g)
	q := &countingBatchPreparer{Embedded: godbc.Embedded{DB: db}}
	a := New(g, WithBatchSize(DefaultBatchSize))
	_, stats, err := a.AnalyzeGuidedSQL(lastRun(g), DefaultHierarchy(), q)
	if err != nil {
		t.Fatal(err)
	}
	if q.perExec != 0 {
		t.Errorf("%d per-instance executions on the batched guided path", q.perExec)
	}
	if q.bindings != stats.Evaluated {
		t.Errorf("batches carried %d bindings for %d evaluated instances", q.bindings, stats.Evaluated)
	}
	if q.batches == 0 || q.batches >= stats.Evaluated {
		t.Errorf("%d batches for %d instances: no amortization", q.batches, stats.Evaluated)
	}
	if live := db.Stats().PreparedLive; live != 0 {
		t.Errorf("%d prepared handles leaked", live)
	}
}
