package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/asl/sqlgen"
	"repro/internal/sqldb"
)

// The batched execution pipeline. Prepared statements removed the
// per-execution parse and plan cost; what remained was one client/server
// round trip per (property × context) instance. Since every context of a
// property executes the same prepared handle with only the parameters
// changing, the analyzer groups the contexts per property and ships each
// group as one array-bound batch (sqlgen.ContextBatchPreparedQuery): one
// round trip per batch instead of one per instance. Chunking by the batch
// size bounds request and response sizes; chunks are independent work items
// for the worker pool, so batching composes with parallel evaluation.
// Results are written into pre-assigned enumeration-order slots, so reports
// render byte-identical at every batch size and worker count.
//
// This is the only execution path of the SQL engines: batch size 1 ships
// batches of one binding.

// DefaultBatchSize is the number of parameter sets shipped per batched
// request when no explicit size is configured.
const DefaultBatchSize = 32

// WithBatchSize sets the number of context instances executed per batched
// request on the SQL engines: n >= 1 batches in chunks of n (1 ships every
// instance alone), and n <= 0 selects DefaultBatchSize.
func WithBatchSize(n int) Option { return func(a *Analyzer) { a.batchSize = n } }

// SetBatchSize changes the batch size after construction; the value is
// interpreted as in WithBatchSize.
func (a *Analyzer) SetBatchSize(n int) { a.batchSize = n }

// BatchSize returns the effective batch size used for an analysis.
func (a *Analyzer) BatchSize() int {
	if a.batchSize <= 0 {
		return DefaultBatchSize
	}
	return a.batchSize
}

// batchStmt is the prepared handle the SQL engines execute through: a
// prepared query whose array binding observes a context.
type batchStmt interface {
	sqlgen.PreparedQuery
	sqlgen.ContextBatchPreparedQuery
}

// errUnsupported marks an executor that lacks what the SQL engines need. It
// aborts an analysis (see fatalExecErr).
var errUnsupported = errors.New("core: unsupported executor")

// batchPreparer is the entry check of the SQL engines: the executor must
// prepare statements.
func batchPreparer(q QueryExec) (sqlgen.QueryPreparer, error) {
	p, ok := q.(sqlgen.QueryPreparer)
	if !ok {
		return nil, fmt.Errorf("%w: %T does not prepare statements (no PrepareQuery, sqlgen.QueryPreparer)", errUnsupported, q)
	}
	return p, nil
}

// asBatchStmt checks that a prepared handle runs context-observing batches.
func asBatchStmt(pq sqlgen.PreparedQuery) (batchStmt, error) {
	bs, ok := pq.(batchStmt)
	if !ok {
		return nil, fmt.Errorf("%w: prepared statement %T has no ExecQueryBatchContext (sqlgen.ContextBatchPreparedQuery)", errUnsupported, pq)
	}
	return bs, nil
}

// chunk is one worker-pool unit of a SQL analysis: a run of consecutive
// enumerated items that share a property and execute as one batch.
type chunk struct {
	start, n int
}

// batchChunks slices the enumerated items into execution units of at most
// BatchSize items of one property.
func (a *Analyzer) batchChunks(items []evalItem) []chunk {
	size := a.BatchSize()
	var chunks []chunk
	for i := 0; i < len(items); {
		n := 1
		for i+n < len(items) && n < size && items[i+n].sqlProp == items[i].sqlProp {
			n++
		}
		chunks = append(chunks, chunk{start: i, n: n})
		i += n
	}
	return chunks
}

// abortSentinel matches errors that must abort a whole analysis rather than
// become an instance diagnostic. The sharding driver tags transport failures
// with the dead shard's address through this interface (godbc.ShardError):
// with one of N servers unreachable, an analysis would otherwise emit a
// partial report whose missing instances hide as diagnostics.
type abortSentinel interface{ ShardAddr() string }

// fatalExecErr reports whether an execution error must abort the analysis:
// a shard loss, an unsupported executor, or the analysis context being
// canceled — a canceled caller has stopped waiting, so executing the
// remaining instances would spend capacity on a report nobody reads.
func fatalExecErr(err error) bool {
	var se abortSentinel
	return errors.As(err, &se) ||
		errors.Is(err, errUnsupported) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// analysisAbort collects the first fatal execution failure of an analysis.
// Workers keep filling their pre-assigned slots (the merge stays
// deterministic), but the report is discarded and the failure returned.
type analysisAbort struct {
	mu  sync.Mutex
	err error
}

// record keeps the first fatal error.
func (f *analysisAbort) record(err error) {
	if f == nil || err == nil || !fatalExecErr(err) {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

// Err returns the recorded failure, if any.
func (f *analysisAbort) Err() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// evalSQLCtxs evaluates the contexts of one compiled property, writing one
// Instance per context into out (out[i] belongs to ctxs[i]), in batches of
// up to BatchSize contexts. Shard losses are recorded in fail as well as
// diagnosed; once one is recorded, remaining contexts are diagnosed without
// executing — the analysis is already doomed to abort, and issuing more
// requests at a dead shard would pay a timeout apiece for a report that will
// be discarded.
func (a *Analyzer) evalSQLCtxs(ctx context.Context, c *compiledProp, prop string, ctxs []instCtx, out []Instance, fail *analysisAbort) {
	// Validate every context's bindings against the compiled parameter list
	// before anything executes, and fill the positional slice when the
	// dialect renders positional markers. A mismatch is systematic — every
	// context of a property binds the same parameter shape — so the first
	// failure diagnoses the whole group without issuing a single query.
	for _, ictx := range ctxs {
		err := c.cp.CheckBinding(ictx.params)
		if err == nil && c.paramOrder != nil {
			err = sqlgen.FillPositional(ictx.params, c.paramOrder)
		}
		if err != nil {
			for i, ic := range ctxs {
				out[i] = Instance{Property: prop, Context: ic.label, Outcome: Outcome{Diagnostic: err.Error()}}
			}
			return
		}
	}
	size := a.BatchSize()
	for start := 0; start < len(ctxs); start += size {
		end := min(start+size, len(ctxs))
		if err := ctx.Err(); err != nil {
			fail.record(err)
		}
		if aborted(prop, ctxs[start:], out[start:], fail) {
			return
		}
		a.evalSQLBatch(ctx, c, prop, ctxs[start:end], out[start:end], fail)
	}
}

// aborted reports whether the analysis has already recorded a fatal failure;
// if so it fills the remaining slots with that failure as their diagnostic,
// keeping every slot populated for the (discarded) merge.
func aborted(prop string, ctxs []instCtx, out []Instance, fail *analysisAbort) bool {
	err := fail.Err()
	if err == nil {
		return false
	}
	for i, ctx := range ctxs {
		out[i] = Instance{Property: prop, Context: ctx.label, Outcome: Outcome{Diagnostic: err.Error()}}
	}
	return true
}

// evalSQLBatch ships one chunk of contexts as a single batched request. A
// batch-level failure (transport, closed handle) diagnoses every context of
// the chunk; per-binding failures diagnose only their own context.
func (a *Analyzer) evalSQLBatch(ctx context.Context, c *compiledProp, prop string, ctxs []instCtx, out []Instance, fail *analysisAbort) {
	bindings := make([]*sqldb.Params, len(ctxs))
	for i, ictx := range ctxs {
		bindings[i] = ictx.params
	}
	results, err := c.stmt.ExecQueryBatchContext(ctx, bindings)
	if err == nil && len(results) != len(ctxs) {
		err = fmt.Errorf("core: batch returned %d results for %d bindings", len(results), len(ctxs))
	}
	fail.record(err)
	for i, ictx := range ctxs {
		in := Instance{Property: prop, Context: ictx.label}
		switch {
		case err != nil:
			in.Diagnostic = err.Error()
		case results[i].Err != nil:
			fail.record(results[i].Err)
			in.Diagnostic = results[i].Err.Error()
		default:
			in.Outcome = interpretRow(c.cp, results[i].Set)
		}
		out[i] = in
	}
}
