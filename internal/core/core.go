// Package core implements the KOJAK Cost Analyzer (COSY): it enumerates
// property instances over a performance-data snapshot, evaluates them with
// either the ASL object interpreter (client-side) or the generated SQL
// queries (server-side), ranks properties by severity, and reports
// performance problems and the bottleneck, following Section 3 and 4 of the
// paper.
package core

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/asl/ast"
	"repro/internal/asl/eval"
	"repro/internal/asl/object"
	"repro/internal/asl/sem"
	"repro/internal/asl/sqlgen"
	"repro/internal/model"
	"repro/internal/sqlast/build"
	"repro/internal/sqldb"
)

// DefaultThreshold is the severity above which a property is a performance
// problem: 5% of the ranking basis duration.
const DefaultThreshold = 0.05

// Outcome is the result of evaluating one property instance.
type Outcome struct {
	// Holds reports whether any condition of the property was true.
	Holds bool
	// Confidence in [0,1].
	Confidence float64
	// Severity relative to the ranking basis.
	Severity float64
	// Diagnostic is non-empty when the instance could not be evaluated
	// (missing data; UNIQUE over an empty set and similar), in which case
	// Holds is false.
	Diagnostic string
}

// Instance is one evaluated property instance.
type Instance struct {
	// Property is the ASL property name.
	Property string
	// Context describes the instance parameters, e.g. "region main/sweep".
	Context string
	Outcome
}

// Report is the analysis result for one test run.
type Report struct {
	Program   string
	NoPe      int
	Engine    string
	Threshold float64
	// Instances holds every instance that holds, sorted by decreasing
	// severity (ties broken by property and context for determinism).
	Instances []Instance
	// Skipped counts instances that did not hold; Diagnostics lists
	// instances that could not be evaluated.
	Skipped     int
	Diagnostics []Instance
}

// Problems returns the instances whose severity exceeds the threshold, i.e.
// the performance problems of the paper's definition.
func (r *Report) Problems() []Instance {
	var out []Instance
	for _, in := range r.Instances {
		if in.Severity > r.Threshold {
			out = append(out, in)
		}
	}
	return out
}

// Bottleneck returns the most severe instance, or nil if nothing holds. Per
// the paper, if the bottleneck is not a performance problem the program
// needs no further tuning.
func (r *Report) Bottleneck() *Instance {
	if len(r.Instances) == 0 {
		return nil
	}
	return &r.Instances[0]
}

// Render formats the report as a text table.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "COSY analysis: program %s, %d PEs (engine: %s)\n", r.Program, r.NoPe, r.Engine)
	fmt.Fprintf(&b, "severity threshold: %.3f\n", r.Threshold)
	if len(r.Instances) == 0 {
		b.WriteString("no performance properties hold; nothing to tune\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%-28s %-34s %10s %6s %s\n", "PROPERTY", "CONTEXT", "SEVERITY", "CONF", "PROBLEM")
	for _, in := range r.Instances {
		mark := ""
		if in.Severity > r.Threshold {
			mark = "yes"
		}
		fmt.Fprintf(&b, "%-28s %-34s %10.4f %6.2f %s\n", in.Property, in.Context, in.Severity, in.Confidence, mark)
	}
	if bn := r.Bottleneck(); bn != nil {
		fmt.Fprintf(&b, "bottleneck: %s at %s (severity %.4f)\n", bn.Property, bn.Context, bn.Severity)
	}
	for _, d := range r.Diagnostics {
		fmt.Fprintf(&b, "diagnostic: %s %s: %s\n", d.Property, d.Context, d.Diagnostic)
	}
	return b.String()
}

// Option configures an Analyzer.
type Option func(*Analyzer)

// WithThreshold sets the performance-problem severity threshold.
func WithThreshold(t float64) Option { return func(a *Analyzer) { a.threshold = t } }

// WithProperties restricts and orders the evaluated properties.
func WithProperties(names ...string) Option {
	return func(a *Analyzer) { a.props = append([]string(nil), names...) }
}

// WithCallFilter restricts a FunctionCall-context property to call sites of
// the named callee ("" removes the restriction). By default LoadImbalance is
// restricted to the barrier routine, as the paper prescribes.
func WithCallFilter(property, callee string) Option {
	return func(a *Analyzer) { a.callFilter[property] = callee }
}

// WithConst overrides a specification constant (e.g. ImbalanceThreshold).
func WithConst(name string, value float64) Option {
	return func(a *Analyzer) { a.consts[name] = value }
}

// WithSQLDialect selects the SQL dialect the property compiler renders for
// on the SQL engine paths (see internal/sqlast/build). The default is the
// canonical "kojakdb" dialect, whose rendering is the byte-exact text the
// plan and result caches key on. Positional-marker dialects ("ansi") make
// the analyzer fill each context's positional parameter slice from its named
// bindings in rendered marker order. The name is validated when an analysis
// first compiles a property, not here.
func WithSQLDialect(name string) Option {
	return func(a *Analyzer) { a.dialect = name }
}

// Analyzer evaluates the canonical property set over a materialized graph.
// Property instances are evaluated on a bounded worker pool (see WithWorkers
// and parallel.go); results are merged deterministically, so reports do not
// depend on the worker count.
type Analyzer struct {
	world      *sem.World
	graph      *model.Graph
	threshold  float64
	props      []string
	callFilter map[string]string
	consts     map[string]float64
	// workers is the evaluation worker count; <= 0 means GOMAXPROCS.
	workers int
	// batchSize is the number of context instances per batched request on
	// the SQL engines; <= 0 means DefaultBatchSize.
	batchSize int
	// dialect is the SQL dialect properties are rendered in; "" means the
	// canonical kojakdb dialect.
	dialect string
}

// New returns an analyzer over the graph.
func New(g *model.Graph, opts ...Option) *Analyzer {
	a := &Analyzer{
		world:      g.World,
		graph:      g,
		threshold:  DefaultThreshold,
		props:      append([]string(nil), model.AllProperties...),
		callFilter: map[string]string{"LoadImbalance": model.BarrierFunction},
		consts:     make(map[string]float64),
	}
	for _, o := range opts {
		o(a)
	}
	return a
}

// Threshold returns the configured problem threshold.
func (a *Analyzer) Threshold() float64 { return a.threshold }

// instCtx is one property instance before evaluation.
type instCtx struct {
	label string
	args  []object.Value
	// ids carries the argument object ids for the SQL engine, keyed by
	// parameter name.
	params *sqldb.Params
}

// scope is the slice of a database one analysis looks at: the regions and
// call sites of one program version, the selected test run, and the ranking
// basis. The COSY database holds multiple applications and versions; the
// scope is what the paper's "select a program version and a specific test
// run" step produces.
type scope struct {
	regions []*object.Object
	calls   []*object.Object
	run     *object.Object
	basis   *object.Object
	// named holds the read-only Params.Named maps of the scope's contexts,
	// shared by every property with the same first object and parameter
	// names (see contexts).
	named map[namedKey]map[string]sqldb.Value
}

// namedKey identifies one context's named bindings: the scope fixes the test
// run and the ranking basis, so the first object and the parameter names
// determine the map.
type namedKey struct {
	first *object.Object
	names [3]string
}

// scopeFromGraph builds the scope for a run of the analyzer's own dataset.
func (a *Analyzer) scopeFromGraph(run *model.TestRun) (*scope, error) {
	runObj, ok := a.graph.Runs[run]
	if !ok {
		return nil, fmt.Errorf("core: run not part of the analyzed dataset")
	}
	sc := &scope{regions: a.graph.OrderedRegions, calls: a.graph.OrderedCalls, run: runObj}
	var err error
	if sc.basis, err = findBasis(sc.regions); err != nil {
		return nil, err
	}
	return sc, nil
}

// scopeFromStore rebuilds the scope inside a store fetched back from the
// database: it locates the analyzer's program by name, the version by
// compilation timestamp, and the run by processor count, then walks the
// containment sets in order.
func (a *Analyzer) scopeFromStore(store *object.Store, version *model.Version, nope int) (*scope, error) {
	var prog *object.Object
	for _, p := range store.OfClass("Program") {
		if n, ok := p.Get("Name").(object.Str); ok && string(n) == a.graph.Dataset.Program {
			prog = p
			break
		}
	}
	if prog == nil {
		return nil, fmt.Errorf("core: program %s not in database", a.graph.Dataset.Program)
	}
	var verObj *object.Object
	if versions, ok := prog.Get("Versions").(*object.Set); ok {
		for _, v := range versions.Elems {
			vo, ok := v.(*object.Object)
			if !ok {
				continue
			}
			if c, ok := vo.Get("Compilation").(object.DateTime); ok && int64(c) == version.Compilation.Unix() {
				verObj = vo
				break
			}
		}
	}
	if verObj == nil {
		return nil, fmt.Errorf("core: program version not in database")
	}
	sc := &scope{}
	if runs, ok := verObj.Get("Runs").(*object.Set); ok {
		for _, r := range runs.Elems {
			ro, ok := r.(*object.Object)
			if !ok {
				continue
			}
			if n, ok := ro.Get("NoPe").(object.Int); ok && int(n) == nope {
				sc.run = ro
				break
			}
		}
	}
	if sc.run == nil {
		return nil, fmt.Errorf("core: no test run with %d PEs", nope)
	}
	if funcs, ok := verObj.Get("Functions").(*object.Set); ok {
		for _, f := range funcs.Elems {
			fo, ok := f.(*object.Object)
			if !ok {
				continue
			}
			if regions, ok := fo.Get("Regions").(*object.Set); ok {
				for _, r := range regions.Elems {
					if ro, ok := r.(*object.Object); ok {
						sc.regions = append(sc.regions, ro)
					}
				}
			}
		}
		for _, f := range funcs.Elems {
			fo, ok := f.(*object.Object)
			if !ok {
				continue
			}
			if calls, ok := fo.Get("Calls").(*object.Set); ok {
				for _, c := range calls.Elems {
					if co, ok := c.(*object.Object); ok {
						sc.calls = append(sc.calls, co)
					}
				}
			}
		}
	}
	var err error
	if sc.basis, err = findBasis(sc.regions); err != nil {
		return nil, err
	}
	return sc, nil
}

// contexts enumerates the instances of a property over a scope: properties
// with a Region first parameter get one instance per region; properties
// with a FunctionCall first parameter one per (optionally filtered) call
// site. The test run and ranking basis fill the remaining parameters.
func (a *Analyzer) contexts(sc *scope, prop string) ([]instCtx, error) {
	decl := a.world.PropDecls[prop]
	if decl == nil {
		return nil, fmt.Errorf("core: unknown property %s", prop)
	}
	sig := a.world.Props[prop]
	if len(sig.Params) != 3 {
		return nil, fmt.Errorf("core: property %s: unsupported parameter count %d", prop, len(sig.Params))
	}
	firstClass, ok := sig.Params[0].Type.(*sem.Class)
	if !ok {
		return nil, fmt.Errorf("core: property %s: first parameter is not class typed", prop)
	}

	names := [3]string{sig.Params[0].Name, sig.Params[1].Name, sig.Params[2].Name}
	mk := func(label string, first *object.Object) instCtx {
		key := namedKey{first: first, names: names}
		named, ok := sc.named[key]
		if !ok {
			named = map[string]sqldb.Value{
				names[0]: sqldb.NewInt(first.ID),
				names[1]: sqldb.NewInt(sc.run.ID),
				names[2]: sqldb.NewInt(sc.basis.ID),
			}
			if sc.named == nil {
				sc.named = make(map[namedKey]map[string]sqldb.Value, len(sc.regions)+len(sc.calls))
			}
			sc.named[key] = named
		}
		// Params itself stays per context: positional-marker dialects fill
		// its Positional slice per binding (sqlgen.FillPositional).
		return instCtx{
			label:  label,
			args:   []object.Value{first, sc.run, sc.basis},
			params: &sqldb.Params{Named: named},
		}
	}

	var out []instCtx
	switch firstClass.Name {
	case "Region":
		out = make([]instCtx, 0, len(sc.regions))
		for _, r := range sc.regions {
			name, _ := r.Get("Name").(object.Str)
			out = append(out, mk("region "+string(name), r))
		}
	case "FunctionCall":
		filter := a.callFilter[prop]
		out = make([]instCtx, 0, len(sc.calls))
		for _, c := range sc.calls {
			callee, _ := c.Get("Callee").(object.Str)
			if filter != "" && string(callee) != filter {
				continue
			}
			where := ""
			if reg, ok := c.Get("CallingReg").(*object.Object); ok {
				if n, ok := reg.Get("Name").(object.Str); ok {
					where = "@" + string(n)
				}
			}
			out = append(out, mk("call "+string(callee)+where, c))
		}
	default:
		return nil, fmt.Errorf("core: property %s: unsupported context class %s", prop, firstClass.Name)
	}
	return out, nil
}

// findBasis locates the whole-program region, the default ranking basis.
func findBasis(regions []*object.Object) (*object.Object, error) {
	for _, r := range regions {
		if k, ok := r.Get("Kind").(object.Str); ok && string(k) == string(model.KindProgram) {
			return r, nil
		}
	}
	return nil, fmt.Errorf("core: no program region to use as ranking basis")
}

// finish sorts, classifies, and wraps evaluated instances into a report.
func (a *Analyzer) finish(engine string, nope int, instances []Instance) *Report {
	rep := &Report{
		Program:   a.graph.Dataset.Program,
		NoPe:      nope,
		Engine:    engine,
		Threshold: a.threshold,
	}
	for _, in := range instances {
		switch {
		case in.Diagnostic != "":
			rep.Diagnostics = append(rep.Diagnostics, in)
		case in.Holds:
			rep.Instances = append(rep.Instances, in)
		default:
			rep.Skipped++
		}
	}
	sort.SliceStable(rep.Instances, func(i, j int) bool {
		a, b := rep.Instances[i], rep.Instances[j]
		if a.Severity != b.Severity {
			return a.Severity > b.Severity
		}
		if a.Property != b.Property {
			return a.Property < b.Property
		}
		return a.Context < b.Context
	})
	return rep
}

// AnalyzeObject evaluates all properties for the run using the ASL object
// interpreter over the in-memory graph.
func (a *Analyzer) AnalyzeObject(run *model.TestRun) (*Report, error) {
	return a.AnalyzeObjectCtx(context.Background(), run)
}

// objectEvaluator builds the object engine with the configured constant
// overrides applied.
func (a *Analyzer) objectEvaluator() *eval.Evaluator {
	ev := eval.New(a.world)
	for name, v := range a.consts {
		ev.SetConst(name, object.Float(v))
	}
	return ev
}

// evalItem is one (property × context) unit of work; items carry everything
// a worker needs so evaluation is free of shared mutable state.
type evalItem struct {
	prop string
	ctx  instCtx
	// sqlProp is set on the SQL engine paths only; it is shared by every
	// context of the property.
	sqlProp *compiledProp
}

// compiledProp is one property's compiled query: the compiler's column
// layout and the prepared handle, shared by every context of the property,
// of the SQL text (rendered in the analyzer's dialect, with constant
// overrides applied).
type compiledProp struct {
	cp *sqlgen.CompiledProperty
	// paramOrder is the rendered marker order of a positional-marker dialect;
	// nil for named-marker dialects (kojakdb, oracle7). When set, each
	// context's positional parameters are filled from its named bindings
	// before execution.
	paramOrder []string
	stmt       batchStmt
}

// runParam returns the name of a property's TestRun-typed parameter, or ""
// when the property has none to route on.
func (a *Analyzer) runParam(prop string) string {
	sig := a.world.Props[prop]
	if sig == nil {
		return ""
	}
	for _, p := range sig.Params {
		if cls, ok := p.Type.(*sem.Class); ok && cls.Name == "TestRun" {
			return p.Name
		}
	}
	return ""
}

// compileProp compiles a property for the SQL engines and prepares its
// query. Sharded executors (sqlgen.RoutedPreparer) are handed the property's
// run parameter so every execution routes to the shard owning its context's
// run. The executor runs a statement the engine refuses to prepare as text
// (see godbc), so a prepare error here is an executor failure, not a
// property diagnostic.
func (a *Analyzer) compileProp(prop string, preparer sqlgen.QueryPreparer) (*compiledProp, error) {
	cp, err := sqlgen.CompileProperty(a.world, prop)
	if err != nil {
		return nil, fmt.Errorf("core: compiling %s: %w", prop, err)
	}
	// The canonical dialect's rendering is cp.SQL itself — reuse it so the
	// default path pays no render and keeps the exact plan-cache text.
	sql := cp.SQL
	var paramOrder []string
	if a.dialect != "" && a.dialect != build.Kojakdb.Name {
		r, err := cp.Render(a.dialect)
		if err != nil {
			return nil, fmt.Errorf("core: rendering %s: %w", prop, err)
		}
		sql = r.SQL
		paramOrder = r.ParamOrder
	}
	sql, err = a.overrideConsts(sql, prop)
	if err != nil {
		return nil, err
	}
	// The run parameter is the routing key of sharded executors: every
	// execution goes to the shard owning the run bound under this name.
	var pq sqlgen.PreparedQuery
	runParam := a.runParam(prop)
	if rp, ok := preparer.(sqlgen.RoutedPreparer); ok && runParam != "" {
		pq, err = rp.PrepareRoutedQuery(sql, runParam)
	} else {
		pq, err = preparer.PrepareQuery(sql)
	}
	if err != nil {
		return nil, fmt.Errorf("core: preparing %s: %w", prop, err)
	}
	stmt, err := asBatchStmt(pq)
	if err != nil {
		pq.Close()
		return nil, err
	}
	return &compiledProp{cp: cp, paramOrder: paramOrder, stmt: stmt}, nil
}

// close releases the prepared handle.
func (c *compiledProp) close() { c.stmt.Close() }

// enumerate lists every property instance of a scope in the canonical
// (property order × context order) sequence. This sequence is the merge
// order of the parallel pipeline: instance i of the work list is written to
// slot i of the result, so the output is identical for any worker count —
// every engine must build its work list here. perProp, when non-nil, runs
// once per property to supply engine-specific item state (the compiled SQL);
// its result seeds every item of that property.
func (a *Analyzer) enumerate(sc *scope, perProp func(prop string) (evalItem, error)) ([]evalItem, error) {
	seeds := make([]evalItem, len(a.props))
	ctxs := make([][]instCtx, len(a.props))
	n := 0
	for i, prop := range a.props {
		var err error
		if perProp != nil {
			if seeds[i], err = perProp(prop); err != nil {
				return nil, err
			}
		}
		seeds[i].prop = prop
		if ctxs[i], err = a.contexts(sc, prop); err != nil {
			return nil, err
		}
		n += len(ctxs[i])
	}
	items := make([]evalItem, 0, n)
	for i, seed := range seeds {
		for _, ctx := range ctxs[i] {
			it := seed
			it.ctx = ctx
			items = append(items, it)
		}
	}
	return items, nil
}

// evalScope runs the object engine over a scope, fanning the instances out
// across the worker pool. The ASL evaluator caches constants and tracks call
// depth, so each worker interprets with its own Evaluator; the object graph
// itself is read-only during evaluation. Cancellation is observed between
// instances: a canceled scope returns ctx's error, never a partial result.
func (a *Analyzer) evalScope(ctx context.Context, sc *scope) ([]Instance, error) {
	items, err := a.enumerate(sc, nil)
	if err != nil {
		return nil, err
	}
	workers := a.Workers()
	evs := make([]*eval.Evaluator, min(workers, max(len(items), 1)))
	instances := make([]Instance, len(items))
	runPool(workers, len(items), func(worker, i int) {
		if ctx.Err() != nil {
			return
		}
		ev := evs[worker]
		if ev == nil {
			ev = a.objectEvaluator()
			evs[worker] = ev
		}
		it := items[i]
		in := Instance{Property: it.prop, Context: it.ctx.label}
		res, err := ev.EvalProperty(it.prop, it.ctx.args...)
		if err != nil {
			in.Diagnostic = err.Error()
		} else {
			in.Holds = res.Holds
			in.Confidence = res.Confidence
			in.Severity = res.Severity
		}
		instances[i] = in
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return instances, nil
}

// QueryExec is the query interface shared by the embedded engine and godbc
// connections.
type QueryExec = sqlgen.QueryExecutor

// AnalyzeSQL evaluates all properties for the run by executing the compiled
// SQL queries against a database that holds the dataset (see sqlgen.Load).
// This is the paper's preferred configuration: conditions and severity
// expressions run entirely inside the database.
//
// Each property's query is prepared once and executed with only the
// parameters changing — the PreparedStatement usage of the measured JDBC
// deployments. The contexts of each property ship as array-bound batches of
// up to BatchSize parameter sets: one round trip per batch instead of one
// per instance (see batch.go). The executor must prepare statements
// (sqlgen.QueryPreparer) whose handles run context-observing batches
// (sqlgen.ContextBatchPreparedQuery); every godbc executor does.
//
// Queries are issued from the worker pool when q is safe for concurrent use
// (godbc.Pool keeps one connection per in-flight query; godbc.Embedded
// queries the in-process engine, whose readers run concurrently). With a
// plain godbc.Conn the evaluation stays serial on the one socket.
func (a *Analyzer) AnalyzeSQL(run *model.TestRun, q QueryExec) (*Report, error) {
	return a.AnalyzeSQLCtx(context.Background(), run, q)
}

// AnalyzeSQLCtx is AnalyzeSQL observing a context. Cancellation propagates
// into every layer below — pool checkout, the wire round trip, per-binding
// batch progress, profiled vendor delays — and is additionally checked
// between chunks here. A canceled analysis returns the context's error,
// never a partial report.
func (a *Analyzer) AnalyzeSQLCtx(ctx context.Context, run *model.TestRun, q QueryExec) (*Report, error) {
	preparer, err := batchPreparer(q)
	if err != nil {
		return nil, err
	}
	sc, err := a.scopeFromGraph(run)
	if err != nil {
		return nil, err
	}
	var props []*compiledProp
	defer func() {
		for _, c := range props {
			c.close()
		}
	}()
	items, err := a.enumerate(sc, func(prop string) (evalItem, error) {
		c, err := a.compileProp(prop, preparer)
		if err != nil {
			return evalItem{}, err
		}
		props = append(props, c)
		return evalItem{sqlProp: c}, nil
	})
	if err != nil {
		return nil, err
	}
	instances := make([]Instance, len(items))
	chunks := a.batchChunks(items)
	fail := &analysisAbort{}
	runPool(a.queryWorkers(q), len(chunks), func(_, ci int) {
		ch := chunks[ci]
		ctxs := make([]instCtx, ch.n)
		for j := 0; j < ch.n; j++ {
			ctxs[j] = items[ch.start+j].ctx
		}
		it := items[ch.start]
		a.evalSQLCtxs(ctx, it.sqlProp, it.prop, ctxs, instances[ch.start:ch.start+ch.n], fail)
	})
	// A lost shard aborts the analysis: a report missing one shard's answers
	// is not a smaller report, it is a wrong one. Cancellation aborts the
	// same way (fatalExecErr matches context errors); prefer reporting the
	// context's own error so callers can errors.Is against it.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := fail.Err(); err != nil {
		return nil, err
	}
	return a.finish("sql", run.NoPe, instances), nil
}

// overrideConsts applies constant overrides to a property's rendered SQL.
// The compiler inlines constants as their literal SQL spelling, so an
// override is a textual substitution of that spelling; number spellings are
// dialect-invariant, so the substitution works on any dialect's rendering.
// Only literal-valued constants (the canonical spec's thresholds) can be
// overridden on the SQL path.
func (a *Analyzer) overrideConsts(sql, prop string) (string, error) {
	for name, v := range a.consts {
		decl, ok := a.world.ConstDecls[name]
		if !ok {
			return "", fmt.Errorf("core: unknown constant %s", name)
		}
		var old string
		switch lit := decl.Value.(type) {
		case *ast.FloatLit:
			old = strconv.FormatFloat(lit.Value, 'g', -1, 64)
		case *ast.IntLit:
			old = strconv.FormatInt(lit.Value, 10)
		default:
			return "", fmt.Errorf("core: constant %s is not a literal; cannot override it in the SQL engine", name)
		}
		if strings.Contains(sql, old) {
			sql = strings.ReplaceAll(sql, old, strconv.FormatFloat(v, 'g', -1, 64))
		}
	}
	_ = prop
	return sql, nil
}

// interpretRow folds the single result row of a compiled property query into
// an Outcome, applying the condition/guard semantics of the ASL evaluator.
func interpretRow(cp *sqlgen.CompiledProperty, set *sqldb.ResultSet) Outcome {
	var out Outcome
	if len(set.Rows) != 1 {
		out.Diagnostic = fmt.Sprintf("compiled query returned %d rows", len(set.Rows))
		return out
	}
	row := set.Rows[0]
	nc := len(cp.CondLabels)
	nf := len(cp.ConfGuards)
	if len(row) != nc+nf+len(cp.SevGuards) {
		out.Diagnostic = "compiled query returned wrong column count"
		return out
	}
	condTrue := make(map[string]bool)
	for i := 0; i < nc; i++ {
		v := row[i]
		if v.IsNull() {
			out.Diagnostic = "condition not evaluable (NULL)"
			return out
		}
		if !v.IsBool() {
			out.Diagnostic = "condition column is not boolean"
			return out
		}
		if v.Bool() {
			out.Holds = true
			if cp.CondLabels[i] != "" {
				condTrue[cp.CondLabels[i]] = true
			}
		}
	}
	if !out.Holds {
		return out
	}
	fold := func(guards []string, base int) (float64, string) {
		best := 0.0
		for i, g := range guards {
			if g != "" && !condTrue[g] {
				continue
			}
			v := row[base+i]
			if v.IsNull() {
				return 0, "guarded expression not evaluable (NULL)"
			}
			if !v.IsNumeric() {
				return 0, "guarded expression is not numeric"
			}
			if f := v.Float(); f > best {
				best = f
			}
		}
		return best, ""
	}
	var diag string
	if out.Confidence, diag = fold(cp.ConfGuards, nc); diag != "" {
		return Outcome{Diagnostic: diag}
	}
	if out.Severity, diag = fold(cp.SevGuards, nc+nf); diag != "" {
		return Outcome{Diagnostic: diag}
	}
	return out
}

// AnalyzeClientSide fetches the entire dataset out of the database first and
// then evaluates the properties with the object interpreter — the slow
// configuration of the paper's Section 5 ("first accessing the data
// components and evaluating the expressions in the analysis tool").
func (a *Analyzer) AnalyzeClientSide(run *model.TestRun, q QueryExec) (*Report, error) {
	return a.AnalyzeClientSideCtx(context.Background(), run, q)
}

// versionOf returns the dataset version containing the run.
func (a *Analyzer) versionOf(run *model.TestRun) *model.Version {
	for _, v := range a.graph.Dataset.Versions {
		for _, r := range v.Runs {
			if r == run {
				return v
			}
		}
	}
	return nil
}
