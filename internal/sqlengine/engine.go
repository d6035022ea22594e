package sqlengine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/relation"
	"repro/internal/telemetry"
)

// met holds the package's metric handles, resolved once against the
// default registry so per-query updates are single atomic adds. Hot loops
// accumulate locally and flush one Add per query (see runScan).
var met = struct {
	queriesParsed      *telemetry.Counter
	queriesExecuted    *telemetry.Counter
	rowsScanned        *telemetry.Counter
	rowsEmitted        *telemetry.Counter
	distinctDrops      *telemetry.Counter
	planCacheHits      *telemetry.Counter
	planCacheMisses    *telemetry.Counter
	planCacheEvictions *telemetry.Counter
	indexBuilds        *telemetry.Counter
	indexHits          *telemetry.Counter
	rangeJoins         *telemetry.Counter
	batchScans         *telemetry.Counter
	batchRows          *telemetry.Counter
	vectorBuilds       *telemetry.Counter
	tableSwaps         *telemetry.Counter
	parseNS            *telemetry.Histogram
	execNS             *telemetry.Histogram
	batchSelectivity   *telemetry.Histogram
}{
	queriesParsed:      telemetry.Default().Counter("sqlengine.queries_parsed"),
	queriesExecuted:    telemetry.Default().Counter("sqlengine.queries_executed"),
	rowsScanned:        telemetry.Default().Counter("sqlengine.rows_scanned"),
	rowsEmitted:        telemetry.Default().Counter("sqlengine.rows_emitted"),
	distinctDrops:      telemetry.Default().Counter("sqlengine.distinct_drops"),
	planCacheHits:      telemetry.Default().Counter("sqlengine.plan_cache_hits"),
	planCacheMisses:    telemetry.Default().Counter("sqlengine.plan_cache_misses"),
	planCacheEvictions: telemetry.Default().Counter("sqlengine.plan_cache_evictions"),
	indexBuilds:        telemetry.Default().Counter("sqlengine.index_builds"),
	indexHits:          telemetry.Default().Counter("sqlengine.index_hits"),
	rangeJoins:         telemetry.Default().Counter("sqlengine.range_joins"),
	batchScans:         telemetry.Default().Counter("sqlengine.batch_scans"),
	batchRows:          telemetry.Default().Counter("sqlengine.batch_rows"),
	vectorBuilds:       telemetry.Default().Counter("sqlengine.vector_builds"),
	tableSwaps:         telemetry.Default().Counter("sqlengine.table_swaps"),
	parseNS:            telemetry.Default().LatencyHistogram("sqlengine.parse_ns"),
	execNS:             telemetry.Default().LatencyHistogram("sqlengine.exec_ns"),
	batchSelectivity:   telemetry.Default().Histogram("sqlengine.batch_selectivity", selectivityBuckets),
}

// selectivityBuckets are the percent buckets of the batch selectivity
// histogram: the share of a side's rows surviving its selection program.
var selectivityBuckets = []int64{0, 1, 2, 5, 10, 25, 50, 75, 90, 100}

// registry is one immutable published view of the engine's registered
// tables. Register never mutates a registry in place — it copies, swaps in
// the new map and publishes the whole view with one atomic store — so any
// goroutine that loaded a registry can keep reading it for the rest of its
// query without synchronization.
type registry struct {
	tables map[string]*relation.Table
}

// lookup resolves a (case-insensitive) table name in this view.
func (r *registry) lookup(name string) (*relation.Table, bool) {
	t, ok := r.tables[strings.ToLower(name)]
	return t, ok
}

// Engine is an in-memory SQL engine over registered relation.Tables. It is
// safe for fully concurrent use, including Register during live query
// traffic: registrations publish a new immutable snapshot of the table map
// through an atomic pointer, each query resolves its FROM tables against
// the single snapshot it loaded at entry, and in-flight queries finish
// against the view they started with while new queries see the new rows.
// Cached artifacts can never serve a half-replaced registration — a plan
// cache hit is revalidated against the query's snapshot (table pointers
// must match exactly) and the per-table cache keys its entries to the
// table pointer pinned in the plan.
type Engine struct {
	reg    atomic.Pointer[registry]
	regMu  sync.Mutex // serializes writers (Register, Swap); readers never take it
	plans  *planCache
	caches *tableCaches

	// batchOff forces every query onto the row-at-a-time path. It exists
	// for the batch-vs-fallback differential suite and benchmarks; the
	// flag must be set before the engine serves queries.
	batchOff bool
}

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	e := &Engine{
		plans:  newPlanCache(defaultPlanCacheCap),
		caches: newTableCaches(),
	}
	e.reg.Store(&registry{tables: map[string]*relation.Table{}})
	return e
}

// snapshot returns the current published registry view. Every query loads
// exactly one snapshot at entry and resolves all table reads through it.
func (e *Engine) snapshot() *registry {
	return e.reg.Load()
}

// Register adds (or replaces) a table under its own name, concurrently
// safe with in-flight queries: it builds a copy of the table map and
// publishes it as a new immutable snapshot, so a query that already loaded
// the previous view keeps reading the previous rows and a query that
// starts afterwards sees only the new ones. The eager cache eviction below
// reclaims memory held by the replaced registration; correctness does not
// depend on it — every cache read revalidates against the reader's
// snapshot (plan cache) or the plan's pinned table pointer (per-table
// cache), so a stale entry raced back in after eviction is detected and
// rebuilt rather than served.
func (e *Engine) Register(t *relation.Table) {
	name := strings.ToLower(t.Name)
	e.regMu.Lock()
	defer e.regMu.Unlock()
	e.publishLocked(name, t)
}

// publishLocked installs next under key as a fresh immutable registry
// snapshot and drops the key's cached plans and per-table artifacts. regMu
// must be held.
func (e *Engine) publishLocked(key string, next *relation.Table) {
	old := e.reg.Load()
	m := make(map[string]*relation.Table, len(old.tables)+1)
	for k, v := range old.tables {
		m[k] = v
	}
	m[key] = next
	e.reg.Store(&registry{tables: m})
	e.plans.invalidate(key)
	e.caches.invalidate(key)
}

// Swap publishes next in place of prev, failing unless prev is exactly the
// table currently registered under next's name. It is the publish half of a
// compute-then-publish append: the caller extends the table
// (relation.Table.Extend is copy-on-write) and derives its artifacts
// (profile, metadata) off the engine first, then swaps the registration in
// atomically — a failure while deriving leaves the engine untouched, so
// engine state and caller state never diverge. Only the swapped table's
// plans and per-table artifacts are invalidated; every other registration
// keeps its warm caches. The snapshot semantics are those of Register:
// readers pinned to the previous view keep it.
func (e *Engine) Swap(prev, next *relation.Table) error {
	key := strings.ToLower(next.Name)
	e.regMu.Lock()
	defer e.regMu.Unlock()
	cur, ok := e.reg.Load().tables[key]
	if !ok {
		return fmt.Errorf("sqlengine: swap of unregistered table %q", next.Name)
	}
	if cur != prev {
		return fmt.Errorf("sqlengine: swap of table %q: the registration changed since the caller read it", next.Name)
	}
	e.publishLocked(key, next)
	met.tableSwaps.Inc()
	return nil
}

// Table returns a registered table by name, from the current snapshot.
func (e *Engine) Table(name string) (*relation.Table, bool) {
	return e.snapshot().lookup(name)
}

// timedParse parses a SELECT statement under the parse metrics.
func timedParse(sql string) (*SelectStmt, error) {
	tm := met.parseNS.Time()
	stmt, err := Parse(sql)
	tm.Stop()
	met.queriesParsed.Inc()
	return stmt, err
}

// Query executes a SELECT statement, returning the result as a fresh table
// named "result". Statements are resolved through the plan cache: repeated
// SQL texts skip parsing and predicate compilation entirely.
func (e *Engine) Query(sql string) (*relation.Table, error) {
	p, err := e.prepare(sql)
	if err != nil {
		return nil, err
	}
	return e.run(p)
}

// bind resolves the FROM tables against one registry snapshot into the
// expression binding shared by the row, batch and aggregate
// paths. Taking the snapshot as a parameter (instead of reading the live
// pointer per table) is what makes a multi-table bind atomic with respect
// to concurrent Register calls.
func bind(snap *registry, stmt *SelectStmt) (*binding, []*relation.Table, error) {
	b := &binding{}
	var sources []*relation.Table
	offset := 0
	for _, tr := range stmt.From {
		t, ok := snap.lookup(tr.Table)
		if !ok {
			return nil, nil, fmt.Errorf("sqlengine: unknown table %q", tr.Table)
		}
		sources = append(sources, t)
		b.aliases = append(b.aliases, strings.ToLower(tr.Alias))
		b.schemas = append(b.schemas, t.Schema)
		b.offsets = append(b.offsets, offset)
		offset += t.NumCols()
	}
	if len(b.aliases) == 2 && b.aliases[0] == b.aliases[1] {
		return nil, nil, fmt.Errorf("sqlengine: duplicate table alias %q", b.aliases[0])
	}
	return b, sources, nil
}

// run executes a prepared plan.
func (e *Engine) run(p *plan) (*relation.Table, error) {
	met.queriesExecuted.Inc()
	tm := met.execNS.Time()
	defer tm.Stop()

	// Aggregate queries (GROUP BY or aggregate functions) take the
	// grouping path.
	if p.agg {
		return e.executeAggregate(p)
	}

	// Supported shapes run on the columnar batch path; runBatch declines
	// (and the row path below takes over) only when a registered table is
	// not vectorizable.
	if p.batch != nil && !e.batchOff {
		if res, ok := e.runBatch(p); ok {
			return res, nil
		}
	}

	stmt, projs, names, orderEvals := p.stmt, p.projs, p.names, p.orderEvals

	// Plan and consume the row stream. Without ORDER BY the projection
	// (plus DISTINCT and LIMIT) streams directly out of the join — the
	// combined rows are never materialized. With ORDER BY the source rows
	// must survive until sorting, so they are collected first.
	width := len(projs)
	const chunkRows = 1024
	var arena []relation.Value
	newRow := func() relation.Row {
		if len(arena) < width {
			arena = make([]relation.Value, chunkRows*width)
		}
		pr := relation.Row(arena[:width:width])
		arena = arena[width:]
		return pr
	}

	var out []relation.Row
	var rows [][]relation.Value // combined source rows (ORDER BY path only)

	distinctDrops := 0
	if len(orderEvals) == 0 {
		var seen map[string]struct{}
		if stmt.Distinct {
			seen = map[string]struct{}{}
		}
		var keyBuf []byte // reused dedup-key scratch; allocation only on insert
		sink := func(combined []relation.Value) error {
			pr := newRow()
			for i, ev := range projs {
				v, err := ev.eval(combined)
				if err != nil {
					return err
				}
				pr[i] = v
			}
			if seen != nil {
				keyBuf = appendRowKey(keyBuf[:0], pr)
				if _, dup := seen[string(keyBuf)]; dup {
					distinctDrops++
					return nil
				}
				seen[string(keyBuf)] = struct{}{}
			}
			out = append(out, pr)
			if stmt.Limit >= 0 && len(out) >= stmt.Limit {
				return errLimitReached
			}
			return nil
		}
		if err := e.planRows(p, sink); err != nil {
			return nil, err
		}
	} else {
		// Collect combined rows, then project.
		var srcArena []relation.Value
		total := totalWidth(p.b)
		sink := func(combined []relation.Value) error {
			if len(srcArena) < total {
				srcArena = make([]relation.Value, chunkRows*total)
			}
			row := srcArena[:total:total]
			srcArena = srcArena[total:]
			copy(row, combined)
			rows = append(rows, row)
			return nil
		}
		if err := e.planRows(p, sink); err != nil {
			return nil, err
		}
		out = make([]relation.Row, 0, len(rows))
		for _, row := range rows {
			pr := newRow()
			for i, ev := range projs {
				v, err := ev.eval(row)
				if err != nil {
					return nil, err
				}
				pr[i] = v
			}
			out = append(out, pr)
		}
		if stmt.Distinct {
			seen := make(map[string]struct{}, len(out))
			dedup := out[:0]
			var keyBuf []byte
			for _, row := range out {
				keyBuf = appendRowKey(keyBuf[:0], row)
				if _, ok := seen[string(keyBuf)]; ok {
					distinctDrops++
					continue
				}
				seen[string(keyBuf)] = struct{}{}
				dedup = append(dedup, row)
			}
			out = dedup
		}
	}
	met.distinctDrops.Add(int64(distinctDrops))

	// ORDER BY: evaluated over the *source* rows is not possible after
	// projection, so we sort (projected, source) pairs together when
	// ordering expressions exist.
	if len(orderEvals) > 0 {
		type pair struct {
			proj relation.Row
			keys []relation.Value
		}
		pairs := make([]pair, len(out))
		if stmt.Distinct {
			// After DISTINCT the source rows no longer correspond 1:1;
			// order keys must be computable from the projection. We
			// re-evaluate against projections by name when possible.
			for i, row := range out {
				pairs[i] = pair{proj: row, keys: orderKeysFromProjection(stmt, names, row)}
			}
		} else {
			for i, row := range out {
				keys := make([]relation.Value, len(orderEvals))
				for j, ev := range orderEvals {
					v, err := ev.eval(rows[i])
					if err != nil {
						return nil, err
					}
					keys[j] = v
				}
				pairs[i] = pair{proj: row, keys: keys}
			}
		}
		sort.SliceStable(pairs, func(a, bI int) bool {
			for j := range pairs[a].keys {
				c, err := pairs[a].keys[j].Compare(pairs[bI].keys[j])
				if err != nil {
					c = strings.Compare(pairs[a].keys[j].Format(), pairs[bI].keys[j].Format())
				}
				if c != 0 {
					if stmt.OrderBy[j].Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		for i := range pairs {
			out[i] = pairs[i].proj
		}
	}

	// LIMIT.
	if stmt.Limit >= 0 && len(out) > stmt.Limit {
		out = out[:stmt.Limit]
	}

	return finishResult(p, out), nil
}

// finishResult assembles the output table from projected rows. Both the
// row path and the batch path finish here, so the result schema — static
// kind guesses refined by observed values — is derived identically.
func finishResult(p *plan, out []relation.Row) *relation.Table {
	projs, names := p.projs, p.names
	schema := make(relation.Schema, len(projs))
	for i := range projs {
		k := projs[i].kind
		if k == relation.KindNull {
			for _, row := range out {
				k = relation.UnifyKind(k, row[i].Kind())
			}
			if k == relation.KindNull {
				k = relation.KindString
			}
		}
		schema[i] = relation.Column{Name: names[i], Kind: k}
	}
	met.rowsEmitted.Add(int64(len(out)))
	res := relation.NewTable("result", schema)
	res.Rows = out
	return res
}

// appendRowKey appends the DISTINCT dedup key of a projected row: each
// value's hash key terminated by a 0x1f separator. Every dedup site (both
// row-path sinks and the batch emitter) builds keys through this helper in
// a reused scratch buffer, so the sets they build are interchangeable.
func appendRowKey(buf []byte, row []relation.Value) []byte {
	for _, v := range row {
		buf = v.AppendHashKey(buf)
		buf = append(buf, 0x1f)
	}
	return buf
}

// orderKeysFromProjection resolves ORDER BY items against output column
// names after DISTINCT. Unresolvable items order as NULL.
func orderKeysFromProjection(stmt *SelectStmt, names []string, row relation.Row) []relation.Value {
	keys := make([]relation.Value, len(stmt.OrderBy))
	for j, o := range stmt.OrderBy {
		keys[j] = relation.Null
		if c, ok := o.Expr.(*ColumnRef); ok {
			for i, n := range names {
				if strings.EqualFold(n, c.Name) {
					keys[j] = row[i]
					break
				}
			}
		}
	}
	return keys
}

// compileProjections expands SELECT items (including *) into compiled
// evaluators plus output column names.
func compileProjections(stmt *SelectStmt, b *binding) ([]*evaluator, []string, error) {
	var projs []*evaluator
	var names []string
	for _, item := range stmt.Items {
		if item.Star {
			for ti := range b.schemas {
				for ci, col := range b.schemas[ti] {
					idx := b.offsets[ti] + ci
					kind := col.Kind
					i := idx
					projs = append(projs, &evaluator{
						eval: func(row []relation.Value) (relation.Value, error) { return row[i], nil },
						kind: kind,
					})
					names = append(names, col.Name)
				}
			}
			continue
		}
		ev, err := compile(item.Expr, b)
		if err != nil {
			return nil, nil, err
		}
		projs = append(projs, ev)
		names = append(names, projectionName(item, len(names)))
	}
	return projs, names, nil
}

// projectionName derives the output column name for a projection.
func projectionName(item SelectItem, pos int) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch e := item.Expr.(type) {
	case *ColumnRef:
		return e.Name
	case *FuncCall:
		return strings.ToLower(e.Name)
	default:
		return fmt.Sprintf("col%d", pos+1)
	}
}

// rowSink consumes one combined row. The slice is reused between calls;
// sinks that retain data must copy. Returning errLimitReached stops the
// stream without error.
type rowSink func(combined []relation.Value) error

// planRows streams the combined rows of the FROM/WHERE part into sink.
func (e *Engine) planRows(p *plan, sink rowSink) error {
	var err error
	switch len(p.sources) {
	case 1:
		err = e.runScan(p, sink)
	case 2:
		err = e.runJoin(p, sink)
	default:
		err = fmt.Errorf("sqlengine: unsupported FROM arity %d", len(p.sources))
	}
	//lint:ignore err-limit-propagate planRows is the blessed conversion point: the limit sentinel stops scan/join early and is success here
	if err == errLimitReached {
		return nil
	}
	return err
}

// runScan filters a single table. Scanned rows are accumulated locally
// and flushed in one counter add — also on the early-exit paths, so a
// LIMIT short-circuit is visible in sqlengine.rows_scanned.
func (e *Engine) runScan(p *plan, sink rowSink) error {
	scanned := 0
	defer func() { met.rowsScanned.Add(int64(scanned)) }()
	filter := p.scanFilter
	for _, row := range p.sources[0].Rows {
		scanned++
		if filter != nil {
			v, err := filter.eval(row)
			if err != nil {
				return err
			}
			ok, err := truthy(v)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
		}
		if err := sink(row); err != nil {
			return err
		}
	}
	return nil
}

// sideOf classifies which FROM sides an expression's column references
// touch, as a bitmask (bit 0 = left, bit 1 = right). Errors propagate nil
// classification via the bool.
func sideOf(e Expr, b *binding) (int, bool) {
	switch n := e.(type) {
	case *Literal:
		return 0, true
	case *ColumnRef:
		idx, _, err := b.resolve(n)
		if err != nil {
			return 0, false
		}
		if idx < b.offsets[1] {
			return 1, true
		}
		return 2, true
	case *IsNullExpr:
		return sideOf(n.Expr, b)
	case *FuncCall:
		mask := 0
		for _, a := range n.Args {
			m, ok := sideOf(a, b)
			if !ok {
				return 0, false
			}
			mask |= m
		}
		return mask, true
	case *BinaryExpr:
		lm, ok := sideOf(n.Left, b)
		if !ok {
			return 0, false
		}
		rm, ok := sideOf(n.Right, b)
		if !ok {
			return 0, false
		}
		return lm | rm, true
	default:
		return 0, false
	}
}

// equiJoinCols extracts (leftIdx, rightIdx) when e is `a = b` with one
// column per side.
func equiJoinCols(e Expr, b *binding) (int, int, bool) {
	be, ok := e.(*BinaryExpr)
	if !ok || be.Op != "=" {
		return 0, 0, false
	}
	lc, ok1 := be.Left.(*ColumnRef)
	rc, ok2 := be.Right.(*ColumnRef)
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	li, _, err1 := b.resolve(lc)
	ri, _, err2 := b.resolve(rc)
	if err1 != nil || err2 != nil {
		return 0, 0, false
	}
	boundary := b.offsets[1]
	switch {
	case li < boundary && ri >= boundary:
		return li, ri - boundary, true
	case ri < boundary && li >= boundary:
		return ri, li - boundary, true
	default:
		return 0, 0, false
	}
}

// errLimitReached signals early termination from the join emit path.
var errLimitReached = fmt.Errorf("sqlengine: limit reached")

// filterSide applies one side's precompiled pushed-down predicate. The
// predicate is compiled against the full binding, so each row is padded
// into the combined layout at the side's offset; the off-side cells are
// explicitly NULL so a predicate that (mis)reads across the boundary sees
// SQL NULL semantics rather than arbitrary cell values.
func filterSide(rows []relation.Row, ev *evaluator, total, offset, width int) ([]relation.Row, error) {
	if ev == nil {
		return rows, nil
	}
	combined := make([]relation.Value, total)
	for i := range combined {
		combined[i] = relation.Null
	}
	var out []relation.Row
	for _, r := range rows {
		copy(combined[offset:offset+width], r)
		v, err := ev.eval(combined)
		if err != nil {
			return nil, err
		}
		ok, err := truthy(v)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, nil
}

// conjoin folds conjuncts back into an AND tree.
func conjoin(preds []Expr) Expr {
	e := preds[0]
	for _, p := range preds[1:] {
		e = &BinaryExpr{Op: "AND", Left: e, Right: p}
	}
	return e
}
