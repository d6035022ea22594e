package sqlengine

import (
	"strings"

	"repro/internal/relation"
)

// plan is a fully prepared statement: the parsed AST, the resolved FROM
// binding, and every compiled artifact whose construction does not depend
// on the rows being scanned — projections, ORDER BY evaluators, pushed-down
// side filters and the join strategy. Plans are immutable once built and
// safe for concurrent execution; all per-run state (combined buffers,
// DISTINCT sets, projection arenas) lives in the executor.
type plan struct {
	stmt      *SelectStmt
	b         *binding
	sources   []*relation.Table
	tableKeys []string // lowercased FROM table names, for cache invalidation
	agg       bool     // grouping path; its projections compile per run

	projs      []*evaluator
	names      []string
	orderEvals []*evaluator

	scanFilter *evaluator // single-table WHERE (nil when absent)
	join       *joinPlan  // binary FROM (nil otherwise)
	batch      *batchPlan // columnar program (nil: row-at-a-time fallback)
}

// references reports whether the plan reads the named (lowercased) table.
func (p *plan) references(name string) bool {
	for _, k := range p.tableKeys {
		if k == name {
			return true
		}
	}
	return false
}

// validFor reports whether the plan was compiled against exactly the
// tables snap registers: every FROM source must still be the same
// *relation.Table pointer. This is the plan cache's correctness gate under
// concurrent Register — a cached plan may have been built against a
// replaced registration (or raced back into the cache after eviction), and
// revalidating at lookup guarantees a stale plan can never serve rows the
// reader's snapshot does not contain.
func (p *plan) validFor(snap *registry) bool {
	for i, k := range p.tableKeys {
		if t, ok := snap.tables[k]; !ok || t != p.sources[i] {
			return false
		}
	}
	return true
}

// colCmp is one cross-side column comparison `left[li] op right[ri]`,
// checked directly on the raw side rows — no combined-row copy and no
// evaluator indirection. compareValues gives it exactly the semantics the
// compiled predicate would have (a NULL operand is false).
type colCmp struct {
	op string
	li int // combined-row index on the left side
	ri int // right-local column index
}

// joinPlan is the compiled strategy for a binary join: single-side
// conjuncts become pushed-down filters, cross-side equalities drive a hash
// join over a shared index, a cross-side order comparison can drive a
// sort-based range join, and whatever remains is the residual predicate
// evaluated over the combined row.
type joinPlan struct {
	nL, nR      int
	leftFilter  *evaluator // pushed-down conjuncts (nil when none)
	rightFilter *evaluator
	hashL       []int    // cross-side equality columns (combined left index)
	hashR       []int    // … right-local index
	cmps        []colCmp // cross-side column comparisons, incl. the driver
	residual    *evaluator
	driver      int // cmps index driving the range join; -1 when none

	// Raw conjunct classification, kept for the batch compiler: the
	// vectorizer re-types each side's conjuncts against the column
	// vectors instead of reusing the compiled evaluators.
	leftExprs     []Expr
	rightExprs    []Expr
	residualExprs []Expr
}

// prepare resolves SQL text through the plan cache: a hit that survives
// snapshot revalidation skips parsing and compilation entirely, a miss (or
// a hit compiled against a replaced registration) parses, plans against
// the query's snapshot and caches. Parse and bind errors are not cached —
// a table registered later may make the same text valid. The snapshot is
// loaded once here and pinned into the plan's sources, so everything the
// execution reads afterwards is consistent with one registry view.
func (e *Engine) prepare(sql string) (*plan, error) {
	snap := e.snapshot()
	if p, ok := e.plans.get(sql); ok && p.validFor(snap) {
		met.planCacheHits.Inc()
		return p, nil
	}
	met.planCacheMisses.Inc()
	stmt, err := timedParse(sql)
	if err != nil {
		return nil, err
	}
	p, err := e.buildPlan(snap, stmt)
	if err != nil {
		return nil, err
	}
	e.plans.put(sql, p)
	return p, nil
}

// buildPlan binds and compiles a statement against one registry snapshot
// into an immutable plan.
func (e *Engine) buildPlan(snap *registry, stmt *SelectStmt) (*plan, error) {
	b, sources, err := bind(snap, stmt)
	if err != nil {
		return nil, err
	}
	p := &plan{stmt: stmt, b: b, sources: sources}
	for _, tr := range stmt.From {
		p.tableKeys = append(p.tableKeys, strings.ToLower(tr.Table))
	}
	p.agg = isAggregateQuery(stmt)
	if !p.agg {
		// Aggregate projections contain aggregate calls the scalar
		// compiler rejects; the grouping path compiles its own.
		if p.projs, p.names, err = compileProjections(stmt, b); err != nil {
			return nil, err
		}
		for _, o := range stmt.OrderBy {
			ev, err := compile(o.Expr, b)
			if err != nil {
				return nil, err
			}
			p.orderEvals = append(p.orderEvals, ev)
		}
	}
	switch len(sources) {
	case 1:
		if stmt.Where != nil {
			if p.scanFilter, err = compile(stmt.Where, b); err != nil {
				return nil, err
			}
		}
	case 2:
		if p.join, err = buildJoinPlan(stmt, b, sources); err != nil {
			return nil, err
		}
	}
	p.batch = compileBatch(stmt, b, sources, p)
	return p, nil
}

// buildJoinPlan classifies the WHERE conjuncts of a binary join once, at
// plan time: equality conjuncts across sides feed the hash join, other
// single-column cross comparisons become direct colCmp checks (the first
// order comparison among them may drive the range join), single-side
// conjuncts compile into pushed-down filters, and the rest conjoins into
// the residual predicate.
func buildJoinPlan(stmt *SelectStmt, b *binding, sources []*relation.Table) (*joinPlan, error) {
	jp := &joinPlan{nL: sources[0].NumCols(), nR: sources[1].NumCols(), driver: -1}
	var leftPred, rightPred, crossPred []Expr
	for _, c := range conjuncts(stmt.Where) {
		if li, ri, ok := equiJoinCols(c, b); ok {
			jp.hashL = append(jp.hashL, li)
			jp.hashR = append(jp.hashR, ri)
			continue
		}
		mask, ok := sideOf(c, b)
		if !ok {
			// Let compilation produce the real error.
			if _, err := compile(c, b); err != nil {
				return nil, err
			}
			crossPred = append(crossPred, c)
			continue
		}
		switch mask {
		case 0, 1:
			leftPred = append(leftPred, c)
		case 2:
			rightPred = append(rightPred, c)
		default:
			crossPred = append(crossPred, c)
		}
	}

	var residual []Expr
	for _, c := range crossPred {
		if cc, ok := colCmpJoin(c, b); ok {
			jp.cmps = append(jp.cmps, cc)
			continue
		}
		residual = append(residual, c)
	}
	jp.leftExprs, jp.rightExprs, jp.residualExprs = leftPred, rightPred, residual

	var err error
	if len(leftPred) > 0 {
		if jp.leftFilter, err = compile(conjoin(leftPred), b); err != nil {
			return nil, err
		}
	}
	if len(rightPred) > 0 {
		if jp.rightFilter, err = compile(conjoin(rightPred), b); err != nil {
			return nil, err
		}
	}
	if len(residual) > 0 {
		if jp.residual, err = compile(conjoin(residual), b); err != nil {
			return nil, err
		}
	}

	// Range driver: only worth it when no equality conjunct can drive a
	// hash join. Pick the first order comparison whose column kinds sort
	// consistently under Value.Compare.
	if len(jp.hashL) == 0 {
		for i, cc := range jp.cmps {
			if !orderOp(cc.op) {
				continue
			}
			lk := sources[0].Schema[cc.li].Kind
			rk := sources[1].Schema[cc.ri].Kind
			if sortableKinds(lk, rk) {
				jp.driver = i
				break
			}
		}
	}
	return jp, nil
}

// colCmpJoin extracts a direct column comparison when e is `a OP b` with
// one plain column per side. Comparisons written right-to-left are
// mirrored so the left operand always comes from the left side.
func colCmpJoin(e Expr, b *binding) (colCmp, bool) {
	be, ok := e.(*BinaryExpr)
	if !ok {
		return colCmp{}, false
	}
	switch be.Op {
	case "=", "<>", "<", ">", "<=", ">=":
	default:
		return colCmp{}, false
	}
	lc, ok1 := be.Left.(*ColumnRef)
	rc, ok2 := be.Right.(*ColumnRef)
	if !ok1 || !ok2 {
		return colCmp{}, false
	}
	li, _, err1 := b.resolve(lc)
	ri, _, err2 := b.resolve(rc)
	if err1 != nil || err2 != nil {
		return colCmp{}, false
	}
	boundary := b.offsets[1]
	switch {
	case li < boundary && ri >= boundary:
		return colCmp{op: be.Op, li: li, ri: ri - boundary}, true
	case ri < boundary && li >= boundary:
		return colCmp{op: mirrorOp(be.Op), li: ri, ri: li - boundary}, true
	default:
		return colCmp{}, false
	}
}

// mirrorOp swaps the operand order of a comparison: b OP a == a mirror(OP) b.
func mirrorOp(op string) string {
	switch op {
	case "<":
		return ">"
	case ">":
		return "<"
	case "<=":
		return ">="
	case ">=":
		return "<="
	default:
		return op // = and <> are symmetric
	}
}

// orderOp reports whether op is an ordering comparison.
func orderOp(op string) bool {
	switch op {
	case "<", ">", "<=", ">=":
		return true
	default:
		return false
	}
}

// sortableKinds reports whether two column kinds compare under a total
// order usable by a sorted index: the same ordered kind, or both numeric
// (int and float compare numerically).
func sortableKinds(a, b relation.Kind) bool {
	if a.Numeric() && b.Numeric() {
		return true
	}
	return a == b && a.Ordered()
}

// runJoin executes a prepared binary join: pushed-down filters first, then
// the hash, range or nested-loop pairing, with direct column comparisons
// checked on the raw side rows before any combined-row copy is paid.
func (e *Engine) runJoin(p *plan, sink rowSink) error {
	jp := p.join
	left, right := p.sources[0], p.sources[1]
	nL, total := jp.nL, jp.nL+jp.nR
	// Both join inputs are read in full (side filters and the index build
	// consume their tables up front), so account them at entry.
	met.rowsScanned.Add(int64(len(left.Rows) + len(right.Rows)))

	leftRows, err := filterSide(left.Rows, jp.leftFilter, total, 0, jp.nL)
	if err != nil {
		return err
	}
	rightRows, err := filterSide(right.Rows, jp.rightFilter, total, nL, jp.nR)
	if err != nil {
		return err
	}

	// The combined buffer is reused across emits; the sink copies if it
	// retains rows.
	combined := make([]relation.Value, total)
	emit := func(l, r relation.Row) error {
		copy(combined, l)
		copy(combined[nL:], r)
		if jp.residual != nil {
			v, err := jp.residual.eval(combined)
			if err != nil {
				return err
			}
			ok, err := truthy(v)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		return sink(combined)
	}
	pair := func(l, r relation.Row) error {
		for _, cc := range jp.cmps {
			ok, err := compareValues(cc.op, l[cc.li], r[cc.ri])
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		return emit(l, r)
	}

	if len(jp.hashL) > 0 {
		// Hash join: build on the right side. With no pushed-down right
		// filter the build is shared across the query stream through the
		// engine's index cache; otherwise it is local to this run.
		var index map[string][]relation.Row
		if jp.rightFilter == nil {
			index = e.caches.forTable(p.tableKeys[1], right).hashIndex(jp.hashR)
		} else {
			index = buildHashIndex(rightRows, jp.hashR)
		}
		// Probe keys build in a reused scratch buffer; the string([]byte)
		// map lookup is allocation-free, so the steady-state probe costs
		// no allocations at all.
		var key []byte
		for _, l := range leftRows {
			key = key[:0]
			skip := false
			for _, ci := range jp.hashL {
				if l[ci].IsNull() {
					skip = true // NULL never equi-joins
					break
				}
				key = l[ci].AppendHashKey(key)
				key = append(key, 0x1f)
			}
			if skip {
				continue
			}
			for _, r := range index[string(key)] {
				if err := pair(l, r); err != nil {
					return err
				}
			}
		}
		return nil
	}

	if jp.driver >= 0 && jp.rightFilter == nil {
		return e.runRangeJoin(p, leftRows, emit)
	}

	// Nested loop.
	for _, l := range leftRows {
		for _, r := range rightRows {
			if err := pair(l, r); err != nil {
				return err
			}
		}
	}
	return nil
}
