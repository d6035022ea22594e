package sqlengine

import (
	"strings"
	"sync"

	"repro/internal/relation"
)

// Columnar batch executor. runBatch executes a compiled batchPlan over the
// lazily-built column vectors of the registered tables: scans narrow a
// selection index vector with typed per-conjunct loops, the join probe
// walks a typed single-column hash index in one pass, and CONCAT
// projections append into one shared byte buffer whose strings are carved
// out per flush block instead of allocated per row. Output rows are
// byte-identical to the row-at-a-time path (enforced by the differential
// suite); any shape the compiler did not admit never reaches this file.

// identitySel returns the selection vector [0, n).
func identitySel(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// cellFloat widens a numeric cell to float64, mirroring Value.AsFloat.
func cellFloat(v *relation.ColVec, i int32) float64 {
	if v.Kind == relation.KindFloat {
		return v.F[i]
	}
	return float64(v.I[i])
}

// filter narrows sel in place to the rows satisfying the predicate,
// reusing sel's backing array. Loops are split by comparison mode so the
// hot path touches one typed payload slice with no Value boxing.
func (pr *vecPred) filter(cs *relation.ColumnSet, sel []int32) []int32 {
	out := sel[:0]
	v := &cs.Cols[pr.col]
	switch pr.mode {
	case predIsNull:
		for _, i := range sel {
			if v.Nulls.Get(int(i)) != pr.negate {
				out = append(out, i)
			}
		}
		return out
	case predLit:
		switch pr.cmp {
		case cmpNever:
			return out
		case cmpAlways:
			for _, i := range sel {
				if !v.Nulls.Get(int(i)) {
					out = append(out, i)
				}
			}
			return out
		case cmpInt:
			lit := pr.litI
			for _, i := range sel {
				if v.Nulls.Get(int(i)) {
					continue
				}
				x := v.I[i]
				if (x < lit && pr.lt) || (x > lit && pr.gt) || (x == lit && pr.eq) {
					out = append(out, i)
				}
			}
			return out
		case cmpFloat:
			lit := pr.litF
			for _, i := range sel {
				if v.Nulls.Get(int(i)) {
					continue
				}
				x := cellFloat(v, i)
				if (x < lit && pr.lt) || (x > lit && pr.gt) || (x == lit && pr.eq) {
					out = append(out, i)
				}
			}
			return out
		default: // cmpStr
			lit := pr.litS
			for _, i := range sel {
				if v.Nulls.Get(int(i)) {
					continue
				}
				x := v.S[i]
				if (x < lit && pr.lt) || (x > lit && pr.gt) || (x == lit && pr.eq) {
					out = append(out, i)
				}
			}
			return out
		}
	default: // predCol
		v2 := &cs.Cols[pr.col2]
		switch pr.cmp {
		case cmpNever:
			return out
		case cmpAlways:
			for _, i := range sel {
				if !v.Nulls.Get(int(i)) && !v2.Nulls.Get(int(i)) {
					out = append(out, i)
				}
			}
			return out
		case cmpInt:
			for _, i := range sel {
				if v.Nulls.Get(int(i)) || v2.Nulls.Get(int(i)) {
					continue
				}
				x, y := v.I[i], v2.I[i]
				if (x < y && pr.lt) || (x > y && pr.gt) || (x == y && pr.eq) {
					out = append(out, i)
				}
			}
			return out
		case cmpFloat:
			for _, i := range sel {
				if v.Nulls.Get(int(i)) || v2.Nulls.Get(int(i)) {
					continue
				}
				x, y := cellFloat(v, i), cellFloat(v2, i)
				if (x < y && pr.lt) || (x > y && pr.gt) || (x == y && pr.eq) {
					out = append(out, i)
				}
			}
			return out
		default: // cmpStr
			for _, i := range sel {
				if v.Nulls.Get(int(i)) || v2.Nulls.Get(int(i)) {
					continue
				}
				x, y := v.S[i], v2.S[i]
				if (x < y && pr.lt) || (x > y && pr.gt) || (x == y && pr.eq) {
					out = append(out, i)
				}
			}
			return out
		}
	}
}

// boundCmp is a vecCmp with its column vectors resolved, checked per
// candidate join pair.
type boundCmp struct {
	vecCmp
	lv, rv *relation.ColVec
	nulls  bool // either operand column holds NULLs
}

// match applies the comparison to the pair (li, ri). NULL operands never
// match, like compareValues.
func (c *boundCmp) match(li, ri int32) bool {
	if c.nulls && (c.lv.Nulls.Get(int(li)) || c.rv.Nulls.Get(int(ri))) {
		return false
	}
	switch c.cmp {
	case cmpNever:
		return false
	case cmpAlways:
		return true
	case cmpInt:
		x, y := c.lv.I[li], c.rv.I[ri]
		return (x < y && c.lt) || (x > y && c.gt) || (x == y && c.eq)
	case cmpFloat:
		x, y := cellFloat(c.lv, li), cellFloat(c.rv, ri)
		return (x < y && c.lt) || (x > y && c.gt) || (x == y && c.eq)
	default: // cmpStr
		x, y := c.lv.S[li], c.rv.S[ri]
		return (x < y && c.lt) || (x > y && c.gt) || (x == y && c.eq)
	}
}

// pendSlot is one CONCAT output cell waiting for its flush block's string.
type pendSlot struct {
	row, col   int32
	start, end int32
}

// concatCarver accumulates CONCAT sentences for many rows in one
// strings.Builder block and materializes them as substrings of the block
// string per flush: Builder.String returns its buffer without copying, so
// the per-row string allocation of the row path amortizes to one block
// allocation and each sentence's bytes are written exactly once.
type concatCarver struct {
	bb   strings.Builder
	pend []pendSlot
}

// concatFlushBytes bounds a carver block. Flushing at block granularity
// keeps peak buffer memory constant while leaving the per-row allocation
// share negligible.
const concatFlushBytes = 64 << 10

// flush materializes pending sentences into their output cells; unless
// final, it starts a fresh block.
func (c *concatCarver) flush(out []relation.Row, final bool) {
	if len(c.pend) == 0 {
		return
	}
	s := c.bb.String()
	for _, p := range c.pend {
		out[p.row][p.col] = relation.String(s[p.start:p.end])
	}
	c.pend = c.pend[:0]
	if !final {
		// The old buffer lives on as the carved block string; Reset detaches
		// it and Grow sizes the next block up front so row appends never
		// reallocate mid-block.
		c.bb.Reset()
		c.bb.Grow(concatFlushBytes + 256)
	}
}

// boundPart is one CONCAT argument with its formatted cache resolved:
// literal parts carry their pre-rendered bytes, column parts copy the
// cell's cached Format bytes (an empty range for NULL, matching Format's
// empty rendering), so the per-pair cost is a plain memcpy.
type boundPart struct {
	lit  []byte
	fmt  *fmtEntry // nil for literal parts
	side int
}

// batchEmitter materializes projected output rows for the batch executor,
// applying DISTINCT and LIMIT with the exact semantics of the row path's
// sinks.
type batchEmitter struct {
	projs  []batchProj
	bparts [][]boundPart          // per projection; nil for non-CONCAT
	cols   [2]*relation.ColumnSet // per side; scan uses side 0 only

	width int
	arena []relation.Value
	out   []relation.Row

	limit int // -1 when absent
	done  bool

	distinct bool
	seen     map[string]struct{}
	keyBuf   []byte
	rowBuf   []byte // DISTINCT CONCAT scratch (values materialize per row)
	drops    int

	carver concatCarver
}

func newBatchEmitter(p *plan, ltc, rtc *tableCache, lcs, rcs *relation.ColumnSet) *batchEmitter {
	em := &batchEmitter{
		projs: p.batch.projs,
		width: len(p.batch.projs),
		limit: p.stmt.Limit,
	}
	em.cols[0], em.cols[1] = lcs, rcs
	if p.stmt.Distinct {
		em.distinct = true
		em.seen = map[string]struct{}{}
	}
	tcs := [2]*tableCache{ltc, rtc}
	for i := range em.projs {
		pj := &em.projs[i]
		if pj.mode != projConcat {
			continue
		}
		if em.bparts == nil {
			em.bparts = make([][]boundPart, len(em.projs))
			if !em.distinct {
				em.carver.bb.Grow(concatFlushBytes + 256)
			}
		}
		bound := make([]boundPart, len(pj.parts))
		for j, part := range pj.parts {
			if part.isLit {
				bound[j] = boundPart{lit: part.lit}
				continue
			}
			bound[j] = boundPart{
				fmt:  tcs[part.side].formatted(part.col, em.cols[part.side]),
				side: part.side,
			}
		}
		em.bparts[i] = bound
	}
	return em
}

// newRow carves one output row from the arena, like the row path's
// projection arena.
func (em *batchEmitter) newRow() relation.Row {
	const chunkRows = 1024
	if len(em.arena) < em.width {
		em.arena = make([]relation.Value, chunkRows*em.width)
	}
	pr := relation.Row(em.arena[:em.width:em.width])
	em.arena = em.arena[em.width:]
	return pr
}

// reserve sizes the output slice and value arena for exactly n rows, known
// from the selection or the collected join pairs: one allocation each
// instead of doubling growth, so no grow-copy traffic and no re-zeroing of
// abandoned arrays.
func (em *batchEmitter) reserve(n int) {
	if n <= 0 || len(em.out) > 0 {
		return
	}
	em.out = make([]relation.Row, 0, n)
	if em.width > 0 {
		em.arena = make([]relation.Value, n*em.width)
	}
}

// emit projects the pair (li, ri) — ri is ignored for scans — into an
// output row. It sets done when LIMIT is satisfied.
func (em *batchEmitter) emit(li, ri int32) {
	idx := [2]int32{li, ri}
	pr := em.newRow()
	rowIdx := int32(len(em.out))
	for i := range em.projs {
		pj := &em.projs[i]
		switch pj.mode {
		case projCol:
			pr[i] = em.cols[pj.side].Cols[pj.col].Value(int(idx[pj.side]))
		case projLit:
			pr[i] = pj.lit
		default: // projConcat
			if em.distinct {
				// DISTINCT needs the value before the dedup decision, so
				// materialize per row (exactly the row path's cost) without
				// touching the carver block.
				em.rowBuf = em.rowBuf[:0]
				for _, part := range em.bparts[i] {
					if part.fmt == nil {
						em.rowBuf = append(em.rowBuf, part.lit...)
					} else {
						em.rowBuf = append(em.rowBuf, part.fmt.slice(idx[part.side])...)
					}
				}
				pr[i] = relation.String(string(em.rowBuf))
				continue
			}
			start := int32(em.carver.bb.Len())
			parts := em.bparts[i]
			for j := range parts {
				part := &parts[j]
				if part.fmt == nil {
					em.carver.bb.Write(part.lit)
				} else {
					em.carver.bb.Write(part.fmt.slice(idx[part.side]))
				}
			}
			em.carver.pend = append(em.carver.pend, pendSlot{
				row: rowIdx, col: int32(i),
				start: start, end: int32(em.carver.bb.Len()),
			})
		}
	}
	if em.distinct {
		em.keyBuf = appendRowKey(em.keyBuf[:0], pr)
		if _, dup := em.seen[string(em.keyBuf)]; dup {
			em.drops++
			return
		}
		em.seen[string(em.keyBuf)] = struct{}{}
	}
	em.out = append(em.out, pr)
	if em.limit >= 0 && len(em.out) >= em.limit {
		em.done = true
	}
	if em.carver.bb.Len() >= concatFlushBytes {
		em.carver.flush(em.out, false)
	}
}

// finish flushes pending CONCAT blocks and applies the final LIMIT
// truncation, mirroring the row path.
func (em *batchEmitter) finish() []relation.Row {
	em.carver.flush(em.out, true)
	met.distinctDrops.Add(int64(em.drops))
	if em.limit >= 0 && len(em.out) > em.limit {
		em.out = em.out[:em.limit]
	}
	return em.out
}

// runBatch executes a plan on the columnar path. ok is false when the
// registered tables are not vectorizable (cells violating the schema
// kind), in which case the caller falls back to the row path.
func (e *Engine) runBatch(p *plan) (*relation.Table, bool) {
	bp := p.batch
	ltc := e.caches.forTable(p.tableKeys[0], p.sources[0])
	lcs := ltc.columns()
	if lcs == nil {
		return nil, false
	}
	var rtc *tableCache
	var rcs *relation.ColumnSet
	if bp.join {
		rtc = e.caches.forTable(p.tableKeys[1], p.sources[1])
		if rcs = rtc.columns(); rcs == nil {
			return nil, false
		}
	}
	met.batchScans.Inc()
	em := newBatchEmitter(p, ltc, rtc, lcs, rcs)

	if !bp.join {
		met.rowsScanned.Add(int64(lcs.Len))
		sel := identitySel(lcs.Len)
		for i := range bp.scanPreds {
			if len(sel) == 0 {
				break
			}
			sel = bp.scanPreds[i].filter(lcs, sel)
		}
		observeSelectivity(lcs.Len, len(sel))
		n := len(sel)
		if em.limit >= 0 && em.limit < n {
			n = em.limit
		}
		em.reserve(n)
		for _, i := range sel {
			em.emit(i, 0)
			if em.done {
				break
			}
		}
	} else {
		met.rowsScanned.Add(int64(lcs.Len + rcs.Len))
		// A nil selection means "all rows": with no pushed-down predicates
		// the probe iterates the table directly, skipping the identity
		// vector build.
		var leftSel []int32
		if len(bp.leftPreds) > 0 {
			leftSel = identitySel(lcs.Len)
			for i := range bp.leftPreds {
				leftSel = bp.leftPreds[i].filter(lcs, leftSel)
			}
			observeSelectivity(lcs.Len, len(leftSel))
		} else {
			observeSelectivity(lcs.Len, lcs.Len)
		}
		var rightBits relation.Bitmap
		if len(bp.rightPreds) > 0 {
			rsel := identitySel(rcs.Len)
			for i := range bp.rightPreds {
				rsel = bp.rightPreds[i].filter(rcs, rsel)
			}
			observeSelectivity(rcs.Len, len(rsel))
			rightBits = relation.NewBitmap(rcs.Len)
			for _, i := range rsel {
				rightBits.Set(int(i))
			}
		}
		cmps := make([]boundCmp, len(bp.cmps))
		for i, c := range bp.cmps {
			lv, rv := &lcs.Cols[c.li], &rcs.Cols[c.ri]
			cmps[i] = boundCmp{vecCmp: c, lv: lv, rv: rv, nulls: lv.HasNulls || rv.HasNulls}
		}
		var intIdx map[int64][]int32
		var strIdx map[string][]int32
		if bp.keyKind == relation.KindString {
			strIdx = rtc.strIndex(bp.keyR, rcs)
		} else {
			intIdx = rtc.intIndex(bp.keyR, rcs)
		}
		// One probe pass collects the matching pairs, so the emitter
		// allocates its output exactly without probing twice. The pair
		// buffer is recycled across queries. LIMIT caps the collection
		// unless DISTINCT may drop some of the pairs.
		buf := pairBufs.Get().(*[]int32)
		pairs := (*buf)[:0]
		limit := em.limit
		if em.distinct {
			limit = -1
		}
		probeBatch(bp, lcs, intIdx, strIdx, leftSel, rightBits, cmps, func(li, ri int32) bool {
			pairs = append(pairs, li, ri)
			return limit < 0 || len(pairs) < 2*limit
		})
		em.reserve(len(pairs) / 2)
		for k := 0; k < len(pairs) && !em.done; k += 2 {
			em.emit(pairs[k], pairs[k+1])
		}
		*buf = pairs[:0]
		pairBufs.Put(buf)
	}

	out := em.finish()
	met.batchRows.Add(int64(len(out)))
	return finishResult(p, out), true
}

// pairBufs recycles the (left, right) match buffers of runBatch's probe.
var pairBufs = sync.Pool{New: func() any { return new([]int32) }}

// forSel applies f to each selected row index, or to every row in [0, n)
// when sel is nil ("all rows"). f returning false stops the walk.
func forSel(sel []int32, n int, f func(int32) bool) {
	if sel == nil {
		for i := 0; i < n; i++ {
			if !f(int32(i)) {
				return
			}
		}
		return
	}
	for _, i := range sel {
		if !f(i) {
			return
		}
	}
}

// probeBatch drives probe-side rows through the typed hash index in one
// pass: per selected left row one map lookup, then candidate right rows
// filtered by the right-side selection bitmap and the typed cross-side
// comparisons. Consecutive probe rows sharing a key reuse the previous
// bucket without a lookup — self-joins over grouped keys probe mostly
// sorted runs. Emission order — left rows ascending, bucket rows in table
// order — matches the row path's hash join exactly.
func probeBatch(bp *batchPlan, lcs *relation.ColumnSet, intIdx map[int64][]int32,
	strIdx map[string][]int32, leftSel []int32, rightBits relation.Bitmap,
	cmps []boundCmp, visit func(li, ri int32) bool) {
	keyVec := &lcs.Cols[bp.keyL]
	keyNulls := keyVec.HasNulls
	probe := func(bucket []int32, li int32) bool {
		for _, ri := range bucket {
			if rightBits != nil && !rightBits.Get(int(ri)) {
				continue
			}
			ok := true
			for i := range cmps {
				if !cmps[i].match(li, ri) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			if !visit(li, ri) {
				return false
			}
		}
		return true
	}
	if bp.keyKind == relation.KindString {
		idx := strIdx
		var lastKey string
		var lastBucket []int32
		haveLast := false
		forSel(leftSel, lcs.Len, func(li int32) bool {
			if keyNulls && keyVec.Nulls.Get(int(li)) {
				return true
			}
			if k := keyVec.S[li]; !haveLast || k != lastKey {
				lastBucket, lastKey, haveLast = idx[k], k, true
			}
			return probe(lastBucket, li)
		})
		return
	}
	idx := intIdx
	var lastKey int64
	var lastBucket []int32
	haveLast := false
	forSel(leftSel, lcs.Len, func(li int32) bool {
		if keyNulls && keyVec.Nulls.Get(int(li)) {
			return true
		}
		if k := keyVec.I[li]; !haveLast || k != lastKey {
			lastBucket, lastKey, haveLast = idx[k], k, true
		}
		return probe(lastBucket, li)
	})
}

// observeSelectivity records what fraction of a side's rows survived its
// selection program, in percent.
func observeSelectivity(total, selected int) {
	if total > 0 {
		met.batchSelectivity.Observe(int64(selected * 100 / total))
	}
}
