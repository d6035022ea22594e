package sqlengine

import (
	"sort"

	"repro/internal/relation"
)

// runRangeJoin executes a binary join whose driver is a cross-side order
// comparison `left[li] op right[ri]` — the attribute-ambiguity a-query
// shape, which has no equality conjunct and historically fell into the
// O(n²) nested loop. The shared sorted index over the right column bounds
// each left row's candidate set with one binary search, so left rows with
// no possible partner cost O(log n) instead of a full inner scan, and
// candidates are rejected with direct column comparisons before any
// combined-row copy is paid.
//
// Emission order is byte-compatible with the nested loop: survivors are
// collected per left row and emitted in right-row-position order, so
// downstream DISTINCT, LIMIT (errLimitReached propagates from emit) and
// evidence consumers see the exact stream the nested loop would produce.
func (e *Engine) runRangeJoin(p *plan, leftRows []relation.Row, emit func(l, r relation.Row) error) error {
	jp := p.join
	right := p.sources[1]
	driver := jp.cmps[jp.driver]
	pos := e.caches.forTable(p.tableKeys[1], right).sortedIndex(driver.ri)
	met.rangeJoins.Inc()

	var matches []int // reused across left rows
	for _, l := range leftRows {
		x := l[driver.li]
		if x.IsNull() {
			continue // NULL compares false against every right row
		}
		lo, hi := candidateRange(pos, right.Rows, driver.ri, driver.op, x)
		if lo >= hi {
			continue
		}
		// Check every colCmp (the driver included, restoring the exact
		// compareValues error surface) on the raw rows; collect surviving
		// positions, then emit them in ascending row order.
		matches = matches[:0]
		for _, rp := range pos[lo:hi] {
			r := right.Rows[rp]
			ok := true
			for _, cc := range jp.cmps {
				match, err := compareValues(cc.op, l[cc.li], r[cc.ri])
				if err != nil {
					return err
				}
				if !match {
					ok = false
					break
				}
			}
			if ok {
				matches = append(matches, rp)
			}
		}
		sort.Ints(matches)
		for _, rp := range matches {
			if err := emit(l, right.Rows[rp]); err != nil {
				return err
			}
		}
	}
	return nil
}

// candidateRange returns the half-open window [lo, hi) of pos — right-row
// positions sorted ascending by column col — whose values can satisfy
// `x op value`. Order comparisons against x partition the sorted order,
// so the window is a prefix (x > value, x >= value) or a suffix
// (x < value, x <= value).
func candidateRange(pos []int, rows []relation.Row, col int, op string, x relation.Value) (int, int) {
	switch op {
	case ">": // value < x: prefix below the first value >= x
		return 0, sort.Search(len(pos), func(i int) bool {
			return orderCmp(rows[pos[i]][col], x) >= 0
		})
	case ">=": // value <= x: prefix through the last value == x
		return 0, sort.Search(len(pos), func(i int) bool {
			return orderCmp(rows[pos[i]][col], x) > 0
		})
	case "<": // value > x: suffix past the last value == x
		return sort.Search(len(pos), func(i int) bool {
			return orderCmp(rows[pos[i]][col], x) > 0
		}), len(pos)
	case "<=": // value >= x: suffix from the first value == x
		return sort.Search(len(pos), func(i int) bool {
			return orderCmp(rows[pos[i]][col], x) >= 0
		}), len(pos)
	default:
		return 0, len(pos) // not an order op: no pruning
	}
}
