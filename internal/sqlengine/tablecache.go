package sqlengine

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/relation"
)

// tableCaches shares the lazily-built artifacts of each registered table
// across the query stream: the row path's join indexes (hash buckets and
// sorted positions), the columnar form, the batch path's typed join indexes
// and the formatted CONCAT caches. Every artifact depends only on the
// immutable registered table, so thousands of structurally identical
// a-queries reuse one build instead of paying it per statement. Entries
// are keyed by registration name, self-heal when the registered table
// changes identity, and are dropped by the engine's publish path — a
// replaced registration never serves stale artifacts.
type tableCaches struct {
	mu      sync.Mutex
	byTable map[string]*tableCache
}

// newTableCaches returns an empty cache.
func newTableCaches() *tableCaches {
	return &tableCaches{byTable: map[string]*tableCache{}}
}

// forTable returns the artifact set for the named registration. A stale
// entry — the registered table changed identity since it was created — is
// replaced, so the cache self-heals even without an explicit invalidate.
func (c *tableCaches) forTable(name string, t *relation.Table) *tableCache {
	c.mu.Lock()
	defer c.mu.Unlock()
	tc := c.byTable[name]
	if tc == nil || tc.table != t {
		tc = &tableCache{
			table:  t,
			hash:   map[string]*lazyIndex[map[string][]relation.Row]{},
			sorted: map[int]*lazyIndex[[]int]{},
			intIdx: map[int]*lazyIndex[map[int64][]int32]{},
			strIdx: map[int]*lazyIndex[map[string][]int32]{},
			fmts:   map[int]*fmtEntry{},
		}
		c.byTable[name] = tc
	}
	return tc
}

// invalidate drops the cached artifacts for one registration name.
func (c *tableCaches) invalidate(name string) {
	c.mu.Lock()
	delete(c.byTable, name)
	c.mu.Unlock()
}

// tableCache lazily materializes the artifacts of one registered table.
// Each artifact builds exactly once under its sync.Once — concurrent
// queries needing the same one share a single build and read the result
// without locks, since it is immutable afterwards.
type tableCache struct {
	table *relation.Table
	once  sync.Once
	cols  *relation.ColumnSet // nil when the table is not vectorizable

	mu     sync.Mutex                                       // guards the entry maps below
	hash   map[string]*lazyIndex[map[string][]relation.Row] // by colsKey of the column subset
	sorted map[int]*lazyIndex[[]int]                        // by column index
	intIdx map[int]*lazyIndex[map[int64][]int32]            // per int/bool/date key column
	strIdx map[int]*lazyIndex[map[string][]int32]           // per string key column
	fmts   map[int]*fmtEntry                                // per CONCAT-referenced column
}

// lazyIndex is one join index, built at most once on first use.
type lazyIndex[T any] struct {
	once sync.Once
	v    T
}

// entry returns m[key], creating an empty entry on first use. mu guards m.
func entry[K comparable, V any](mu *sync.Mutex, m map[K]*V, key K) *V {
	mu.Lock()
	defer mu.Unlock()
	e := m[key]
	if e == nil {
		e = new(V)
		m[key] = e
	}
	return e
}

// buildIndex returns the index under key in m, building it on first use and
// counting the build (sqlengine.index_builds) or the reuse
// (sqlengine.index_hits).
func buildIndex[K comparable, T any](tc *tableCache, m map[K]*lazyIndex[T], key K, build func() T) T {
	ix := entry(&tc.mu, m, key)
	built := false
	ix.once.Do(func() {
		built = true
		met.indexBuilds.Inc()
		ix.v = build()
	})
	if !built {
		met.indexHits.Inc()
	}
	return ix.v
}

// colsKey renders a column subset as a cache key.
func colsKey(cols []int) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

// hashIndex returns the row path's equi-join hash index over the column
// subset, building it on first use.
func (tc *tableCache) hashIndex(cols []int) map[string][]relation.Row {
	return buildIndex(tc, tc.hash, colsKey(cols), func() map[string][]relation.Row {
		return buildHashIndex(tc.table.Rows, cols)
	})
}

// buildHashIndex groups rows by the HashKey tuple of the given columns,
// preserving row order within each bucket. Rows with a NULL key cell are
// left out: NULL never equi-joins.
func buildHashIndex(rows []relation.Row, cols []int) map[string][]relation.Row {
	index := make(map[string][]relation.Row, len(rows))
	var key []byte // reused scratch; the key materializes once on insert
	for _, r := range rows {
		key = key[:0]
		skip := false
		for _, ci := range cols {
			if r[ci].IsNull() {
				skip = true
				break
			}
			key = r[ci].AppendHashKey(key)
			key = append(key, 0x1f)
		}
		if skip {
			continue
		}
		k := string(key)
		index[k] = append(index[k], r)
	}
	return index
}

// sortedIndex returns the table's row positions ordered ascending by the
// column — ties break by position, NULL cells are excluded (they compare
// false against everything) — building on first use.
func (tc *tableCache) sortedIndex(col int) []int {
	return buildIndex(tc, tc.sorted, col, func() []int {
		rows := tc.table.Rows
		pos := make([]int, 0, len(rows))
		for i, r := range rows {
			if !r[col].IsNull() {
				pos = append(pos, i)
			}
		}
		sort.Slice(pos, func(a, b int) bool {
			if c := orderCmp(rows[pos[a]][col], rows[pos[b]][col]); c != 0 {
				return c < 0
			}
			return pos[a] < pos[b]
		})
		return pos
	})
}

// orderCmp is the sorted index's total order: Value.Compare with a
// formatted-string fallback for the (schema-violating) mismatched-kind
// edge, mirroring relation.Table.SortBy.
func orderCmp(a, b relation.Value) int {
	c, err := a.Compare(b)
	if err != nil {
		return strings.Compare(a.Format(), b.Format())
	}
	return c
}

// columns returns the columnar form, building it on first use. A nil
// result means the table holds cells whose dynamic kind violates the
// schema (rows spliced in without Append validation) and must stay on the
// row-at-a-time path.
func (tc *tableCache) columns() *relation.ColumnSet {
	tc.once.Do(func() {
		met.vectorBuilds.Inc()
		tc.cols = relation.BuildColumns(tc.table)
	})
	return tc.cols
}

// intIndex returns the int64-keyed equi-join index over column col of an
// int, bool or date column, building it on first use. NULL cells are
// excluded — NULL never equi-joins — and bucket order is table row order,
// matching buildHashIndex, so batched probes emit the exact row stream the
// string-keyed path would.
func (tc *tableCache) intIndex(col int, cols *relation.ColumnSet) map[int64][]int32 {
	return buildIndex(tc, tc.intIdx, col, func() map[int64][]int32 {
		v := &cols.Cols[col]
		idx := make(map[int64][]int32, cols.Len)
		for i := 0; i < cols.Len; i++ {
			if v.Nulls.Get(i) {
				continue
			}
			idx[v.I[i]] = append(idx[v.I[i]], int32(i))
		}
		return idx
	})
}

// strIndex is intIndex for string key columns.
func (tc *tableCache) strIndex(col int, cols *relation.ColumnSet) map[string][]int32 {
	return buildIndex(tc, tc.strIdx, col, func() map[string][]int32 {
		v := &cols.Cols[col]
		idx := make(map[string][]int32, cols.Len)
		for i := 0; i < cols.Len; i++ {
			if v.Nulls.Get(i) {
				continue
			}
			idx[v.S[i]] = append(idx[v.S[i]], int32(i))
		}
		return idx
	})
}

// fmtEntry is one column's lazily-built formatted cache: every cell's
// Format() bytes rendered once into a shared buffer, addressed by offsets.
// Vectorized CONCAT copies these slices instead of re-formatting the same
// cell for every join pair it appears in; NULL cells occupy an empty
// range, matching Format's empty rendering.
type fmtEntry struct {
	once sync.Once
	buf  []byte
	offs []int32 // len n+1; cell i spans buf[offs[i]:offs[i+1]]
}

// slice returns the formatted bytes of cell i.
func (f *fmtEntry) slice(i int32) []byte { return f.buf[f.offs[i]:f.offs[i+1]] }

// formatted returns the formatted cache for column col, building it on
// first use.
func (tc *tableCache) formatted(col int, cols *relation.ColumnSet) *fmtEntry {
	fe := entry(&tc.mu, tc.fmts, col)
	fe.once.Do(func() {
		v := &cols.Cols[col]
		offs := make([]int32, cols.Len+1)
		var buf []byte
		for i := 0; i < cols.Len; i++ {
			buf = v.AppendFormat(buf, i)
			offs[i+1] = int32(len(buf))
		}
		fe.buf, fe.offs = buf, offs
	})
	return fe
}
