package sqlengine

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/detrand"
	"repro/internal/relation"
)

// Randomized differential property test: generate tables with random
// schemas and NULL patterns, derive queries covering every shape the batch
// compiler admits (plus deliberate fallback shapes), and require the batch
// and row-at-a-time paths to produce byte-identical result tables.

// diffKinds are the column kinds the generator draws from.
var diffKinds = []relation.Kind{
	relation.KindInt, relation.KindFloat, relation.KindString,
	relation.KindBool, relation.KindDate,
}

// randomDiffTable builds a table with a grouped int key column k plus nCols
// random-kind columns c0..cN, with ~15% NULLs everywhere (key included).
func randomDiffTable(rng *rand.Rand, name string, nCols, nRows int) *relation.Table {
	schema := relation.Schema{{Name: "k", Kind: relation.KindInt}}
	for c := 0; c < nCols; c++ {
		schema = append(schema, relation.Column{
			Name: fmt.Sprintf("c%d", c),
			Kind: diffKinds[rng.Intn(len(diffKinds))],
		})
	}
	tb := relation.NewTable(name, schema)
	words := []string{"ape", "bat", "cod", "doe", "", "elk"}
	cell := func(k relation.Kind) relation.Value {
		if rng.Intn(100) < 15 {
			return relation.Null
		}
		switch k {
		case relation.KindInt:
			return relation.Int(int64(rng.Intn(9) - 2))
		case relation.KindFloat:
			return relation.Float(float64(rng.Intn(7)) - 1.5)
		case relation.KindString:
			return relation.String(words[rng.Intn(len(words))])
		case relation.KindBool:
			return relation.Bool(rng.Intn(2) == 0)
		default:
			return relation.DateFromDays(int64(18000 + rng.Intn(20)))
		}
	}
	for i := 0; i < nRows; i++ {
		row := relation.Row{cell(relation.KindInt)}
		if row[0].IsNull() {
			row[0] = relation.Int(int64(rng.Intn(5)))
		}
		if rng.Intn(100) < 10 {
			row[0] = relation.Null // some NULL join keys
		}
		for c := 0; c < nCols; c++ {
			row = append(row, cell(schema[c+1].Kind))
		}
		tb.Rows = append(tb.Rows, row)
	}
	return tb
}

// litFor renders a parseable literal from a column's value domain. Bool and
// date literals have no SQL syntax here, so those columns only appear in
// column-column comparisons and projections.
func litFor(rng *rand.Rand, k relation.Kind) (string, bool) {
	switch k {
	case relation.KindInt:
		return fmt.Sprintf("%d", rng.Intn(9)-2), true
	case relation.KindFloat:
		return fmt.Sprintf("%.1f", float64(rng.Intn(7))-1.5), true
	case relation.KindString:
		return "'" + []string{"ape", "bat", "cod", ""}[rng.Intn(4)] + "'", true
	default:
		return "", false
	}
}

var diffOps = []string{"=", "<>", "<", "<=", ">", ">="}

// orderComparable mirrors classifyCmp's vectorizable set for order
// operators: same kind, or both numeric.
func orderComparable(a, b relation.Kind) bool {
	return a == b || (a.Numeric() && b.Numeric())
}

// randomPred renders one vectorizable conjunct over the schema (alias may
// be empty for scans).
func randomPred(rng *rand.Rand, schema relation.Schema, alias string) string {
	q := func(name string) string {
		if alias == "" {
			return name
		}
		return alias + "." + name
	}
	for tries := 0; ; tries++ {
		ci := rng.Intn(len(schema))
		col := schema[ci]
		switch rng.Intn(4) {
		case 0: // IS [NOT] NULL
			if rng.Intn(2) == 0 {
				return q(col.Name) + " IS NULL"
			}
			return q(col.Name) + " IS NOT NULL"
		case 1: // col OP literal (possibly NULL literal)
			if rng.Intn(10) == 0 {
				return q(col.Name) + " " + diffOps[rng.Intn(len(diffOps))] + " NULL"
			}
			lit, ok := litFor(rng, col.Kind)
			if !ok {
				continue
			}
			op := diffOps[rng.Intn(len(diffOps))]
			if rng.Intn(2) == 0 {
				return q(col.Name) + " " + op + " " + lit
			}
			return lit + " " + op + " " + q(col.Name) // literal-left mirroring
		default: // col OP col
			cj := rng.Intn(len(schema))
			op := diffOps[rng.Intn(len(diffOps))]
			if !orderComparable(col.Kind, schema[cj].Kind) {
				op = []string{"=", "<>"}[rng.Intn(2)] // never/always modes
			}
			return q(col.Name) + " " + op + " " + q(schema[cj].Name)
		}
	}
}

// randomProjList renders 1-3 projections: columns, literals and CONCATs.
func randomProjList(rng *rand.Rand, schema relation.Schema, alias string) string {
	q := func(name string) string {
		if alias == "" {
			return name
		}
		return alias + "." + name
	}
	var items []string
	for n := 1 + rng.Intn(3); len(items) < n; {
		switch rng.Intn(4) {
		case 0:
			items = append(items, q(schema[rng.Intn(len(schema))].Name))
		case 1:
			items = append(items, fmt.Sprintf("%d", rng.Intn(100)))
		default:
			a := q(schema[rng.Intn(len(schema))].Name)
			b := q(schema[rng.Intn(len(schema))].Name)
			items = append(items, fmt.Sprintf("CONCAT(%s, ' / ', %s) AS x%d", a, b, len(items)))
		}
	}
	return strings.Join(items, ", ")
}

// randomDiffQueries derives a query set over tb covering every shape the
// batch compiler admits — scans and equi self-joins with random
// predicates, projections, DISTINCT and LIMIT — plus one fallback shape
// that proves the harness diffs the row path too.
func randomDiffQueries(rng *rand.Rand, tb *relation.Table) []string {
	schema := tb.Schema
	var queries []string
	// Scan shapes.
	queries = append(queries, fmt.Sprintf(`SELECT * FROM %s`, tb.Name))
	for i := 0; i < 6; i++ {
		var sb strings.Builder
		if rng.Intn(4) == 0 {
			sb.WriteString("SELECT DISTINCT ")
		} else {
			sb.WriteString("SELECT ")
		}
		sb.WriteString(randomProjList(rng, schema, ""))
		sb.WriteString(" FROM " + tb.Name)
		if nPreds := rng.Intn(3); nPreds > 0 {
			var preds []string
			for p := 0; p < nPreds; p++ {
				preds = append(preds, randomPred(rng, schema, ""))
			}
			sb.WriteString(" WHERE " + strings.Join(preds, " AND "))
		}
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&sb, " LIMIT %d", rng.Intn(12))
		}
		queries = append(queries, sb.String())
	}
	// Join shapes: equi key on k (int), side preds, cross comparisons.
	for i := 0; i < 5; i++ {
		var sb strings.Builder
		sb.WriteString("SELECT ")
		if rng.Intn(4) == 0 {
			sb.WriteString("DISTINCT ")
		}
		sb.WriteString(randomProjList(rng, schema, "b1"))
		fmt.Fprintf(&sb, " FROM %s b1, %s b2 WHERE b1.k = b2.k", tb.Name, tb.Name)
		for p := rng.Intn(2); p > 0; p-- {
			sb.WriteString(" AND " + randomPred(rng, schema, []string{"b1", "b2"}[rng.Intn(2)]))
		}
		// Cross-side comparison with vectorizable typing.
		ci, cj := rng.Intn(len(schema)), rng.Intn(len(schema))
		op := diffOps[rng.Intn(len(diffOps))]
		if !orderComparable(schema[ci].Kind, schema[cj].Kind) {
			op = []string{"=", "<>"}[rng.Intn(2)]
		}
		fmt.Fprintf(&sb, " AND b1.%s %s b2.%s", schema[ci].Name, op, schema[cj].Name)
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&sb, " LIMIT %d", rng.Intn(20))
		}
		queries = append(queries, sb.String())
	}
	// A fallback shape rides along to prove the harness diffs it too.
	return append(queries, fmt.Sprintf(`SELECT k FROM %s ORDER BY k LIMIT 5`, tb.Name))
}

func TestBatchDifferentialRandomized(t *testing.T) {
	rng := detrand.New(8) // PR seed; the whole suite is reproducible
	batchPlans := 0
	for round := 0; round < 10; round++ {
		tb := randomDiffTable(rng, fmt.Sprintf("t%d", round), 2+rng.Intn(3), 30+rng.Intn(40))
		probe := NewEngine()
		probe.Register(tb)
		for _, sql := range randomDiffQueries(rng, tb) {
			runBothPaths(t, sql, tb)
			if p, err := probe.prepare(sql); err == nil && p.batch != nil {
				batchPlans++
			}
		}
	}
	// The generator must actually exercise the batch path, not fall back
	// everywhere.
	if batchPlans < 80 {
		t.Fatalf("only %d generated queries compiled to batch plans; generator drifted", batchPlans)
	}
}

// FuzzBatchDifferential feeds arbitrary SQL to a batch engine and a
// batch-off engine holding the same two tables — batchTestTable (every
// vectorizable kind) and a seeded randomDiffTable — and requires error
// parity and byte-identical results. Both engines live for the whole run,
// so the plan cache and the per-table cache are exercised warm as well as
// cold. The corpus is seeded with every hand-written batch shape and a
// randomized differential query set over the second table.
func FuzzBatchDifferential(f *testing.F) {
	rng := detrand.New(1)
	tables := []*relation.Table{batchTestTable("t"), randomDiffTable(rng, "r", 4, 50)}
	for _, shapes := range [][]string{batchScanShapes, batchJoinShapes, batchFallbackShapes, randomDiffQueries(rng, tables[1])} {
		for _, sql := range shapes {
			f.Add(sql)
		}
	}
	eb, ef := NewEngine(), NewEngine()
	ef.batchOff = true
	for _, tb := range tables {
		eb.Register(tb)
		ef.Register(tb)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		requireSamePaths(t, eb, ef, sql)
	})
}

// TestConcurrentBatchVectorBuilds hammers one engine's lazy artifacts —
// column vectors, typed join indexes, formatted caches — from many
// goroutines at once. Run under -race in CI; correctness of the shared
// build is asserted by comparing every result against a sequential
// fallback engine.
func TestConcurrentBatchVectorBuilds(t *testing.T) {
	tb := batchTestTable("t")
	want := map[string]string{}
	ref := NewEngine()
	ref.batchOff = true
	ref.Register(tb)
	queries := []string{
		`SELECT k, s FROM t WHERE n > 2`,
		`SELECT CONCAT(k, ' ', s, ' ', d) AS txt FROM t`,
		`SELECT b1.k, b2.n FROM t b1, t b2 WHERE b1.k = b2.k AND b1.n <> b2.n`,
		`SELECT b1.s FROM t b1, t b2 WHERE b1.s = b2.s AND b1.n < b2.n`,
		`SELECT CONCAT(b1.k, '>', b2.f) AS txt FROM t b1, t b2 WHERE b1.k = b2.k AND b1.f > b2.f`,
		`SELECT DISTINCT CONCAT(b1.k, ':', b2.b) AS txt FROM t b1, t b2 WHERE b1.k = b2.k`,
	}
	for _, sql := range queries {
		res, err := ref.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		want[sql] = tableFingerprint(res)
	}

	e := NewEngine()
	e.Register(tb)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers*len(queries))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for _, sql := range queries {
					res, err := e.Query(sql)
					if err != nil {
						errs <- fmt.Errorf("%q: %v", sql, err)
						return
					}
					if got := tableFingerprint(res); got != want[sql] {
						errs <- fmt.Errorf("%q: concurrent result diverges", sql)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
