package sqlengine

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/relation"
)

// batchTestTable mixes every vectorizable kind with NULLs sprinkled into
// each column, including the join key.
func batchTestTable(name string) *relation.Table {
	t := relation.NewTable(name, relation.Schema{
		{Name: "k", Kind: relation.KindInt},
		{Name: "n", Kind: relation.KindInt},
		{Name: "f", Kind: relation.KindFloat},
		{Name: "s", Kind: relation.KindString},
		{Name: "b", Kind: relation.KindBool},
		{Name: "d", Kind: relation.KindDate},
	})
	words := []string{"ant", "bee", "cat", "", "dog"}
	for i := 0; i < 40; i++ {
		row := relation.Row{
			relation.Int(int64(i % 5)),
			relation.Int(int64(i % 7)),
			relation.Float(float64(i%4) + 0.5),
			relation.String(words[i%len(words)]),
			relation.Bool(i%2 == 0),
			relation.Date(2020, time.January, 1+i%9),
		}
		// NULL every column somewhere, key included.
		if i%11 == 3 {
			row[i%6] = relation.Null
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// tableFingerprint renders a result table so two results compare
// byte-identically: schema names and kinds, then every cell's kind tag,
// hash key and formatted text in row order.
func tableFingerprint(t *relation.Table) string {
	var sb strings.Builder
	for _, c := range t.Schema {
		fmt.Fprintf(&sb, "%s:%v|", c.Name, c.Kind)
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		for _, v := range row {
			fmt.Fprintf(&sb, "%v\x00%s\x00%s\x1f", v.Kind(), v.HashKey(), v.Format())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// runBothPaths executes sql against the same registrations on a batch
// engine and a fallback (batchOff) engine and requires byte-identical
// results. It returns the batch result for further assertions.
func runBothPaths(t *testing.T, sql string, tables ...*relation.Table) *relation.Table {
	t.Helper()
	eb, ef := NewEngine(), NewEngine()
	ef.batchOff = true
	for _, tb := range tables {
		eb.Register(tb)
		ef.Register(tb)
	}
	return requireSamePaths(t, eb, ef, sql)
}

// requireSamePaths runs sql on a batch engine eb and a fallback engine ef
// holding the same registrations: both must fail with the same error, or
// both must return byte-identical tables. It returns the batch result.
func requireSamePaths(t *testing.T, eb, ef *Engine, sql string) *relation.Table {
	t.Helper()
	got, gotErr := eb.Query(sql)
	want, wantErr := ef.Query(sql)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error parity broken for %q: batch err = %v, fallback err = %v", sql, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("errors diverge for %q: batch %q, fallback %q", sql, gotErr, wantErr)
		}
		return nil
	}
	if g, w := tableFingerprint(got), tableFingerprint(want); g != w {
		t.Fatalf("paths diverge for %q:\nbatch:\n%s\nfallback:\n%s", sql, g, w)
	}
	return got
}

// requireBatchPlan asserts whether the statement compiles onto the batch
// path.
func requireBatchPlan(t *testing.T, sql string, want bool, tables ...*relation.Table) {
	t.Helper()
	e := NewEngine()
	for _, tb := range tables {
		e.Register(tb)
	}
	p, err := e.prepare(sql)
	if err != nil {
		t.Fatalf("prepare %q: %v", sql, err)
	}
	if got := p.batch != nil; got != want {
		t.Fatalf("batch plan for %q = %v, want %v", sql, got, want)
	}
}

// batchScanShapes are single-table statements the batch compiler admits.
var batchScanShapes = []string{
	`SELECT * FROM t`,
	`SELECT k, s FROM t WHERE n > 3`,
	`SELECT n FROM t WHERE n >= 2 AND n <= 5 AND k <> 1`,
	`SELECT s FROM t WHERE s = 'cat'`,
	`SELECT s FROM t WHERE s < 'cat'`,
	`SELECT f FROM t WHERE f > 1.4`,
	`SELECT k FROM t WHERE n > f`, // mixed numeric column pair
	`SELECT k FROM t WHERE k = n`, // int column pair
	`SELECT k FROM t WHERE s IS NULL`,
	`SELECT k FROM t WHERE d IS NOT NULL`,
	`SELECT k FROM t WHERE n = NULL`, // NULL literal: always false
	`SELECT k FROM t WHERE s = 3`,    // incomparable kinds, = : never
	`SELECT k FROM t WHERE s <> 3`,   // incomparable kinds, <> : non-NULL pairs
	`SELECT 42, 'lit', k FROM t WHERE b = b`,
	`SELECT CONCAT(k, ' says ', s, '!') AS msg FROM t`,
	`SELECT CONCAT(d, '/', f, '/', b) AS msg FROM t WHERE n < 6`,
	`SELECT DISTINCT k FROM t`,
	`SELECT DISTINCT CONCAT(k, '-', b) AS tag FROM t`,
	`SELECT k FROM t WHERE n > 1 LIMIT 7`,
	`SELECT k FROM t LIMIT 0`,
	`SELECT DISTINCT k FROM t LIMIT 3`,
}

func TestBatchScanShapesMatchRowPath(t *testing.T) {
	tb := batchTestTable("t")
	for _, sql := range batchScanShapes {
		requireBatchPlan(t, sql, true, batchTestTable("t"))
		runBothPaths(t, sql, tb)
	}
}

// batchJoinShapes are self-join statements the batch compiler admits.
var batchJoinShapes = []string{
	`SELECT b1.k, b2.n FROM t b1, t b2 WHERE b1.k = b2.k`,
	`SELECT b1.n, b2.n FROM t b1, t b2 WHERE b1.k = b2.k AND b1.n <> b2.n`,
	`SELECT b1.n FROM t b1, t b2 WHERE b1.k = b2.k AND b1.n > b2.n AND b1.f <= b2.f`,
	`SELECT b1.s, b2.s FROM t b1, t b2 WHERE b1.s = b2.s AND b1.n < b2.n`,   // string key
	`SELECT b1.k FROM t b1, t b2 WHERE b1.b = b2.b AND b1.n > b2.n LIMIT 9`, // bool key
	`SELECT b1.k FROM t b1, t b2 WHERE b1.d = b2.d AND b1.n <> b2.n`,        // date key
	`SELECT b1.k FROM t b1, t b2 WHERE b1.k = b2.k AND b1.n > 2 AND b2.n < 5`,
	`SELECT b1.k FROM t b1, t b2 WHERE b1.k = b2.k AND b1.s IS NOT NULL AND b2.f > 1`,
	`SELECT CONCAT(b1.k, ' beats ', b2.s) AS txt FROM t b1, t b2 WHERE b1.k = b2.k AND b1.n > b2.n`,
	`SELECT DISTINCT CONCAT(b1.k, ':', b2.b) AS txt FROM t b1, t b2 WHERE b1.k = b2.k`,
	`SELECT DISTINCT b1.k FROM t b1, t b2 WHERE b1.k = b2.k AND b1.n <> b2.n LIMIT 4`,
	`SELECT b1.f, b2.d FROM t b1, t b2 WHERE b1.k = b2.k AND b1.f < b2.n`, // mixed numeric cmp
}

func TestBatchJoinShapesMatchRowPath(t *testing.T) {
	tb := batchTestTable("t")
	for _, sql := range batchJoinShapes {
		requireBatchPlan(t, sql, true, batchTestTable("t"))
		runBothPaths(t, sql, tb)
	}
}

// batchFallbackShapes are statements the batch compiler must decline.
var batchFallbackShapes = []string{
	`SELECT k FROM t ORDER BY k`,                                                 // ORDER BY
	`SELECT COUNT(*) FROM t`,                                                     // aggregate
	`SELECT k + 1 FROM t`,                                                        // arithmetic projection
	`SELECT k FROM t WHERE n + 1 > 2`,                                            // arithmetic predicate
	`SELECT k FROM t WHERE s > 3`,                                                // order across incomparable kinds errors on the row path
	`SELECT k FROM t WHERE n > 1 OR n < 4`,                                       // disjunction
	`SELECT b1.k FROM t b1, t b2 WHERE b1.f = b2.f`,                              // float join key
	`SELECT b1.k FROM t b1, t b2 WHERE b1.k = b2.k AND b1.n = b2.n`,              // multi-column key
	`SELECT b1.k FROM t b1, t b2 WHERE b1.n > b2.n`,                              // no equi key
	`SELECT b1.k FROM t b1, t b2 WHERE b1.k = b2.k AND CONCAT(b1.s, b2.s) = 'x'`, // residual
}

func TestBatchCompilerFallsBackOutsideProvenSubset(t *testing.T) {
	tb := batchTestTable("t")
	for _, sql := range batchFallbackShapes {
		requireBatchPlan(t, sql, false, batchTestTable("t"))
		// The fallback still answers; diff it for good measure.
		runBothPaths(t, sql, tb)
	}
}

// TestBatchDeclinesNonVectorizableTable splices a schema-violating cell in,
// which must push execution onto the row path at run time (the plan still
// compiles a batch program — the table's shape is only known when vectors
// build).
func TestBatchDeclinesNonVectorizableTable(t *testing.T) {
	tb := relation.NewTable("t", relation.Schema{{Name: "a", Kind: relation.KindInt}})
	tb.Rows = append(tb.Rows, relation.Row{relation.Int(1)}, relation.Row{relation.String("x")})
	e := NewEngine()
	e.Register(tb)
	before := met.batchRows.Value()
	res, err := e.Query(`SELECT a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", res.NumRows())
	}
	if met.batchRows.Value() != before {
		t.Fatal("batch path emitted rows for a non-vectorizable table")
	}
}

// TestRegisterEvictsVectors is the stale-vector regression: re-registering
// a table must never serve results computed from the previous rows.
func TestRegisterEvictsVectors(t *testing.T) {
	mk := func(vals ...int64) *relation.Table {
		tb := relation.NewTable("t", relation.Schema{{Name: "a", Kind: relation.KindInt}})
		for _, v := range vals {
			tb.Rows = append(tb.Rows, relation.Row{relation.Int(v)})
		}
		return tb
	}
	e := NewEngine()
	e.Register(mk(1, 2, 3))
	const sql = `SELECT a FROM t WHERE a > 1`
	res, err := e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("first run: rows = %d, want 2", res.NumRows())
	}

	builds := met.vectorBuilds.Value()
	e.Register(mk(5, 6, 7, 8))
	res, err = e.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRows() != 4 {
		t.Fatalf("after re-register: rows = %d, want 4 (stale vectors served)", res.NumRows())
	}
	if met.vectorBuilds.Value() != builds+1 {
		t.Fatalf("vector builds delta = %d, want 1 (rebuild for new registration)", met.vectorBuilds.Value()-builds)
	}

	// Same-name re-registration through a fresh table pointer must also
	// self-heal when the cache entry is reached without an invalidate.
	e.caches.byTable["t"] = &tableCache{table: mk(9)} // simulate a stale entry
	tNew, _ := e.Table("t")
	tc := e.caches.forTable("t", tNew)
	if tc.table != tNew {
		t.Fatal("forTable returned an artifact set for a different table identity")
	}
}

func TestBatchMetricsAccounting(t *testing.T) {
	e := NewEngine()
	e.Register(batchTestTable("t"))
	scans := met.batchScans.Value()
	rows := met.batchRows.Value()
	sel := met.batchSelectivity.Count()

	res, err := e.Query(`SELECT k FROM t WHERE n > 3`)
	if err != nil {
		t.Fatal(err)
	}
	if d := met.batchScans.Value() - scans; d != 1 {
		t.Fatalf("batch_scans delta = %d, want 1", d)
	}
	if d := met.batchRows.Value() - rows; d != int64(res.NumRows()) {
		t.Fatalf("batch_rows delta = %d, want %d", d, res.NumRows())
	}
	if d := met.batchSelectivity.Count() - sel; d != 1 {
		t.Fatalf("batch_selectivity observations delta = %d, want 1", d)
	}
}

// TestBatchFormattedCacheMatchesFormat pins the per-column formatted cache
// to Value.Format for every kind, NULLs included.
func TestBatchFormattedCacheMatchesFormat(t *testing.T) {
	tb := batchTestTable("t")
	e := NewEngine()
	e.Register(tb)
	tc := e.caches.forTable("t", tb)
	cs := tc.columns()
	if cs == nil {
		t.Fatal("table not vectorizable")
	}
	for col := range tb.Schema {
		fe := tc.formatted(col, cs)
		for i, row := range tb.Rows {
			if got, want := string(fe.slice(int32(i))), row[col].Format(); got != want {
				t.Fatalf("col %d row %d: cached %q != Format %q", col, i, got, want)
			}
		}
	}
}
