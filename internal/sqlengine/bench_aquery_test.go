package sqlengine

import (
	"fmt"
	"testing"

	"repro/internal/relation"
)

// aqueryTable builds a self-join target shaped like a profiled ambiguity
// table: pk is a unique subject key, k1 is the first column of a composite
// key (groups of ten rows), att is a measure with in-group disagreement,
// and a1/a2 are a strongly correlated ambiguous pair. a2 tracks a1 except
// at every 97th row, so the contradictory order pattern
// (b1.a1 > b2.a1 AND b1.a2 < b2.a2) matches only a sparse set of pairs —
// the worst case for the nested loop, which still visits all n² pairs.
func aqueryTable(name string, n int) *relation.Table {
	t := relation.NewTable(name, relation.Schema{
		{Name: "pk", Kind: relation.KindInt},
		{Name: "k1", Kind: relation.KindInt},
		{Name: "att", Kind: relation.KindInt},
		{Name: "a1", Kind: relation.KindInt},
		{Name: "a2", Kind: relation.KindInt},
	})
	for i := 0; i < n; i++ {
		a2 := int64(i)
		if i%97 == 0 {
			a2 -= 3 // sparse contradictions against the ascending a1
		}
		t.Rows = append(t.Rows, relation.Row{
			relation.Int(int64(i)),
			relation.Int(int64(i / 10)),
			relation.Int(int64(i % 23)),
			relation.Int(int64(i)),
			relation.Int(a2),
		})
	}
	return t
}

// attrAmbSQL is the attribute-ambiguity a-query shape (the paper's q1,
// contradictory match): no equi-conjunct, two order conjuncts plus the
// key-inequality — historically the nested-loop path.
func attrAmbSQL(table string) string {
	return fmt.Sprintf(
		`SELECT b1.pk, b2.pk, b1.a1, b2.a1, b1.a2, b2.a2 FROM %s b1, %s b2`+
			` WHERE b1.pk <> b2.pk AND b1.a1 > b2.a1 AND b1.a2 < b2.a2`,
		table, table)
}

// rowAmbSQL is the row-ambiguity a-query shape (the paper's q2,
// contradictory match): one equi-conjunct driving a hash join plus a
// cross-side inequality.
func rowAmbSQL(table string) string {
	return fmt.Sprintf(
		`SELECT b1.k1, b1.att, b2.att FROM %s b1, %s b2`+
			` WHERE b1.k1 = b2.k1 AND b1.att <> b2.att`,
		table, table)
}

// templateSQL is the template-mode shape (the paper's Q1 family): the
// sentence is produced inside the SELECT clause by CONCAT.
func templateSQL(table string) string {
	return fmt.Sprintf(
		`SELECT CONCAT(b1.k1, ' has more than ', b2.att, ' att') AS text FROM %s b1, %s b2`+
			` WHERE b1.k1 = b2.k1 AND b1.att > b2.att`,
		table, table)
}

// benchQuery runs one SQL text repeatedly against a fresh registration of
// the standard a-query table.
func benchQuery(b *testing.B, rows int, sql string, wantRows bool) {
	b.Helper()
	benchQueryEngine(b, NewEngine(), rows, sql, wantRows)
}

// benchQueryFallback is benchQuery with the columnar path disabled, so the
// batch speedup is measurable on one machine (the CI floor gate compares
// the two).
func benchQueryFallback(b *testing.B, rows int, sql string, wantRows bool) {
	b.Helper()
	e := NewEngine()
	e.batchOff = true
	benchQueryEngine(b, e, rows, sql, wantRows)
}

func benchQueryEngine(b *testing.B, e *Engine, rows int, sql string, wantRows bool) {
	b.Helper()
	e.Register(aqueryTable("T", rows))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Query(sql)
		if err != nil {
			b.Fatal(err)
		}
		if wantRows && res.NumRows() == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkAQueryAttributeAmbiguity is the sparse contradictory self-join:
// the shape that falls into the O(n²) nested loop without a range join.
func BenchmarkAQueryAttributeAmbiguity(b *testing.B) {
	benchQuery(b, 2000, attrAmbSQL("T"), true)
}

// BenchmarkAQueryRowAmbiguity is the equi-join (hash) shape.
func BenchmarkAQueryRowAmbiguity(b *testing.B) {
	benchQuery(b, 5000, rowAmbSQL("T"), true)
}

// BenchmarkAQueryTemplateConcat is template mode: equi-join plus CONCAT
// projection per emitted row.
func BenchmarkAQueryTemplateConcat(b *testing.B) {
	benchQuery(b, 5000, templateSQL("T"), true)
}

// BenchmarkAQueryRowAmbiguityFallback is the equi-join shape forced onto
// the row-at-a-time path.
func BenchmarkAQueryRowAmbiguityFallback(b *testing.B) {
	benchQueryFallback(b, 5000, rowAmbSQL("T"), true)
}

// BenchmarkAQueryTemplateConcatFallback is template mode forced onto the
// row-at-a-time path.
func BenchmarkAQueryTemplateConcatFallback(b *testing.B) {
	benchQueryFallback(b, 5000, templateSQL("T"), true)
}
