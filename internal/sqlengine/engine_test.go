package sqlengine

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/telemetry"
)

const basketCSV = `Player,Team,FG%,3FG%,fouls,apps
Carter,LA,56,47,4,5
Smith,SF,55,30,4,7
Carter,SF,50,51,3,3
`

func testEngine(t *testing.T) *Engine {
	t.Helper()
	tab, err := relation.ReadCSVString("D", basketCSV)
	if err != nil {
		t.Fatalf("load basket: %v", err)
	}
	e := NewEngine()
	e.Register(tab)
	return e
}

func TestPaperQueryQ1Evidence(t *testing.T) {
	e := testEngine(t)
	// The introduction's q1: pairs of players where FG% and 3FG% disagree.
	res, err := e.Query(`SELECT b1.Player, b1.Team, b2.Player, b2.Team,
	                            b1.FG%, b2.FG%, b1."3FG%", b2."3FG%"
	                     FROM D b1, D b2
	                     WHERE b1.Player <> b2.Player AND b1.Team <> b2.Team AND
	                           b1.FG% > b2.FG% AND b1."3FG%" < b2."3FG%"`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// Carter/LA (56,47) vs Carter/SF (50,51): excluded, same Player.
	// Carter/LA (56,47) vs Smith/SF (55,30): FG% higher but 3FG% higher too -> excluded.
	// Smith/SF (55,30) vs Carter/LA: FG% lower -> excluded.
	// Smith/SF (55,30) vs Carter/SF: same Team -> excluded... wait, teams equal.
	// Carter/SF (50,51) vs Smith/SF: same team.
	// Smith/SF vs Carter/LA (55>56 false). Carter/SF vs Carter/LA same player.
	// Expected: no contradictory pair except... check Carter/LA vs Smith/SF is
	// uniform; the only contradictory pair in Table I is none across teams.
	for _, row := range res.Rows {
		p1, t1 := row[0].AsString(), row[1].AsString()
		p2, t2 := row[2].AsString(), row[3].AsString()
		if p1 == p2 || t1 == t2 {
			t.Errorf("join predicate violated: %v", row)
		}
		if row[4].AsInt() <= row[5].AsInt() || row[6].AsInt() >= row[7].AsInt() {
			t.Errorf("comparison predicates violated: %v", row)
		}
	}
}

func TestPaperQueryQ2RowAmbiguity(t *testing.T) {
	e := testEngine(t)
	// q2: same player, different fouls -> contradictory row-ambiguous evidence.
	res, err := e.Query(`SELECT b1.Player, b1.fouls
	                     FROM D b1, D b2
	                     WHERE b1.Player = b2.Player AND b1.fouls <> b2.fouls`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2 (Carter 4 and Carter 3)", res.NumRows())
	}
	got := map[string]bool{}
	for _, row := range res.Rows {
		got[row[0].AsString()+"/"+row[1].Format()] = true
	}
	if !got["Carter/4"] || !got["Carter/3"] {
		t.Errorf("rows = %v", got)
	}
}

func TestConcatTemplateQuery(t *testing.T) {
	e := testEngine(t)
	res, err := e.Query(`SELECT CONCAT(b1.Player, ' ', b1.Team, ' has higher shooting than ', b2.Player, ' ', b2.Team) AS text
	                     FROM D b1, D b2
	                     WHERE b1.Player <> b2.Player AND b1.Team <> b2.Team AND b1.FG% > b2.FG%`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	found := false
	for _, row := range res.Rows {
		if row[0].AsString() == "Carter LA has higher shooting than Smith SF" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected the paper's sentence; got %v", res)
	}
	if res.Schema[0].Name != "text" || res.Schema[0].Kind != relation.KindString {
		t.Errorf("result schema = %s", res.Schema)
	}
}

func TestSelectStarAndProjectionNames(t *testing.T) {
	e := testEngine(t)
	res, err := e.Query(`SELECT * FROM D`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.NumCols() != 6 || res.NumRows() != 3 {
		t.Errorf("shape = %dx%d", res.NumRows(), res.NumCols())
	}
	res, err = e.Query(`SELECT fouls + apps FROM D`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Schema[0].Name != "col1" || res.Schema[0].Kind != relation.KindInt {
		t.Errorf("derived column = %+v", res.Schema[0])
	}
	if res.Cell(0, 0).AsInt() != 9 {
		t.Errorf("fouls+apps = %#v", res.Cell(0, 0))
	}
}

func TestWhereSingleTable(t *testing.T) {
	e := testEngine(t)
	res, err := e.Query(`SELECT Player FROM D WHERE fouls = 4 AND Team = 'SF'`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.NumRows() != 1 || res.Cell(0, 0).AsString() != "Smith" {
		t.Errorf("result = %v", res)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	e := testEngine(t)
	res, err := e.Query(`SELECT Player, FG% FROM D ORDER BY FG% DESC LIMIT 2`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d", res.NumRows())
	}
	if res.Cell(0, 1).AsInt() != 56 || res.Cell(1, 1).AsInt() != 55 {
		t.Errorf("order = %v", res)
	}
}

func TestDistinct(t *testing.T) {
	e := testEngine(t)
	res, err := e.Query(`SELECT DISTINCT Player FROM D ORDER BY Player`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", res.NumRows())
	}
	if res.Cell(0, 0).AsString() != "Carter" || res.Cell(1, 0).AsString() != "Smith" {
		t.Errorf("distinct = %v", res)
	}
}

func TestIsNullFilter(t *testing.T) {
	tab, err := relation.ReadCSVString("n", "a,b\n1,x\n,y\n")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	e.Register(tab)
	res, err := e.Query(`SELECT b FROM n WHERE a IS NULL`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.NumRows() != 1 || res.Cell(0, 0).AsString() != "y" {
		t.Errorf("result = %v", res)
	}
	res, err = e.Query(`SELECT b FROM n WHERE a IS NOT NULL`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.NumRows() != 1 || res.Cell(0, 0).AsString() != "x" {
		t.Errorf("result = %v", res)
	}
}

func TestNullComparisonsAreFalse(t *testing.T) {
	tab, err := relation.ReadCSVString("n", "a\n1\n\n") // rows: 1, NULL
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	e.Register(tab)
	for _, cond := range []string{"a = 1", "a <> 1", "a < 99", "a >= 0"} {
		res, err := e.Query(`SELECT a FROM n WHERE ` + cond)
		if err != nil {
			t.Fatalf("Query(%s): %v", cond, err)
		}
		for _, row := range res.Rows {
			if row[0].IsNull() {
				t.Errorf("NULL row passed predicate %q", cond)
			}
		}
	}
}

func TestArithmetic(t *testing.T) {
	e := testEngine(t)
	res, err := e.Query(`SELECT FG% - "3FG%", FG% / 2, fouls * 2 FROM D WHERE Player = 'Smith'`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Cell(0, 0).AsInt() != 25 {
		t.Errorf("FG%% - 3FG%% = %#v", res.Cell(0, 0))
	}
	if res.Cell(0, 1).AsFloat() != 27.5 {
		t.Errorf("FG%% / 2 = %#v", res.Cell(0, 1))
	}
	if res.Cell(0, 2).AsInt() != 8 {
		t.Errorf("fouls * 2 = %#v", res.Cell(0, 2))
	}
}

func TestDivisionByZero(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Query(`SELECT FG% / 0 FROM D`); err == nil {
		t.Error("expected division-by-zero error")
	}
}

func TestQueryErrors(t *testing.T) {
	e := testEngine(t)
	bad := []string{
		`SELECT x FROM nope`,
		`SELECT nope FROM D`,
		`SELECT b9.Player FROM D b1`,
		`SELECT Player FROM D b1, D b1`,
		`SELECT Player FROM D WHERE Player > fouls`,      // string vs int comparison
		`SELECT Player FROM D WHERE Player + 1 > 0`,      // arithmetic on string
		`SELECT Player FROM D WHERE fouls`,               // non-bool predicate
		`SELECT Player FROM D b1, D b2 WHERE Player = 1`, // ambiguous column
	}
	for _, src := range bad {
		if _, err := e.Query(src); err == nil {
			t.Errorf("Query(%q): expected error", src)
		}
	}
}

// TestQueryUnknownNameErrors: an unknown table, or an unknown column in any
// clause that names one (SELECT, WHERE, ORDER BY), is rejected.
func TestQueryUnknownNameErrors(t *testing.T) {
	e := NewEngine()
	e.Register(wideTable("W", 10, 3))
	for _, q := range []string{
		`SELECT nope FROM W`,
		`SELECT c0 FROM Missing`,
		`SELECT c0 FROM W ORDER BY nope`,
		`SELECT c0 FROM W WHERE nope = 1`,
	} {
		if _, err := e.Query(q); err == nil {
			t.Errorf("Query(%s) succeeded, want error", q)
		}
	}
}

func TestUnqualifiedColumnSingleTable(t *testing.T) {
	e := testEngine(t)
	res, err := e.Query(`SELECT Player FROM D b1, D b2 WHERE b1.Team = b2.Team AND b1.fouls <> b2.fouls`)
	// "Player" is ambiguous across b1/b2 -> error.
	if err == nil {
		t.Errorf("expected ambiguity error, got %v", res)
	}
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	// Random data; compare hash-join result (equi predicate) with the
	// equivalent manually-computed join.
	rng := rand.New(rand.NewSource(11))
	var b strings.Builder
	b.WriteString("k,v\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "%d,%d\n", rng.Intn(20), rng.Intn(50))
	}
	tab, err := relation.ReadCSVString("r", b.String())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	e.Register(tab)
	res, err := e.Query(`SELECT b1.k, b1.v, b2.v FROM r b1, r b2 WHERE b1.k = b2.k AND b1.v < b2.v`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// Count the expected matches by brute force.
	want := 0
	for _, r1 := range tab.Rows {
		for _, r2 := range tab.Rows {
			if r1[0].Equal(r2[0]) && r1[1].AsInt() < r2[1].AsInt() {
				want++
			}
		}
	}
	if res.NumRows() != want {
		t.Errorf("hash join rows = %d, brute force = %d", res.NumRows(), want)
	}
}

func TestNullNeverEquiJoins(t *testing.T) {
	tab, err := relation.ReadCSVString("n", "k,v\n,1\n,2\nx,3\n")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	e.Register(tab)
	res, err := e.Query(`SELECT b1.v, b2.v FROM n b1, n b2 WHERE b1.k = b2.k`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// Only the x row joins with itself.
	if res.NumRows() != 1 {
		t.Errorf("rows = %d, want 1 (NULL keys must not join)", res.NumRows())
	}
}

func TestOrderByAfterDistinct(t *testing.T) {
	e := testEngine(t)
	res, err := e.Query(`SELECT DISTINCT Team FROM D ORDER BY Team DESC`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.NumRows() != 2 || res.Cell(0, 0).AsString() != "SF" {
		t.Errorf("result = %v", res)
	}
}

// Property: for random predicates over a random table, the engine result
// always matches a brute-force evaluation of the same semantics.
func TestJoinEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ops := []string{"=", "<>", "<", ">", "<=", ">="}
	for trial := 0; trial < 25; trial++ {
		var b strings.Builder
		b.WriteString("a,b,c\n")
		rows := 1 + rng.Intn(40)
		for i := 0; i < rows; i++ {
			fmt.Fprintf(&b, "%d,%d,%d\n", rng.Intn(5), rng.Intn(5), rng.Intn(5))
		}
		tab, err := relation.ReadCSVString("t", b.String())
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine()
		e.Register(tab)
		op1 := ops[rng.Intn(len(ops))]
		op2 := ops[rng.Intn(len(ops))]
		src := fmt.Sprintf(`SELECT b1.a, b2.b FROM t b1, t b2 WHERE b1.a %s b2.a AND b1.b %s b2.c`, op1, op2)
		res, err := e.Query(src)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := 0
		for _, r1 := range tab.Rows {
			for _, r2 := range tab.Rows {
				ok1, _ := compareValues(op1, r1[0], r2[0])
				ok2, _ := compareValues(op2, r1[1], r2[2])
				if ok1 && ok2 {
					want++
				}
			}
		}
		if res.NumRows() != want {
			t.Errorf("trial %d (%s): rows = %d, want %d", trial, src, res.NumRows(), want)
		}
	}
}

func TestConcurrentQueries(t *testing.T) {
	// The engine documents safety for concurrent queries after
	// registration; hammer it from several goroutines.
	e := testEngine(t)
	queries := []string{
		`SELECT Player FROM D WHERE fouls = 4`,
		`SELECT b1.Player, b1.fouls FROM D b1, D b2 WHERE b1.Player = b2.Player AND b1.fouls <> b2.fouls`,
		`SELECT DISTINCT Team FROM D ORDER BY Team`,
		`SELECT Team, COUNT(*) FROM D GROUP BY Team`,
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := e.Query(queries[(g+i)%len(queries)]); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent query failed: %v", err)
	}
}

func TestUnaryMinusOnColumnExpression(t *testing.T) {
	e := testEngine(t)
	res, err := e.Query(`SELECT fouls FROM D WHERE fouls > -fouls`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.NumRows() != 3 {
		t.Errorf("rows = %d, want 3 (all fouls positive)", res.NumRows())
	}
}

func TestOrPredicate(t *testing.T) {
	e := testEngine(t)
	res, err := e.Query(`SELECT Player FROM D WHERE Team = 'LA' OR fouls = 3`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.NumRows() != 2 {
		t.Errorf("rows = %d, want 2", res.NumRows())
	}
}

func TestConcatEmptyAndNull(t *testing.T) {
	tab, err := relation.ReadCSVString("n", "a,b\nx,\n")
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	e.Register(tab)
	res, err := e.Query(`SELECT CONCAT(a, '-', b) FROM n`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	// NULL renders as the empty string inside CONCAT.
	if got := res.Cell(0, 0).AsString(); got != "x-" {
		t.Errorf("CONCAT with NULL = %q, want x-", got)
	}
	res, err = e.Query(`SELECT CONCAT() FROM n`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if got := res.Cell(0, 0).AsString(); got != "" {
		t.Errorf("CONCAT() = %q, want empty", got)
	}
}

func TestLimitZero(t *testing.T) {
	e := testEngine(t)
	res, err := e.Query(`SELECT Player FROM D LIMIT 0`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.NumRows() != 0 {
		t.Errorf("rows = %d, want 0", res.NumRows())
	}
}

func TestLimitPushdownStopsJoinEarly(t *testing.T) {
	// A join whose full output would be large must return quickly with a
	// small LIMIT — and return exactly LIMIT rows.
	var b strings.Builder
	b.WriteString("k,v\n")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i%5, i)
	}
	tab, err := relation.ReadCSVString("big", b.String())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	e.Register(tab)
	start := time.Now()
	res, err := e.Query(`SELECT b1.v, b2.v FROM big b1, big b2 WHERE b1.k = b2.k LIMIT 10`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.NumRows() != 10 {
		t.Errorf("rows = %d, want 10", res.NumRows())
	}
	if time.Since(start) > 2*time.Second {
		t.Errorf("LIMIT pushdown ineffective: took %s", time.Since(start))
	}
}

// wideTable builds a rows×cols table whose values repeat with small
// periods, so DISTINCT and WHERE both have real work to do.
func wideTable(name string, rows, cols int) *relation.Table {
	schema := make(relation.Schema, cols)
	for c := 0; c < cols; c++ {
		schema[c] = relation.Column{Name: fmt.Sprintf("c%d", c), Kind: relation.KindInt}
	}
	t := relation.NewTable(name, schema)
	for r := 0; r < rows; r++ {
		row := make(relation.Row, cols)
		for c := 0; c < cols; c++ {
			row[c] = relation.Int(int64(r % (7 + c)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// TestQueryLimitShortCircuitsRowScan proves the errLimitReached early exit
// of the row path's scan: a LIMIT-k query over a large table must stop
// scanning after k qualifying rows, observed through the
// sqlengine.rows_scanned telemetry counter. (The batch path filters whole
// column vectors and accounts every row, so the engine runs batch-off.)
func TestQueryLimitShortCircuitsRowScan(t *testing.T) {
	const total, limit = 100000, 10
	e := NewEngine()
	e.batchOff = true
	e.Register(wideTable("Big", total, 3))

	scanned := telemetry.Default().Counter("sqlengine.rows_scanned")
	before := scanned.Value()
	res, err := e.Query(fmt.Sprintf(`SELECT c0 FROM Big LIMIT %d`, limit))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.NumRows() != limit {
		t.Fatalf("rows = %d, want %d", res.NumRows(), limit)
	}
	if delta := scanned.Value() - before; delta != limit {
		t.Errorf("scanned %d rows for an unfiltered LIMIT %d query, want exactly %d", delta, limit, limit)
	}

	// With a WHERE filter the scan may pass over non-qualifying rows, but
	// must still stop as soon as the limit fills.
	before = scanned.Value()
	res, err = e.Query(fmt.Sprintf(`SELECT c0 FROM Big WHERE c0 > 0 LIMIT %d`, limit))
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.NumRows() != limit {
		t.Fatalf("rows = %d, want %d", res.NumRows(), limit)
	}
	if delta := scanned.Value() - before; delta >= total/2 {
		t.Errorf("scanned %d of %d rows for a filtered LIMIT %d query; limit did not short-circuit", delta, total, limit)
	}
}

// TestQueryDistinctDropsCounter checks that both DISTINCT sites — the row
// path's sink and the batch emitter — report their dedup drops to
// telemetry.
func TestQueryDistinctDropsCounter(t *testing.T) {
	for _, batchOff := range []bool{false, true} {
		e := NewEngine()
		e.batchOff = batchOff
		e.Register(wideTable("W", 70, 2)) // c0 cycles 0..6 -> 7 distinct, 63 drops
		drops := telemetry.Default().Counter("sqlengine.distinct_drops")
		before := drops.Value()
		res, err := e.Query(`SELECT DISTINCT c0 FROM W`)
		if err != nil {
			t.Fatalf("batchOff=%v: Query: %v", batchOff, err)
		}
		if res.NumRows() != 7 {
			t.Fatalf("batchOff=%v: rows = %d, want 7", batchOff, res.NumRows())
		}
		if delta := drops.Value() - before; delta != 63 {
			t.Errorf("batchOff=%v: distinct_drops delta = %d, want 63", batchOff, delta)
		}
	}
}
