package sqlengine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/relation"
)

// seqTable builds a table whose single data column carries its row index,
// so any query result can be checked to be an exact prefix 0..n-1 of the
// append sequence.
func seqTable(t *testing.T, name string, rows int) *relation.Table {
	t.Helper()
	tab := relation.NewTable(name, relation.Schema{
		{Name: "seq", Kind: relation.KindInt},
	})
	for i := 0; i < rows; i++ {
		tab.MustAppend(relation.Row{relation.Int(int64(i))})
	}
	return tab
}

func seqRows(from, to int) []relation.Row {
	rows := make([]relation.Row, 0, to-from)
	for i := from; i < to; i++ {
		rows = append(rows, relation.Row{relation.Int(int64(i))})
	}
	return rows
}

// appendRows is the engine half of an append, as pythia-serve performs it:
// extend the current registration copy-on-write, then publish the
// extension with Swap.
func appendRows(e *Engine, name string, rows []relation.Row) error {
	cur, ok := e.Table(name)
	if !ok {
		return fmt.Errorf("append to unregistered table %q", name)
	}
	ext, err := cur.Extend(rows)
	if err != nil {
		return err
	}
	return e.Swap(cur, ext)
}

// TestEngineAppend covers an append through Extend and Swap: the old
// registration is never mutated, the engine serves the extension, and
// only the appended table's plans and per-table artifacts are invalidated
// — every other registration keeps its warm caches.
func TestEngineAppend(t *testing.T) {
	e := NewEngine()
	base := seqTable(t, "S", 3)
	e.Register(base)
	e.Register(seqTable(t, "U", 4))

	const uJoin = "SELECT a.seq FROM U a, U b WHERE a.seq = b.seq"
	for _, q := range []string{"SELECT seq FROM S", "SELECT seq FROM U", uJoin} {
		if _, err := e.Query(q); err != nil {
			t.Fatalf("warm %q: %v", q, err)
		}
	}

	ext, err := base.Extend(seqRows(3, 5))
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if err := e.Swap(base, ext); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if ext.NumRows() != 5 {
		t.Fatalf("extended table has %d rows, want 5", ext.NumRows())
	}
	// Copy-on-write: the previously registered table must be untouched.
	if base.NumRows() != 3 {
		t.Fatalf("append mutated the old snapshot: base has %d rows, want 3", base.NumRows())
	}
	// The engine's current snapshot serves the extended table, and names
	// resolve case-insensitively.
	if cur, ok := e.Table("s"); !ok || cur != ext {
		t.Fatal("engine snapshot does not serve the extended table")
	}

	// Targeted invalidation: S's plan and artifacts are gone, U's survive.
	if n := e.plans.size(); n != 2 {
		t.Errorf("plan cache size after append = %d, want 2 (U's plans survive)", n)
	}
	e.caches.mu.Lock()
	_, sCached := e.caches.byTable["s"]
	_, uCached := e.caches.byTable["u"]
	e.caches.mu.Unlock()
	if sCached {
		t.Error("S's per-table artifacts survived the append")
	}
	if !uCached {
		t.Error("U's per-table artifacts were dropped by an append to S")
	}
	rebuilt := counterDelta("sqlengine.index_builds", func() {
		if _, err := e.Query(uJoin); err != nil {
			t.Fatalf("Query U: %v", err)
		}
	}) + counterDelta("sqlengine.vector_builds", func() {
		if _, err := e.Query("SELECT seq FROM U"); err != nil {
			t.Fatalf("Query U: %v", err)
		}
	})
	if rebuilt != 0 {
		t.Errorf("U rebuilt %d artifacts after an append to S, want 0", rebuilt)
	}

	res, err := e.Query("SELECT seq FROM s")
	if err != nil {
		t.Fatalf("query after append: %v", err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("query returned %d rows, want 5", len(res.Rows))
	}
}

// TestEngineSwap covers the compute-then-publish half of an append: Swap
// installs a pre-extended table only when the caller's view of the
// registration is still current, and refuses stale or unregistered swaps
// without touching engine state.
func TestEngineSwap(t *testing.T) {
	e := NewEngine()
	base := seqTable(t, "S", 3)
	e.Register(base)

	ext, err := base.Extend(seqRows(3, 5))
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if err := e.Swap(base, ext); err != nil {
		t.Fatalf("Swap: %v", err)
	}
	cur, ok := e.Table("S")
	if !ok || cur != ext {
		t.Fatal("Swap did not publish the extended table")
	}
	res, err := e.Query("SELECT seq FROM S")
	if err != nil {
		t.Fatalf("query after swap: %v", err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("query returned %d rows, want 5", len(res.Rows))
	}

	// A swap against a stale prev must fail and leave the registration as is.
	ext2, err := base.Extend(seqRows(3, 6))
	if err != nil {
		t.Fatalf("Extend: %v", err)
	}
	if err := e.Swap(base, ext2); err == nil {
		t.Fatal("Swap accepted a stale prev, want error")
	}
	if cur, _ := e.Table("S"); cur != ext {
		t.Fatal("failed Swap changed the registration")
	}

	// Swapping a name that was never registered must fail.
	other := seqTable(t, "nosuch", 1)
	if err := e.Swap(other, other); err == nil {
		t.Fatal("Swap of an unregistered table succeeded, want error")
	}
}

// TestStalePlanNeverServesPreAppendRows pins cache invalidation on the
// append path: a plan raced back into the cache after an append (Extend
// then Swap) must be rebuilt against the extended snapshot, not serve the
// shorter table.
func TestStalePlanNeverServesPreAppendRows(t *testing.T) {
	e := NewEngine()
	e.Register(seqTable(t, "S", 3))

	const q = "SELECT seq FROM S"
	if _, err := e.Query(q); err != nil {
		t.Fatalf("warm query: %v", err)
	}
	stale, ok := e.plans.get(q)
	if !ok {
		t.Fatal("plan not cached after first query")
	}
	if err := appendRows(e, "S", seqRows(3, 6)); err != nil {
		t.Fatalf("append: %v", err)
	}
	e.plans.put(q, stale)

	res, err := e.Query(q)
	if err != nil {
		t.Fatalf("query after stale put: %v", err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("stale plan served %d rows, want the 6 post-append rows", len(res.Rows))
	}
}

// TestConcurrentAppendQueryRace hammers one engine with appends racing live
// query traffic on both executors. Under -race it proves the append path
// (Extend then Swap) is data-race free with concurrent readers; on any
// build it asserts the snapshot contract:
// every query observes an exact prefix of the append sequence — never a
// torn suffix, never rows out of order, never fewer rows than already
// observed going in.
func TestConcurrentAppendQueryRace(t *testing.T) {
	e := NewEngine()
	const initial = 8
	e.Register(seqTable(t, "X", initial))
	e.Register(seqTable(t, "Y", initial))

	const (
		appends = 200
		perStep = 2
		readers = 4
		queries = 200
	)
	final := initial + appends*perStep

	var wg sync.WaitGroup
	errs := make(chan error, readers+2)

	// One writer per table (appends to a single table are serialized by the
	// ingest path, so Swap never sees a changed registration); each append
	// publishes the next stamped rows.
	for _, name := range []string{"X", "Y"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for n := initial; n < final; n += perStep {
				if err := appendRows(e, name, seqRows(n, n+perStep)); err != nil {
					errs <- fmt.Errorf("append %s: %w", name, err)
					return
				}
			}
		}(name)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastLen := 0
			for i := 0; i < queries; i++ {
				name := "X"
				if (r+i)%2 == 1 {
					name = "Y"
				}
				res, err := e.Query("SELECT seq FROM " + name)
				if err != nil {
					errs <- err
					return
				}
				// Prefix invariant: n rows means exactly the stamps 0..n-1 in
				// append order.
				if len(res.Rows) < initial || len(res.Rows) > final {
					errs <- fmt.Errorf("result has %d rows, want between %d and %d", len(res.Rows), initial, final)
					return
				}
				for k, row := range res.Rows {
					if got := row[0].AsInt(); got != int64(k) {
						errs <- fmt.Errorf("row %d carries stamp %d: not a prefix of the append sequence", k, got)
						return
					}
				}
				// ORDER BY runs on the row path, which shares the plan cache
				// and must follow the same snapshot discipline.
				ordered, err := e.Query("SELECT seq FROM " + name + " WHERE seq >= 0 ORDER BY seq")
				if err != nil {
					errs <- err
					return
				}
				if n := ordered.NumRows(); n < len(res.Rows) {
					errs <- fmt.Errorf("row path saw %d rows, fewer than the %d just scanned", n, len(res.Rows))
					return
				}
				if r == 0 && name == "X" {
					// A single reader thread's view of one table must be
					// monotone: snapshots never lose appended rows.
					if len(res.Rows) < lastLen {
						errs <- fmt.Errorf("snapshot shrank from %d to %d rows", lastLen, len(res.Rows))
						return
					}
					lastLen = len(res.Rows)
				}
			}
		}(r)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// After the dust settles both tables hold the full sequence.
	for _, name := range []string{"X", "Y"} {
		cur, ok := e.Table(name)
		if !ok || cur.NumRows() != final {
			t.Fatalf("%s has %d rows after the run, want %d", name, cur.NumRows(), final)
		}
	}
}
