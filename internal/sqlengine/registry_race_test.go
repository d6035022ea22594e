package sqlengine

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/relation"
)

// versionTable builds version v of a test table: every data cell carries
// the version stamp, so any query result mixing two registrations is
// detectable as a non-homogeneous row set.
func versionTable(t *testing.T, name string, version int) *relation.Table {
	t.Helper()
	csv := fmt.Sprintf("K,A,B\nk1,%d,%d\nk2,%d,%d\nk3,%d,%d\n",
		version, version, version, version, version, version)
	tab, err := relation.ReadCSVString(name, csv)
	if err != nil {
		t.Fatalf("versionTable: %v", err)
	}
	return tab
}

// TestConcurrentRegisterQueryRace hammers one engine with registrations of
// two tables racing live Query traffic on both executors. Under -race it
// proves the snapshot registry is data-race free; on any build it asserts
// the per-query consistency contract: a query never observes rows from a
// half-replaced registration — every cell of every result row carries one
// version stamp, and every result has the fixed per-version cardinality.
func TestConcurrentRegisterQueryRace(t *testing.T) {
	e := NewEngine()
	e.Register(versionTable(t, "X", 0))
	e.Register(versionTable(t, "Y", 0))

	const (
		registrations = 300
		readers       = 4
		queriesEach   = 300
	)

	var wg sync.WaitGroup
	errs := make(chan error, readers+2)

	// Two writers, one per table, each publishing fresh versions.
	for _, name := range []string{"X", "Y"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			for v := 1; v <= registrations; v++ {
				e.Register(versionTable(t, name, v))
			}
		}(name)
	}

	// Readers mix batch scans, row-path scans and joins over both tables.
	checkHomogeneous := func(res *relation.Table, lo, width int) error {
		for _, row := range res.Rows {
			v0 := row[lo].AsInt()
			for c := lo; c < lo+width; c++ {
				if row[c].AsInt() != v0 {
					return fmt.Errorf("torn row: %v", row)
				}
			}
		}
		return nil
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < queriesEach; i++ {
				name := "X"
				if (r+i)%2 == 1 {
					name = "Y"
				}
				// Scan path: both data columns must carry one version.
				res, err := e.Query("SELECT A, B FROM " + name)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 3 {
					errs <- fmt.Errorf("scan returned %d rows, want 3", len(res.Rows))
					return
				}
				if err := checkHomogeneous(res, 0, 2); err != nil {
					errs <- err
					return
				}
				// ORDER BY runs on the row path, which shares the plan cache.
				ordered, err := e.Query("SELECT K FROM " + name + " WHERE A = B ORDER BY K")
				if err != nil {
					errs <- err
					return
				}
				if n := ordered.NumRows(); n != 3 {
					errs <- fmt.Errorf("row path returned %d rows, want 3 (A and B always share a version)", n)
					return
				}
				// Join path: each side binds one snapshot, so the left
				// columns agree with each other and the right columns agree
				// with each other, whatever versions the writers are at.
				jres, err := e.Query("SELECT x.A, x.B, y.A, y.B FROM X x, Y y WHERE x.K = y.K")
				if err != nil {
					errs <- err
					return
				}
				if len(jres.Rows) != 3 {
					errs <- fmt.Errorf("join returned %d rows, want 3", len(jres.Rows))
					return
				}
				if err := checkHomogeneous(jres, 0, 2); err != nil {
					errs <- err
					return
				}
				if err := checkHomogeneous(jres, 2, 2); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestStalePlanNeverServesNewRows pins the revalidation gate directly: a
// plan raced back into the cache after its registration was replaced must
// be detected at lookup and rebuilt against the current snapshot, not
// executed over the dead table.
func TestStalePlanNeverServesNewRows(t *testing.T) {
	e := NewEngine()
	e.Register(versionTable(t, "T", 1))

	const q = "SELECT A FROM T"
	if _, err := e.Query(q); err != nil {
		t.Fatalf("warm query: %v", err)
	}
	stale, ok := e.plans.get(q)
	if !ok {
		t.Fatal("plan not cached after first query")
	}

	e.Register(versionTable(t, "T", 2))
	// Simulate the in-flight-builder race: an old query finishes compiling
	// against version 1 and writes its plan back after the registration of
	// version 2 already evicted the name.
	e.plans.put(q, stale)

	res, err := e.Query(q)
	if err != nil {
		t.Fatalf("query after stale put: %v", err)
	}
	for _, row := range res.Rows {
		if got := row[0].AsInt(); got != 2 {
			t.Fatalf("stale plan served version %d rows, want 2", got)
		}
	}
}

// TestRegisterDuringQueryKeepsOldView asserts the other half of the
// contract: a plan prepared before a re-registration keeps executing
// against the snapshot it was built on, so an in-flight query finishes
// over a consistent (old) view instead of a half-replaced one.
func TestRegisterDuringQueryKeepsOldView(t *testing.T) {
	e := NewEngine()
	e.Register(versionTable(t, "T", 1))

	p, err := e.prepare("SELECT A FROM T")
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	e.Register(versionTable(t, "T", 2))

	res, err := e.run(p)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, row := range res.Rows {
		if got := row[0].AsInt(); got != 1 {
			t.Fatalf("in-flight plan read version %d rows, want the pinned version 1", got)
		}
	}
	// A fresh lookup of the same SQL must rebuild and see version 2.
	res, err = e.Query("SELECT A FROM T")
	if err != nil {
		t.Fatalf("fresh query: %v", err)
	}
	for _, row := range res.Rows {
		if got := row[0].AsInt(); got != 2 {
			t.Fatalf("fresh query read version %d rows, want 2", got)
		}
	}
}
