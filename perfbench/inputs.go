package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/corpus"
	"repro/internal/data"
	"repro/internal/relation"
	"repro/internal/vocab"
)

// schemas are the bundled datasets with a two-column composite key. Row and
// full ambiguity need a composite key, so every generated table copies the
// header, column concepts and key structure of one of these and draws fresh
// rows from the workload seed.
var schemas = []string{"Basket", "BasketAcronyms", "Soccer", "Laptop", "Covid", "Movies", "Cities"}

// wideSchemas are bundled datasets keyed by a synthetic id, most with more
// columns: more to profile and more attribute pairs to predict, and no row
// or full ambiguity to generate.
var wideSchemas = []string{"Adults", "WineQuality", "HeartDiseases", "Superstore", "Mushroom", "Abalone"}

// shape is what a generated table keeps from its bundled dataset.
type shape struct {
	header   []string
	kinds    []relation.Kind
	concepts []*vocab.Concept // nil for a column without a concept
	keyCols  []int            // the key: a synthetic id, or a left and a right column
	pools    [][]string       // each key column's bundled values, in first-seen order
}

func loadShape(schema string) (*shape, error) {
	d, err := data.Load(schema)
	if err != nil {
		return nil, err
	}
	t := d.Table
	sh := &shape{header: t.Schema.Names()}
	for i, col := range t.Schema {
		sh.kinds = append(sh.kinds, col.Kind)
		var c *vocab.Concept
		if d.ConceptIDs[i] != "" {
			cc, ok := vocab.Default().ByID(d.ConceptIDs[i])
			if !ok {
				return nil, fmt.Errorf("dataset %s: unknown concept %q", schema, d.ConceptIDs[i])
			}
			c = &cc
		}
		sh.concepts = append(sh.concepts, c)
	}
	for _, name := range d.Key {
		col := t.Schema.Index(name)
		var pool []string
		seen := map[string]bool{}
		for _, row := range t.Rows {
			v := row[col].Format()
			if !seen[v] {
				seen[v] = true
				pool = append(pool, v)
			}
		}
		sh.keyCols, sh.pools = append(sh.keyCols, col), append(sh.pools, pool)
	}
	switch {
	case len(sh.keyCols) == 1 && sh.concepts[sh.keyCols[0]] == nil:
	case len(sh.keyCols) == 2 && sh.kinds[sh.keyCols[0]] == relation.KindString:
	default:
		return nil, fmt.Errorf("dataset %s: want a synthetic id key or a two-column key led by a string", schema)
	}
	return sh, nil
}

// keyValue returns the i-th value of key column k: the bundled values
// first, then fresh values of the same kind past them.
func (sh *shape) keyValue(k, i int) string {
	pool := sh.pools[k]
	if i < len(pool) {
		return pool[i]
	}
	col := sh.keyCols[k]
	last, err := relation.ParseValue(pool[len(pool)-1], sh.kinds[col])
	if err != nil {
		return fmt.Sprintf("%s %d", pool[i%len(pool)], i/len(pool)+1)
	}
	step := int64(i - len(pool) + 1)
	switch sh.kinds[col] {
	case relation.KindDate:
		return relation.DateFromDays(last.AsDays() + 7*step).Format()
	case relation.KindInt:
		return relation.Int(last.AsInt() + step).Format()
	default:
		return fmt.Sprintf("%s %d", pool[i%len(pool)], i/len(pool)+1)
	}
}

// cell draws a non-key cell from the column's concept; a column without
// one is the synthetic id.
func (sh *shape) cell(col, row int, rng *rand.Rand) string {
	if c := sh.concepts[col]; c != nil {
		return corpus.CellValue(c.Values, rng)
	}
	return fmt.Sprint(row + 1)
}

// table is one generated input: a table name and its CSV document.
type table struct {
	name  string
	csv   []byte
	shape *shape
	rows  int
}

// makeTable renders a table of n rows shaped after schema. A two-column
// key is laid out on a grid about as wide as it is tall relative to the
// bundled table, one column wider than needed, so neither key column is
// unique on its own; which (left, right) pairs exist, and every measure,
// come from rng.
func makeTable(name, schema string, n int, rng *rand.Rand) (*table, error) {
	sh, err := loadShape(schema)
	if err != nil {
		return nil, err
	}
	left, right, nr := -1, -1, 1
	grid := make([]int, n)
	if len(sh.keyCols) == 2 {
		left, right = sh.keyCols[0], sh.keyCols[1]
		l0, r0 := float64(len(sh.pools[0])), float64(len(sh.pools[1]))
		nl := int(math.Ceil(math.Sqrt(float64(n) * l0 / r0)))
		nr = (n+nl-1)/nl + 1
		grid = rng.Perm(nl * nr)[:n]
		sort.Ints(grid)
	}

	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(sh.header); err != nil {
		return nil, err
	}
	rec := make([]string, len(sh.header))
	for r, g := range grid {
		for c := range rec {
			switch c {
			case left:
				rec[c] = sh.keyValue(0, g/nr)
			case right:
				rec[c] = sh.keyValue(1, g%nr)
			default:
				rec[c] = sh.cell(c, r, rng)
			}
		}
		if err := w.Write(rec); err != nil {
			return nil, err
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return nil, err
	}
	return &table{name: name, csv: buf.Bytes(), shape: sh, rows: n}, nil
}

// delta renders the j-th appended row for t as a CSV document with header.
// Its id, or its left key value, is new to the table, so the key stays
// unique and the profile keeps the same primary key.
func (t *table) delta(j int, rng *rand.Rand) ([]byte, error) {
	sh := t.shape
	left, right := -1, -1
	if len(sh.keyCols) == 2 {
		left, right = sh.keyCols[0], sh.keyCols[1]
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.Write(sh.header); err != nil {
		return nil, err
	}
	rec := make([]string, len(sh.header))
	for c := range rec {
		switch c {
		case left:
			rec[c] = fmt.Sprintf("%s appended %d", sh.pools[0][j%len(sh.pools[0])], j+1)
		case right:
			rec[c] = sh.keyValue(1, rng.Intn(len(sh.pools[1])))
		default:
			rec[c] = sh.cell(c, t.rows+j, rng)
		}
	}
	if err := w.Write(rec); err != nil {
		return nil, err
	}
	w.Flush()
	return buf.Bytes(), w.Error()
}

// makeTables builds one table per size, cycling through the schemas.
// Schemas and sizes are fixed by the workload, so every seed asks for the
// same amount of work; the seed picks every value.
func makeTables(shapes []string, sizes []int, rng *rand.Rand) ([]*table, error) {
	out := make([]*table, len(sizes))
	for i, n := range sizes {
		schema := shapes[i%len(shapes)]
		t, err := makeTable(fmt.Sprintf("%s_%02d", schema, i), schema, n, rng)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}
