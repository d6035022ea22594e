package pythia

import (
	"fmt"
	"strings"

	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/relation"
	"repro/internal/sqlengine"
	"repro/internal/telemetry"
	"repro/internal/textgen"
)

// pyMet holds the generation pipeline's metric handles. Telemetry only
// observes Algorithm 1 — counters are updated in the deterministic merge
// step or with unit-local tallies, and never influence what is generated
// (the determinism tests run with telemetry on and off).
var pyMet = newPyMet()

type pyMetrics struct {
	units          *telemetry.Counter
	dedupDrops     *telemetry.Counter
	emptyTextDrops *telemetry.Counter
	quotaDrops     *telemetry.Counter
	generateNS     *telemetry.Histogram
	examples       [NoAmb + 1]*telemetry.Counter // indexed by Structure
}

func newPyMet() pyMetrics {
	r := telemetry.Default()
	m := pyMetrics{
		units:          r.Counter("pythia.units"),
		dedupDrops:     r.Counter("pythia.dedup_drops"),
		emptyTextDrops: r.Counter("pythia.empty_text_drops"),
		quotaDrops:     r.Counter("pythia.quota_drops"),
		generateNS:     r.LatencyHistogram("pythia.generate_ns"),
	}
	for s := AttributeAmb; s <= NoAmb; s++ {
		m.examples[s] = r.Counter("pythia.examples." + s.String())
	}
	return m
}

// Mode selects the text production path of Section IV.
type Mode uint8

const (
	// TextGeneration runs the data-to-text generator over the evidence
	// (variety, slower) — the paper's default.
	TextGeneration Mode = iota
	// Templates produces the text inside the SQL SELECT clause
	// (uniform phrasing, millions of examples in seconds).
	Templates
)

// String names the mode.
func (m Mode) String() string {
	if m == Templates {
		return "templates"
	}
	return "text-generation"
}

// Options configures Algorithm 1.
type Options struct {
	// Structures to generate; nil means all three.
	Structures []Structure
	// Matches to generate; nil means both.
	Matches []Match
	// Ops are the claim operators; nil means {">", "<", "="}.
	Ops []string
	// Mode selects text generation vs. templates.
	Mode Mode
	// MaxPerQuery caps the evidence rows consumed per a-query (0 = 4 in
	// text-generation mode, unlimited in template mode).
	MaxPerQuery int
	// Questions interleaves interrogative forms with statements.
	Questions bool
	// Seed drives phrasing variety.
	Seed int64
	// Workers shards the a-query work units across a worker pool
	// (0 = runtime.GOMAXPROCS, 1 = sequential). Output is byte-identical
	// at every worker count: units are enumerated in the canonical
	// op → match → structure → pair/key order, each shard realizes text
	// with the same stateless seeded generator, and shard outputs are
	// merged (and text-deduplicated) in unit order.
	Workers int
}

// defaults fills zero values.
func (o Options) defaults() Options {
	if o.Structures == nil {
		o.Structures = []Structure{AttributeAmb, RowAmb, FullAmb}
	}
	if o.Matches == nil {
		o.Matches = []Match{Contradictory, Uniform}
	}
	if o.Ops == nil {
		o.Ops = []string{">", "<", "="}
	}
	if o.MaxPerQuery == 0 && o.Mode == TextGeneration {
		o.MaxPerQuery = 4
	}
	return o
}

// Generator generates examples for one table given its metadata. It holds
// no per-run mutable state — the table, metadata and engine are fixed at
// construction and text generators are created per run or per shard — so
// one Generator serves concurrent Generate/GenerateStream/NotAmbiguous/
// AggregateComparisons calls; the engine's snapshot registry even lets
// AggregateComparisons register a new dimension table while other calls
// are mid-query.
type Generator struct {
	table  *relation.Table
	md     *Metadata
	engine *sqlengine.Engine
}

// NewGenerator prepares a generator: registers the table with a fresh
// engine instance.
func NewGenerator(t *relation.Table, md *Metadata) *Generator {
	return NewGeneratorWith(sqlengine.NewEngine(), t, md)
}

// NewGeneratorWith prepares a generator over a caller-shared engine,
// registering the table into it. The engine's snapshot registry makes the
// registration safe concurrently with queries other generators are running
// on the same engine, so a multi-tenant process (the serving layer) can
// ingest a new table while streaming examples for existing ones. Queries
// bind tables by name: re-registering a name a live generator is streaming
// from switches that stream's later queries to the new rows (each query
// individually consistent) — replace the generator together with the
// registration when that matters.
func NewGeneratorWith(e *sqlengine.Engine, t *relation.Table, md *Metadata) *Generator {
	e.Register(t)
	return &Generator{table: t, md: md, engine: e}
}

// NewGeneratorOver prepares a generator over a table the engine already
// serves under t.Name — typically the extended table Engine.Append just
// published. Unlike NewGeneratorWith it does not re-register, so the
// engine keeps the caches Append chose not to invalidate.
func NewGeneratorOver(e *sqlengine.Engine, t *relation.Table, md *Metadata) *Generator {
	return &Generator{table: t, md: md, engine: e}
}

// shard is one worker's execution handle: the generator's shared engine
// plus its own text generator. The engine is safe for concurrent queries
// and caches prepared plans and join indexes internally, so all workers
// draw from one cache instead of re-parsing and re-indexing per shard.
// textgen.Generator chooses phrasings by hashing (seed, content) — it
// carries no mutable stream state — so per-shard generators with the
// sequential seed realize exactly the text the sequential path would,
// no matter which worker claims which unit.
type shard struct {
	engine *sqlengine.Engine
	gen    *textgen.Generator
}

// newShard builds a worker's state over the shared engine.
func (g *Generator) newShard(opts Options) *shard {
	return &shard{engine: g.engine, gen: textgen.NewGenerator(opts.Seed)}
}

// unit is one shardable a-query instance of Algorithm 1: a (structure,
// match, op, pair-or-key) combination. Units run independently on any
// shard and return their examples in the same order the sequential loops
// would, in a buffer sized from the a-query's row count up front.
type unit func(sh *shard) ([]Example, error)

// ExampleSink consumes the deduplicated example stream of GenerateStream
// in canonical order. Emit is never called concurrently; an Emit error
// aborts the stream and is returned from GenerateStream.
type ExampleSink interface {
	Emit(ex Example) error
}

// SinkFunc adapts a function to an ExampleSink.
type SinkFunc func(Example) error

// Emit calls f.
func (f SinkFunc) Emit(ex Example) error { return f(ex) }

// UnitSink is optionally implemented by sinks that need unit boundaries —
// checkpointing sinks above all. EndUnit(u) is called after the last
// example of absolute unit u has been emitted; at that point every example
// of every unit <= u has reached the sink, which is exactly the guarantee
// a resume manifest records.
type UnitSink interface {
	EndUnit(unit int) error
}

// Resume positions a streaming run after an already-flushed prefix: units
// below NextUnit are skipped entirely and Seen carries the text-dedup set
// replayed from the flushed output, so the continued stream is
// byte-identical to the suffix an uninterrupted run would have produced.
// The zero value means "start from the beginning".
type Resume struct {
	NextUnit int
	Seen     map[string]bool
}

// Generate runs Algorithm 1 and returns the examples, deduplicated by text.
// Work is sharded across opts.Workers workers; see Options.Workers for the
// determinism contract. It is a thin slice-collecting wrapper over
// GenerateStream — callers producing large outputs should stream into a
// sink instead of materializing.
func (g *Generator) Generate(opts Options) ([]Example, error) {
	var out []Example
	err := g.GenerateStream(opts, SinkFunc(func(ex Example) error {
		out = append(out, ex)
		return nil
	}))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// GenerateStream runs Algorithm 1 and pushes each example to sink as soon
// as its unit's canonical position is reached, without materializing the
// stream: per-unit workers emit through a bounded channel into an ordered
// merge loop (parallel.StreamShards), which applies the text dedup exactly
// where the sequential emit loop would and forwards survivors to the sink.
// Memory is bounded by the reorder window — O(workers) buffered units —
// plus the dedup set, regardless of output size. The byte stream is
// identical to Generate's at every worker count.
func (g *Generator) GenerateStream(opts Options, sink ExampleSink) error {
	return g.GenerateStreamFrom(opts, Resume{}, sink)
}

// GenerateStreamFrom is GenerateStream continuing from a resume position:
// units below res.NextUnit are skipped (their output is assumed already
// flushed by a previous run) and res.Seen seeds the dedup set. If sink
// implements UnitSink, EndUnit is invoked with absolute unit indices, so a
// checkpoint written at unit u on the first run and a resume at NextUnit
// u+1 compose into one byte-identical total stream.
func (g *Generator) GenerateStreamFrom(opts Options, res Resume, sink ExampleSink) error {
	tm := pyMet.generateNS.Time()
	defer tm.Stop()
	opts = opts.defaults()
	units := g.units(opts)
	if res.NextUnit < 0 || res.NextUnit > len(units) {
		return fmt.Errorf("pythia: resume unit %d out of range [0, %d]", res.NextUnit, len(units))
	}
	active := units[res.NextUnit:]
	pyMet.units.Add(int64(len(active)))
	seen := res.Seen
	if seen == nil {
		seen = map[string]bool{}
	}
	boundary, _ := sink.(UnitSink)

	// The merge loop below runs on this goroutine only, so the dedup set
	// and drop tallies need no locking. Generation never feeds back into
	// later units (quota counting is per-unit and pre-dedup), so filtering
	// at the merge is equivalent to filtering during generation.
	dedupDrops, emptyDrops := 0, 0
	err := parallel.StreamShards(parallel.Workers(opts.Workers), len(active),
		func(int) *shard { return g.newShard(opts) },
		func(sh *shard, i int) ([]Example, error) { return active[i](sh) },
		func(i int, exs []Example) error {
			for _, ex := range exs {
				if ex.Text == "" {
					emptyDrops++
					continue
				}
				if seen[ex.Text] {
					dedupDrops++
					continue
				}
				seen[ex.Text] = true
				ex.Dataset = g.table.Name
				pyMet.examples[ex.Structure].Inc()
				if err := sink.Emit(ex); err != nil {
					return err
				}
			}
			if boundary != nil {
				return boundary.EndUnit(res.NextUnit + i)
			}
			return nil
		})
	pyMet.dedupDrops.Add(int64(dedupDrops))
	pyMet.emptyTextDrops.Add(int64(emptyDrops))
	return err
}

// units enumerates the work units in the canonical order of Algorithm 1's
// loops: operator, then match type, then structure, then the structure's
// own pair/key iteration. The merge step relies on this order being
// identical to the sequential emission order.
func (g *Generator) units(opts Options) []unit {
	var us []unit
	for _, op := range opts.Ops {
		for _, match := range opts.Matches {
			for _, st := range opts.Structures {
				switch st {
				case AttributeAmb:
					us = append(us, g.attrUnits(op, match, opts)...)
				case RowAmb:
					us = append(us, g.rowUnits(op, match, opts)...)
				case FullAmb:
					us = append(us, g.fullUnits(op, match, opts)...)
				}
			}
		}
	}
	return us
}

// opAllowed reports whether an operator applies to a column kind: order
// operators need numeric columns; equality works for every kind.
func opAllowed(op string, kind relation.Kind) bool {
	switch op {
	case "=", "<>":
		return true
	default:
		return kind.Numeric()
	}
}

// attrUnits enumerates attribute-ambiguity units: one a-query per
// discovered ambiguous pair (lines 10-16 of Algorithm 1).
func (g *Generator) attrUnits(op string, match Match, opts Options) []unit {
	pk := g.md.Profile.PrimaryKey
	if len(pk) == 0 {
		return nil // no key: subjects cannot be precisely identified
	}
	var us []unit
	for _, pair := range g.md.Pairs {
		ka, oka := g.table.Schema.Column(pair.AttrA)
		kb, okb := g.table.Schema.Column(pair.AttrB)
		if !oka || !okb || inKey(pk, pair.AttrA) || inKey(pk, pair.AttrB) {
			continue
		}
		if !opAllowed(op, ka.Kind) || !opAllowed(op, kb.Kind) {
			continue
		}
		pair := pair
		us = append(us, func(sh *shard) ([]Example, error) {
			return g.attrPair(sh, pair, op, match, opts)
		})
	}
	return us
}

// attrPair runs one attribute-ambiguity a-query instance.
func (g *Generator) attrPair(sh *shard, pair model.Pair, op string, match Match, opts Options) ([]Example, error) {
	pk := g.md.Profile.PrimaryKey
	if opts.Mode == Templates {
		q := attrTemplateQuery(g.table.Name, pk, pair.AttrA, pair.AttrB, op, match, pair.Label, opts.MaxPerQuery)
		res, err := sh.engine.Query(q)
		if err != nil {
			return nil, fmt.Errorf("pythia: attribute template query: %w", err)
		}
		exs := make([]Example, 0, len(res.Rows))
		for _, row := range res.Rows {
			exs = append(exs, Example{
				Query: q, Text: row[0].AsString(),
				Structure: AttributeAmb, Match: match,
				Label: pair.Label, Attrs: []string{pair.AttrA, pair.AttrB},
				KeyAttrs: pk, Op: op,
			})
		}
		return exs, nil
	}
	q := attrEvidenceQuery(g.table.Name, pk, pair.AttrA, pair.AttrB, op, match, opts.MaxPerQuery)
	res, err := sh.engine.Query(q)
	if err != nil {
		return nil, fmt.Errorf("pythia: attribute evidence query: %w", err)
	}
	exs := make([]Example, 0, len(res.Rows))
	for i, row := range res.Rows {
		n := len(pk)
		keys1 := keyCells(pk, row[:n])
		keys2 := keyCells(pk, row[n:2*n])
		evidence := append(append([]textgen.Cell{}, keys1...), keys2...)
		evidence = append(evidence,
			textgen.Cell{Attr: pair.Label, Value: row[2*n].Format()},
			textgen.Cell{Attr: pair.Label, Value: row[2*n+1].Format()},
			textgen.Cell{Attr: pair.Label, Value: row[2*n+2].Format()},
			textgen.Cell{Attr: pair.Label, Value: row[2*n+3].Format()},
		)
		var text string
		question := opts.Questions && i%2 == 1
		if question {
			text = sh.gen.ComparativeQuestion(keys1, keys2, pair.Label, op)
		} else {
			text = sh.gen.Comparative(keys1, keys2, pair.Label, op)
		}
		exs = append(exs, Example{
			Query: q, Text: text, IsQuestion: question,
			Structure: AttributeAmb, Match: match,
			Label: pair.Label, Attrs: []string{pair.AttrA, pair.AttrB},
			KeyAttrs: pk, Evidence: evidence, Op: op,
		})
	}
	return exs, nil
}

// rowUnits enumerates row-ambiguity units: one a-query per composite key
// and non-key attribute (lines 17-24 of Algorithm 1). Uniform evidence is
// only defined for the equality claim (two distinct rows, same value).
func (g *Generator) rowUnits(op string, match Match, opts Options) []unit {
	if match == Uniform && op != "=" {
		return nil
	}
	if op == "<>" {
		return nil // "does not have" claims are not in the paper's templates
	}
	var us []unit
	for _, ck := range g.compositeKeys() {
		for _, att := range g.md.Profile.NonKeyAttributes() {
			col, ok := g.table.Schema.Column(att)
			if !ok || !opAllowed(op, col.Kind) {
				continue
			}
			ck, att := ck, att
			us = append(us, func(sh *shard) ([]Example, error) {
				return g.rowKeyAttr(sh, ck, att, op, match, opts)
			})
		}
	}
	return us
}

// rowKeyAttr runs one row-ambiguity a-query instance.
func (g *Generator) rowKeyAttr(sh *shard, ck []string, att, op string, match Match, opts Options) ([]Example, error) {
	subset, rest := ck[:1], ck[1:]
	if opts.Mode == Templates {
		q := rowTemplateQuery(g.table.Name, subset, rest, att, op, match, opts.MaxPerQuery)
		res, err := sh.engine.Query(q)
		if err != nil {
			return nil, fmt.Errorf("pythia: row template query: %w", err)
		}
		exs := make([]Example, 0, len(res.Rows))
		for _, row := range res.Rows {
			exs = append(exs, Example{
				Query: q, Text: row[0].AsString(),
				Structure: RowAmb, Match: match,
				Attrs: []string{att}, KeyAttrs: subset, Op: op,
			})
		}
		return exs, nil
	}
	q := rowEvidenceQuery(g.table.Name, subset, rest, att, op, match, opts.MaxPerQuery)
	res, err := sh.engine.Query(q)
	if err != nil {
		return nil, fmt.Errorf("pythia: row evidence query: %w", err)
	}
	exs := make([]Example, 0, len(res.Rows))
	for i, row := range res.Rows {
		n := len(subset)
		partial := keyCells(subset, row[:n])
		v1, v2 := row[n], row[n+1]
		claim := v1
		if match == Contradictory && op != "=" {
			claim = v2 // "more than {lesser}" so interpretations split
		}
		measure := textgen.Cell{Attr: att, Value: claim.Format()}
		evidence := append(append([]textgen.Cell{}, partial...),
			textgen.Cell{Attr: att, Value: v1.Format()},
			textgen.Cell{Attr: att, Value: v2.Format()},
		)
		var text string
		question := opts.Questions && i%2 == 1
		if question {
			text = sh.gen.RowQuestion(partial, measure, op)
		} else {
			text = sh.gen.RowStatement(partial, measure, op)
		}
		exs = append(exs, Example{
			Query: q, Text: text, IsQuestion: question,
			Structure: RowAmb, Match: match,
			Attrs: []string{att}, KeyAttrs: subset, Evidence: evidence, Op: op,
		})
	}
	return exs, nil
}

// fullUnits enumerates full-ambiguity units: partial subject plus an
// ambiguous attribute pair (lines 25-34 of Algorithm 1). The claim is an
// equality; each evidence row is classified uniform or contradictory by
// comparing all four interpretations, mirroring the paper's note that Q3
// returns both kinds.
func (g *Generator) fullUnits(op string, match Match, opts Options) []unit {
	if op != "=" {
		return nil
	}
	var us []unit
	for _, ck := range g.compositeKeys() {
		for _, pair := range g.md.Pairs {
			if inKey(ck, pair.AttrA) || inKey(ck, pair.AttrB) {
				continue
			}
			if _, ok := g.table.Schema.Column(pair.AttrA); !ok {
				continue
			}
			if _, ok := g.table.Schema.Column(pair.AttrB); !ok {
				continue
			}
			ck, pair := ck, pair
			us = append(us, func(sh *shard) ([]Example, error) {
				return g.fullKeyPair(sh, ck, pair, op, match, opts)
			})
		}
	}
	return us
}

// fullKeyPair runs one full-ambiguity a-query instance.
func (g *Generator) fullKeyPair(sh *shard, ck []string, pair model.Pair, op string, match Match, opts Options) ([]Example, error) {
	subset, rest := ck[:1], ck[1:]
	if opts.Mode == Templates {
		q := fullTemplateQuery(g.table.Name, subset, rest, pair.AttrA, pair.Label, opts.MaxPerQuery)
		res, err := sh.engine.Query(q)
		if err != nil {
			return nil, fmt.Errorf("pythia: full template query: %w", err)
		}
		exs := make([]Example, 0, len(res.Rows))
		for _, row := range res.Rows {
			exs = append(exs, Example{
				Query: q, Text: row[0].AsString(),
				Structure: FullAmb, Match: match,
				Label: pair.Label, Attrs: []string{pair.AttrA, pair.AttrB},
				KeyAttrs: subset, Op: op,
			})
		}
		return exs, nil
	}
	// The quota counts rows of the requested match kind, but the query
	// returns both kinds interleaved — so it must run unbounded and stop
	// when the quota fills. A fixed fetch window (the old MaxPerQuery*2)
	// silently under-fills whenever the window is dominated by the other
	// kind.
	q := fullEvidenceQuery(g.table.Name, subset, rest, pair.AttrA, pair.AttrB, 0)
	res, err := sh.engine.Query(q)
	if err != nil {
		return nil, fmt.Errorf("pythia: full evidence query: %w", err)
	}
	size := len(res.Rows)
	if opts.MaxPerQuery > 0 && opts.MaxPerQuery < size {
		size = opts.MaxPerQuery
	}
	exs := make([]Example, 0, size)
	for i, row := range res.Rows {
		if opts.MaxPerQuery > 0 && len(exs) >= opts.MaxPerQuery {
			pyMet.quotaDrops.Add(int64(len(res.Rows) - i))
			break
		}
		n := len(subset)
		partial := keyCells(subset, row[:n])
		vals := row[n : n+4] // b1.a1, b1.a2, b2.a1, b2.a2
		claim := vals[0]
		uniform := true
		for _, v := range vals[1:] {
			if !v.Equal(claim) {
				uniform = false
				break
			}
		}
		got := Contradictory
		if uniform {
			got = Uniform
		}
		if got != match {
			continue
		}
		measure := textgen.Cell{Attr: pair.Label, Value: claim.Format()}
		evidence := append(append([]textgen.Cell{}, partial...),
			textgen.Cell{Attr: pair.Label, Value: vals[0].Format()},
			textgen.Cell{Attr: pair.Label, Value: vals[1].Format()},
			textgen.Cell{Attr: pair.Label, Value: vals[2].Format()},
			textgen.Cell{Attr: pair.Label, Value: vals[3].Format()},
		)
		var text string
		question := opts.Questions && i%2 == 1
		if question {
			text = sh.gen.Question(partial, measure)
		} else {
			text = sh.gen.Statement(partial, measure)
		}
		exs = append(exs, Example{
			Query: q, Text: text, IsQuestion: question,
			Structure: FullAmb, Match: match,
			Label: pair.Label, Attrs: []string{pair.AttrA, pair.AttrB},
			KeyAttrs: subset, Evidence: evidence, Op: op,
		})
	}
	return exs, nil
}

// NotAmbiguous generates control examples without data ambiguity: subjects
// identified by the full primary key, claims over a single unambiguous
// attribute. Target applications need them to balance training data.
func (g *Generator) NotAmbiguous(opts Options) ([]Example, error) {
	opts = opts.defaults()
	// A run-local text generator: writing it into the Generator would race
	// with concurrent Generate/AggregateComparisons calls, and textgen
	// phrasing is a pure function of (seed, content) anyway.
	gen := textgen.NewGenerator(opts.Seed)
	pk := g.md.Profile.PrimaryKey
	if len(pk) == 0 {
		return nil, nil
	}
	ambiguous := map[string]bool{}
	for _, p := range g.md.Pairs {
		ambiguous[strings.ToLower(p.AttrA)] = true
		ambiguous[strings.ToLower(p.AttrB)] = true
	}
	// defaults() already resolved MaxPerQuery per mode: 4 in text
	// generation, 0 = unlimited in template mode — mirror that here
	// instead of re-capping template runs at 4 rows.
	max := opts.MaxPerQuery
	if max <= 0 {
		max = len(g.table.Rows)
	}
	var out []Example
	seen := map[string]bool{}
	for _, att := range g.md.Profile.NonKeyAttributes() {
		if ambiguous[strings.ToLower(att)] {
			continue
		}
		col, _ := g.table.Schema.Column(att)
		for i, row := range g.table.Rows {
			if i >= max {
				break
			}
			keys := make([]textgen.Cell, len(pk))
			for j, k := range pk {
				keys[j] = textgen.Cell{Attr: k, Value: row[g.table.Schema.Index(k)].Format()}
			}
			v := row[g.table.Schema.Index(att)]
			for _, op := range opts.Ops {
				if !opAllowed(op, col.Kind) || (op == "<>") {
					continue
				}
				// The claim must hold under its single interpretation:
				// "more than X" claims cite a bound below the true value.
				claim := v
				switch {
				case op == ">" && v.Kind() == relation.KindInt:
					claim = relation.Int(v.AsInt() - 1)
				case op == "<" && v.Kind() == relation.KindInt:
					claim = relation.Int(v.AsInt() + 1)
				case op == ">" && v.Kind() == relation.KindFloat:
					claim = relation.Float(v.AsFloat() - 1)
				case op == "<" && v.Kind() == relation.KindFloat:
					claim = relation.Float(v.AsFloat() + 1)
				}
				measure := textgen.Cell{Attr: att, Value: claim.Format()}
				var text string
				question := opts.Questions && i%2 == 1
				switch {
				case op == "=" && question:
					text = gen.Question(keys, measure)
				case op == "=":
					text = gen.Statement(keys, measure)
				case question:
					text = gen.RowQuestion(keys, measure, op)
				default:
					text = gen.RowStatement(keys, measure, op)
				}
				if text == "" {
					pyMet.emptyTextDrops.Inc()
					continue
				}
				if seen[text] {
					pyMet.dedupDrops.Inc()
					continue
				}
				seen[text] = true
				pyMet.examples[NoAmb].Inc()
				// Evidence carries the true table cell; the text may cite a
				// bound derived from it.
				evidence := append(append([]textgen.Cell{}, keys...), textgen.Cell{Attr: att, Value: v.Format()})
				out = append(out, Example{
					Dataset: g.table.Name, Text: text, IsQuestion: question,
					Match: Uniform, Structure: NoAmb,
					Attrs: []string{att}, KeyAttrs: pk,
					Evidence: evidence, Op: op,
				})
			}
		}
	}
	return out, nil
}

// compositeKeys returns the keys row/full ambiguity may under-identify.
// Small tables make measure columns accidentally unique, so instead of
// every minimal unique column combination we only trust the semantically
// chosen primary key, when it is composite.
func (g *Generator) compositeKeys() [][]string {
	pk := g.md.Profile.PrimaryKey
	if len(pk) < 2 {
		return nil
	}
	return [][]string{pk}
}

// inKey reports whether att is one of the key columns.
func inKey(key []string, att string) bool {
	for _, k := range key {
		if strings.EqualFold(k, att) {
			return true
		}
	}
	return false
}

// keyCells pairs key attribute names with their values.
func keyCells(names []string, vals relation.Row) []textgen.Cell {
	out := make([]textgen.Cell, len(names))
	for i := range names {
		out[i] = textgen.Cell{Attr: names[i], Value: vals[i].Format()}
	}
	return out
}
