package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/kb"
	"repro/internal/model"
	"repro/internal/profiling"
	"repro/internal/pythia"
	"repro/internal/relation"
	"repro/internal/stream"
)

// templatesBulk is the CLI's `generate -mode templates -max 0 -out DIR`
// path on one Covid-shaped table: CSV in, sharded NDJSON with checkpoints
// out. Each pass starts from the CSV bytes with a fresh engine, as a new
// CLI invocation would.
func templatesBulk(cfg config) (*result, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	in, err := makeTable("Covid", "Covid", cfg.sizes.bulkRows, rng)
	if err != nil {
		return nil, err
	}
	r := newResult()
	var pred model.Predictor
	for i := 0; i < cfg.sizes.bulkSetups; i++ {
		start := time.Now()
		pred = model.NewULabel(kb.BuildDefault())
		r.setup = append(r.setup, time.Since(start).Seconds())
	}

	outDir := filepath.Join(cfg.dir, "templates_bulk")
	defer os.RemoveAll(outDir)
	pass := func(traced bool) (passTimes, error) {
		var tr *tracer
		if traced {
			tr = r.tr
		}
		dir := filepath.Join(outDir, fmt.Sprint(r.attempted))
		defer os.RemoveAll(dir)
		r.attempted++
		pt, err := bulkPass(in, pred, dir, tr, r.attempted)
		if err != nil {
			return pt, err
		}
		n, size, err := readShards(dir, func(rd io.Reader) (int, error) { return r.verify(in.name, rd) })
		if err == nil && n != pt.examples {
			err = fmt.Errorf("shards hold %d examples, the sink counted %d", n, pt.examples)
		}
		if err != nil {
			return pt, err
		}
		r.layer("stream.bytes_per_example", float64(size)/float64(n))
		r.layer("model.pairs_per_table", float64(pt.pairs))
		return pt, nil
	}

	for i := 0; i < warmup; i++ {
		if _, err := pass(false); err != nil {
			r.fail(err)
		}
	}
	r.begin(cfg)
	for i := 0; i == 0 || time.Since(r.start).Seconds() < cfg.seconds; i++ {
		runtime.GC() // every pass starts from a collected heap, like a fresh process
		traced := cfg.trace && i%2 == 0
		pt, err := pass(traced)
		if err != nil {
			r.fail(err)
			continue
		}
		r.op(traced, in.name, pt.total)
		r.cold.add(in.name, pt.total) // every pass starts with an empty engine
		r.writes.add(in.name, pt.ingest)
		r.examples += int64(pt.examples)
		r.busy += pt.total
	}
	r.end()
	return r, matchReference(cfg.ref, &r.out)
}

// passTimes are the client-visible times of one CSV→shards pass.
type passTimes struct {
	total    time.Duration // ReadCSV call to Finish returning
	ingest   time.Duration // ReadCSV call to metadata ready
	examples int
	pairs    int
}

// bulkPass runs the pipeline once. Discover is called as its two steps,
// ProfileTable then DiscoverWithProfile, so each layer gets its own span.
func bulkPass(in *table, pred model.Predictor, dir string, tr *tracer, id int) (passTimes, error) {
	var pt passTimes
	start := time.Now()
	root := tr.begin(id, -1, "op")
	defer tr.end(root)

	s := tr.begin(id, root, "relation.ReadCSV")
	t, err := relation.ReadCSV(in.name, bytes.NewReader(in.csv))
	tr.end(s)
	if err != nil {
		return pt, err
	}
	s = tr.begin(id, root, "profiling.ProfileTable")
	prof, err := profiling.ProfileTable(t)
	tr.end(s)
	if err != nil {
		return pt, err
	}
	s = tr.begin(id, root, "pythia.DiscoverWithProfile")
	md, err := pythia.DiscoverWithProfile(t, prof, pred)
	tr.end(s)
	if err != nil {
		return pt, err
	}
	pt.ingest = time.Since(start)
	pt.pairs = len(md.Pairs)

	opts := pythia.Options{Mode: pythia.Templates, Seed: 1, Workers: runtime.NumCPU()}
	s = tr.begin(id, root, "pythia.NewGenerator")
	g := pythia.NewGenerator(t, md)
	tr.end(s)
	s = tr.begin(id, root, "stream.Open")
	sink, res, err := stream.Open(stream.Config{
		Dir:         dir,
		Fingerprint: opts.Fingerprint(t.Name, "method=ulabel", "tables=0"),
		Seed:        opts.Seed,
	}, false)
	tr.end(s)
	if err != nil {
		return pt, err
	}
	var into pythia.ExampleSink = sink
	var traced *tracedSink
	if tr != nil {
		traced = &tracedSink{sink: sink}
		into = traced
	}
	gen := tr.begin(id, root, "pythia.GenerateStream")
	err = g.GenerateStreamFrom(opts, res, into)
	if traced != nil {
		traced.emit.record(tr, id, gen, "stream.FileSink.Emit")
		traced.unit.record(tr, id, gen, "stream.FileSink.EndUnit")
	}
	tr.end(gen)
	if err != nil {
		return pt, fmt.Errorf("generate: %w", errors.Join(err, sink.Close()))
	}
	s = tr.begin(id, root, "stream.FileSink.Finish")
	err = sink.Finish()
	tr.end(s)
	if err != nil {
		return pt, err
	}
	pt.total = time.Since(start)
	pt.examples = sink.Examples()
	return pt, nil
}

// calls sums the time of repeated calls to one function.
type calls struct {
	first, last time.Time
	dur         time.Duration
	n           int
}

// add records one call that started at start and has just returned.
func (c *calls) add(start time.Time) {
	end := time.Now()
	if c.n == 0 {
		c.first = start
	}
	c.last = end
	c.dur += end.Sub(start)
	c.n++
}

// record stores the calls as one aggregate span.
func (c *calls) record(tr *tracer, trace, parent int, name string) {
	tr.aggregate(trace, parent, name, c.first, c.last, c.dur, c.n)
}

// tracedSink forwards to a FileSink and times every Emit and EndUnit call.
type tracedSink struct {
	sink       *stream.FileSink
	emit, unit calls
}

func (t *tracedSink) Emit(ex pythia.Example) error {
	start := time.Now()
	err := t.sink.Emit(ex)
	t.emit.add(start)
	return err
}

func (t *tracedSink) EndUnit(u int) error {
	start := time.Now()
	err := t.sink.EndUnit(u)
	t.unit.add(start)
	return err
}
