package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/annotate"
	"repro/internal/artifact"
	"repro/internal/corpus"
	"repro/internal/kb"
	"repro/internal/model"
	"repro/internal/profiling"
	"repro/internal/pythia"
	"repro/internal/relation"
)

// ingestTextgen runs a sequence of mid-size tables, each through
// ReadCSV → ProfileTable → DiscoverWithProfile with a trained data model →
// text-generation GenerateStream → NDJSON. Every table gets a fresh engine,
// so nothing an engine caches is reused: the working set is larger than
// the cache. Set-up trains the model and round-trips it through an
// artifact, as `pythia train -save` followed by `generate -model` would.
func ingestTextgen(cfg config) (*result, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	tables, err := makeTables(append(append([]string(nil), schemas...), wideSchemas...), cfg.sizes.textgenRows, rng)
	if err != nil {
		return nil, err
	}
	r := newResult()
	var pred model.Predictor
	var trainMS, loadMS []float64
	for i := 0; i < cfg.sizes.textgenSetups; i++ {
		start := time.Now()
		m, train, load, err := trainAndLoad(cfg)
		if err != nil {
			return nil, err
		}
		r.setup = append(r.setup, time.Since(start).Seconds())
		trainMS, loadMS = append(trainMS, ms(train)), append(loadMS, ms(load))
		pred = m
	}
	r.layer("model.train_ms", quantile(trainMS, 0.5))
	r.layer("artifact.load_ms", quantile(loadMS, 0.5))

	pairs := map[string]int{}
	var buf bytes.Buffer
	table := func(in *table, traced bool) (tableTimes, error) {
		var tr *tracer
		if traced {
			tr = r.tr
		}
		r.attempted++
		buf.Reset()
		tt, err := textgenTable(in, pred, &buf, tr, r.attempted)
		if err != nil {
			return tt, err
		}
		pairs[in.name] = tt.pairs
		n, err := r.verify(in.name, &buf)
		if err == nil && n != tt.examples {
			err = fmt.Errorf("%s: %d lines, %d examples encoded", in.name, n, tt.examples)
		}
		return tt, err
	}

	for i := 0; i < warmup*len(tables); i++ {
		if _, err := table(tables[i%len(tables)], false); err != nil {
			r.fail(err)
		}
	}
	r.begin(cfg)
	// Whole sequences only, so every table weighs the same in every run.
	for i := 0; i == 0 || time.Since(r.start).Seconds() < cfg.seconds || i%len(tables) != 0; i++ {
		runtime.GC() // every table starts from a collected heap, like a fresh process
		in := tables[i%len(tables)]
		traced := cfg.trace && (i/len(tables))%2 == 0 // alternate whole sequences
		tt, err := table(in, traced)
		if err != nil {
			r.fail(err)
			continue
		}
		r.op(traced, in.name, tt.total)
		r.cold.add(in.name, tt.total) // every table starts with an empty engine
		r.writes.add(in.name, tt.ingest)
		r.examples += int64(tt.examples)
		r.busy += tt.total
	}
	r.end()
	var total int
	for _, n := range pairs {
		total += n
	}
	r.layer("model.pairs_per_table", float64(total)/float64(len(pairs)))
	return r, matchReference(cfg.ref, &r.out)
}

// trainAndLoad trains the data model on a small corpus, saves it as an
// artifact and loads it back.
func trainAndLoad(cfg config) (m *model.MetadataModel, train, load time.Duration, err error) {
	knowledge := kb.BuildDefault()
	tc := model.DefaultDataConfig()
	tc.Tables = cfg.sizes.trainTables
	tc.Pretrain = knowledge.DefinitionBags()
	tc.Workers = runtime.NumCPU()
	start := time.Now()
	trained, err := model.Train("Data", corpus.NewDefaultGenerator(), annotate.All(knowledge), tc)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("train: %w", err)
	}
	train = time.Since(start)
	path := filepath.Join(cfg.dir, "model.json")
	fp := artifact.ModelFingerprint("data", tc)
	if err := artifact.SaveModel(path, trained, fp); err != nil {
		return nil, 0, 0, err
	}
	start = time.Now()
	m, err = artifact.LoadModel(path, fp)
	return m, train, time.Since(start), err
}

// tableTimes are the client-visible times of one table.
type tableTimes struct {
	total    time.Duration // ReadCSV call to the last NDJSON line
	ingest   time.Duration // ReadCSV call to metadata ready
	examples int
	pairs    int
}

func textgenTable(in *table, pred model.Predictor, w *bytes.Buffer, tr *tracer, id int) (tableTimes, error) {
	var tt tableTimes
	start := time.Now()
	root := tr.begin(id, -1, "op")
	defer tr.end(root)

	s := tr.begin(id, root, "relation.ReadCSV")
	t, err := relation.ReadCSV(in.name, bytes.NewReader(in.csv))
	tr.end(s)
	if err != nil {
		return tt, err
	}
	s = tr.begin(id, root, "profiling.ProfileTable")
	prof, err := profiling.ProfileTable(t)
	tr.end(s)
	if err != nil {
		return tt, err
	}
	s = tr.begin(id, root, "pythia.DiscoverWithProfile")
	md, err := pythia.DiscoverWithProfile(t, prof, pred)
	tr.end(s)
	if err != nil {
		return tt, err
	}
	tt.ingest = time.Since(start)
	tt.pairs = len(md.Pairs)

	s = tr.begin(id, root, "pythia.NewGenerator")
	g := pythia.NewGenerator(t, md)
	tr.end(s)
	enc := json.NewEncoder(w)
	var encode calls
	gen := tr.begin(id, root, "pythia.GenerateStream")
	err = g.GenerateStream(pythia.Options{Seed: 1, Workers: runtime.NumCPU()}, pythia.SinkFunc(func(ex pythia.Example) error {
		tt.examples++
		if tr == nil {
			return enc.Encode(ex)
		}
		at := time.Now()
		err := enc.Encode(ex)
		encode.add(at)
		return err
	}))
	encode.record(tr, id, gen, "ndjson.Encode")
	tr.end(gen)
	if err != nil {
		return tt, err
	}
	tt.total = time.Since(start)
	return tt, nil
}
