package experiments

// This file is the cold-start figure: what the artifact store and the
// incremental profiling path buy. Part one times training a metadata
// model from scratch against saving and reloading it as an artifact,
// asserting the loaded model generates byte-identically to the freshly
// trained one at every worker count. Part two times a full re-profile +
// re-discovery of an extended table against the incremental append path,
// asserting the two produce identical metadata and identical generated
// bytes.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/annotate"
	"repro/internal/artifact"
	"repro/internal/corpus"
	"repro/internal/kb"
	"repro/internal/model"
	"repro/internal/profiling"
	"repro/internal/pythia"
	"repro/internal/relation"
	"repro/internal/sqlengine"
)

// FigColdStartResult reports the artifact-store and incremental-ingest
// speedups with the identity checks that make them safe to claim.
type FigColdStartResult struct {
	// Part one: train vs save/load of the schema metadata model.
	CorpusTables     int     `json:"corpus_tables"`
	TrainSeconds     float64 `json:"train_seconds"`
	SaveSeconds      float64 `json:"save_seconds"`
	LoadSeconds      float64 `json:"load_seconds"`
	ColdStartSpeedup float64 `json:"coldstart_speedup"` // train / load

	// Part two: full re-profile + re-discovery vs incremental append.
	BaseRows           int     `json:"base_rows"`
	DeltaRows          int     `json:"delta_rows"`
	FullSeconds        float64 `json:"full_reprofile_seconds"`
	IncrementalSeconds float64 `json:"incremental_seconds"`
	AppendSpeedup      float64 `json:"append_speedup"` // full / incremental

	// IdenticalWorkers lists the worker counts at which generation from
	// the loaded model matched the trained model byte-for-byte (and the
	// incremental metadata matched the full recompute) — the sweep must
	// come back [1 2 4 8].
	IdenticalWorkers []int `json:"identical_workers"`
}

// String renders the two phases the way the bench report prints them.
func (r FigColdStartResult) String() string {
	header := []string{"Phase", "Seconds", "Speedup"}
	rows := [][]string{
		{fmt.Sprintf("train (%d tables)", r.CorpusTables), fmt.Sprintf("%.3f", r.TrainSeconds), ""},
		{"save artifact", fmt.Sprintf("%.4f", r.SaveSeconds), ""},
		{"load artifact", fmt.Sprintf("%.4f", r.LoadSeconds), fmt.Sprintf("%.0fx", r.ColdStartSpeedup)},
		{fmt.Sprintf("full re-profile (%d rows)", r.BaseRows+r.DeltaRows), fmt.Sprintf("%.4f", r.FullSeconds), ""},
		{fmt.Sprintf("incremental append (%d rows)", r.DeltaRows), fmt.Sprintf("%.4f", r.IncrementalSeconds), fmt.Sprintf("%.1fx", r.AppendSpeedup)},
	}
	return "Figure — cold start: artifact load vs retrain, incremental vs full ingest\n" +
		renderTable(header, rows) +
		fmt.Sprintf("byte-identical generation at workers %v\n", r.IdenticalWorkers)
}

// coldStartWorkerSweep is the worker-count series every identity check
// runs at; 1 is the sequential reference the others must match.
var coldStartWorkerSweep = []int{1, 2, 4, 8}

// FigColdStart measures the artifact-store and incremental-profiling
// speedups. Both are reported as min-of-trials where timing is cheap to
// repeat; the identity assertions fail the run (rather than skewing a
// number) when either fast path diverges from its from-scratch twin.
func FigColdStart(cfg Config) (FigColdStartResult, error) {
	defer stage("figcoldstart")()
	res := FigColdStartResult{}
	knowledge := kb.BuildDefault()

	// Part one — train once, save, reload, and prove the reload is the
	// same model.
	trainCfg := model.DefaultSchemaConfig()
	trainCfg.Tables = cfg.scaled(2000, 60)
	trainCfg.Seed = cfg.Seed
	trainCfg.Pretrain = knowledge.DefinitionBags()
	trainCfg.Workers = cfg.Workers
	res.CorpusTables = trainCfg.Tables
	cfg.logf("FigColdStart: training schema model on %d tables", trainCfg.Tables)

	start := time.Now()
	trained, err := model.Train("Schema", corpus.NewDefaultGenerator(), annotate.All(knowledge), trainCfg)
	if err != nil {
		return res, fmt.Errorf("experiments: fig coldstart: train: %w", err)
	}
	res.TrainSeconds = time.Since(start).Seconds()

	dir, err := os.MkdirTemp("", "figcoldstart")
	if err != nil {
		return res, fmt.Errorf("experiments: fig coldstart: %w", err)
	}
	defer func() {
		//lint:ignore err-ignored best-effort cleanup of the scratch dir; the measurements are already taken
		_ = os.RemoveAll(dir)
	}()
	path := filepath.Join(dir, "schema-model.json")
	fp := artifact.ModelFingerprint("schema", trainCfg)

	start = time.Now()
	if err := artifact.SaveModel(path, trained, fp); err != nil {
		return res, fmt.Errorf("experiments: fig coldstart: save: %w", err)
	}
	res.SaveSeconds = time.Since(start).Seconds()

	start = time.Now()
	loaded, err := artifact.LoadModel(path, fp)
	if err != nil {
		return res, fmt.Errorf("experiments: fig coldstart: load: %w", err)
	}
	res.LoadSeconds = time.Since(start).Seconds()
	if res.LoadSeconds > 0 {
		res.ColdStartSpeedup = res.TrainSeconds / res.LoadSeconds
	}

	identTable := coldStartTable(cfg.scaled(1200, 200))
	mdTrained, err := pythia.Discover(identTable, trained)
	if err != nil {
		return res, fmt.Errorf("experiments: fig coldstart: discover (trained): %w", err)
	}
	mdLoaded, err := pythia.Discover(identTable, loaded)
	if err != nil {
		return res, fmt.Errorf("experiments: fig coldstart: discover (loaded): %w", err)
	}
	if !reflect.DeepEqual(mdTrained.Pairs, mdLoaded.Pairs) {
		return res, fmt.Errorf("experiments: fig coldstart: loaded model predicts different pairs than the trained one")
	}

	// Part two — extend a wide Covid-like table by 5% of its rows and
	// compare the incremental path against profiling + discovery from
	// scratch. The ulabel predictor keeps the comparison about profiling
	// cost, not model inference.
	baseRows := cfg.scaled(24000, 4000)
	deltaRows := baseRows / 20
	if deltaRows < 200 {
		deltaRows = 200
	}
	res.BaseRows, res.DeltaRows = baseRows, deltaRows
	full := coldStartTable(baseRows + deltaRows)
	base := &relation.Table{Name: full.Name, Schema: full.Schema, Rows: full.Rows[:baseRows:baseRows]}
	delta := full.Rows[baseRows:]
	pred := model.NewULabel(knowledge)

	const trials = 3
	var mdFull *pythia.Metadata
	for i := 0; i < trials; i++ {
		start = time.Now()
		prof, err := profiling.ProfileTable(full)
		if err != nil {
			return res, fmt.Errorf("experiments: fig coldstart: full profile: %w", err)
		}
		mdFull, err = pythia.DiscoverWithProfile(full, prof, pred)
		if err != nil {
			return res, fmt.Errorf("experiments: fig coldstart: full discover: %w", err)
		}
		if sec := time.Since(start).Seconds(); i == 0 || sec < res.FullSeconds {
			res.FullSeconds = sec
		}
	}

	var mdInc *pythia.Metadata
	var ext *relation.Table
	for i := 0; i < trials; i++ {
		eng := sqlengine.NewEngine()
		eng.Register(base)
		inc, err := profiling.NewIncremental(base)
		if err != nil {
			return res, fmt.Errorf("experiments: fig coldstart: base profile: %w", err)
		}
		baseMd, err := pythia.DiscoverWithProfile(base, inc.Profile(), pred)
		if err != nil {
			return res, fmt.Errorf("experiments: fig coldstart: base discover: %w", err)
		}
		// The timed region is pythia-serve's append: extend and derive off
		// the engine, then publish with Swap.
		start = time.Now()
		ext, err = base.Extend(delta)
		if err != nil {
			return res, fmt.Errorf("experiments: fig coldstart: extend: %w", err)
		}
		if _, err := inc.Append(ext, baseRows); err != nil {
			return res, fmt.Errorf("experiments: fig coldstart: incremental profile: %w", err)
		}
		mdInc, err = pythia.UpdateMetadata(baseMd, pred, ext, inc, baseRows)
		if err != nil {
			return res, fmt.Errorf("experiments: fig coldstart: update metadata: %w", err)
		}
		if err := eng.Swap(base, ext); err != nil {
			return res, fmt.Errorf("experiments: fig coldstart: publish append: %w", err)
		}
		if sec := time.Since(start).Seconds(); i == 0 || sec < res.IncrementalSeconds {
			res.IncrementalSeconds = sec
		}
	}
	if res.IncrementalSeconds > 0 {
		res.AppendSpeedup = res.FullSeconds / res.IncrementalSeconds
	}

	// The incremental metadata must be indistinguishable from the full
	// recompute before its speedup means anything.
	switch {
	case !reflect.DeepEqual(mdFull.Pairs, mdInc.Pairs):
		return res, fmt.Errorf("experiments: fig coldstart: incremental pairs diverge from full recompute")
	case !reflect.DeepEqual(mdFull.Kinds, mdInc.Kinds):
		return res, fmt.Errorf("experiments: fig coldstart: incremental kinds diverge from full recompute")
	case !reflect.DeepEqual(mdFull.Profile.Columns, mdInc.Profile.Columns):
		return res, fmt.Errorf("experiments: fig coldstart: incremental column stats diverge from full recompute")
	case !reflect.DeepEqual(mdFull.Profile.PrimaryKey, mdInc.Profile.PrimaryKey),
		!reflect.DeepEqual(mdFull.Profile.CandidateKeys, mdInc.Profile.CandidateKeys):
		return res, fmt.Errorf("experiments: fig coldstart: incremental keys diverge from full recompute")
	}

	// Byte-identity sweep: trained vs loaded model on the small table, and
	// full vs incremental metadata on the extended table, at every worker
	// count.
	for _, w := range coldStartWorkerSweep {
		bTrained, err := coldStartGenerate(identTable, mdTrained, cfg.Seed, w)
		if err != nil {
			return res, fmt.Errorf("experiments: fig coldstart: generate (trained, w=%d): %w", w, err)
		}
		bLoaded, err := coldStartGenerate(identTable, mdLoaded, cfg.Seed, w)
		if err != nil {
			return res, fmt.Errorf("experiments: fig coldstart: generate (loaded, w=%d): %w", w, err)
		}
		bFull, err := coldStartGenerate(full, mdFull, cfg.Seed, w)
		if err != nil {
			return res, fmt.Errorf("experiments: fig coldstart: generate (full, w=%d): %w", w, err)
		}
		bInc, err := coldStartGenerate(ext, mdInc, cfg.Seed, w)
		if err != nil {
			return res, fmt.Errorf("experiments: fig coldstart: generate (incremental, w=%d): %w", w, err)
		}
		if !bytes.Equal(bTrained, bLoaded) {
			return res, fmt.Errorf("experiments: fig coldstart: loaded-model generation diverges at workers=%d", w)
		}
		if !bytes.Equal(bFull, bInc) {
			return res, fmt.Errorf("experiments: fig coldstart: incremental generation diverges at workers=%d", w)
		}
		res.IdenticalWorkers = append(res.IdenticalWorkers, w)
		cfg.logf("FigColdStart: workers=%d byte-identical (%d bytes)", w, len(bTrained)+len(bFull))
	}
	return res, nil
}

// coldStartGenerate runs template generation and returns the NDJSON bytes
// for identity comparison. Evidence is capped so the check stays fast on
// the large append table.
func coldStartGenerate(t *relation.Table, md *pythia.Metadata, seed int64, workers int) ([]byte, error) {
	g := pythia.NewGenerator(t, md)
	var enc pythia.LineEncoder
	var buf []byte
	opts := pythia.Options{
		Mode:        pythia.Templates,
		Structures:  []pythia.Structure{pythia.AttributeAmb, pythia.RowAmb},
		MaxPerQuery: 3,
		Seed:        seed,
		Workers:     workers,
	}
	err := g.GenerateStream(opts, pythia.SinkFunc(func(ex pythia.Example) error {
		buf = enc.Append(buf, ex)
		return nil
	}))
	return buf, err
}

// coldStartTable builds a wide Covid-like table with n rows in day-major
// order: (country, day) is the only minimal key — every measure column is
// a function of the day and a 5-way country class modulo a small prime,
// so single columns and measure combinations collide quickly (the key
// search early-exits) and appending later days can never break the key.
func coldStartTable(n int) *relation.Table {
	t := relation.NewTable("covid_wide", relation.Schema{
		{Name: "country", Kind: relation.KindString},
		{Name: "day", Kind: relation.KindInt},
		{Name: "total_cases", Kind: relation.KindInt},
		{Name: "new_cases", Kind: relation.KindInt},
		{Name: "recovered", Kind: relation.KindInt},
		{Name: "active", Kind: relation.KindInt},
		{Name: "tests", Kind: relation.KindInt},
		{Name: "positives", Kind: relation.KindInt},
	})
	const countries = 40
	row := 0
	for d := 0; row < n; d++ {
		for c := 0; c < countries && row < n; c++ {
			measure := func(k int64) relation.Value {
				return relation.Int((int64(d)*13 + int64(c%5)*31 + k*7) % 97)
			}
			t.MustAppend(relation.Row{
				relation.String(fmt.Sprintf("Country%02d", c)),
				relation.Int(int64(d)),
				measure(1), measure(2), measure(3), measure(4), measure(5), measure(6),
			})
			row++
		}
	}
	return t
}
