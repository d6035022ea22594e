// Command pythia is the end-to-end CLI: profile a table, discover its
// ambiguity metadata, and generate data-ambiguous training examples.
//
// Usage:
//
//	pythia profile  (-in table.csv | -dataset Basket)
//	pythia train    -save model.json [-method schema|data] [-tables N] [-workers N]
//	pythia metadata (-in table.csv | -dataset Basket) [-method ulabel|schema|data] [-tables N]
//	                [-workers N] [-model FILE] [-save FILE]
//	pythia generate (-in table.csv | -dataset Basket) [-method ...] [-mode textgen|templates]
//	                [-structures attribute,row,full] [-match both|contradictory|uniform]
//	                [-questions] [-max N] [-json] [-workers N] [-model FILE] [-save FILE]
//	                [-out DIR [-checkpoint-every N] [-shard-size N] [-resume]]
//	pythia datasets
//
// The ulabel method needs no training and is the default; schema/data
// train the corresponding metadata model on a synthetic web-table corpus
// first (-tables controls its size). `pythia train -save` persists the
// trained model as a versioned artifact; -model on metadata/generate
// loads it back instead of retraining (an artifact whose recorded
// training fingerprint no longer matches the flags is rejected and the
// command retrains). -workers shards generation and model training
// across a worker pool (0 = GOMAXPROCS) with byte-identical output at
// every worker count.
//
// Generation streams: examples are printed (or written to -out shards) as
// they clear the deterministic merge, so memory stays flat at any output
// size. With -out, a manifest checkpoint every -checkpoint-every examples
// makes the run resumable — re-invoke with the same arguments plus -resume
// to skip completed work and finish to byte-identical total output.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/annotate"
	"repro/internal/artifact"
	"repro/internal/corpus"
	"repro/internal/data"
	"repro/internal/kb"
	"repro/internal/model"
	"repro/internal/profiling"
	"repro/internal/pythia"
	"repro/internal/relation"
	"repro/internal/sqlengine"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// obsFlags registers the shared observability flags on a subcommand's
// FlagSet. The returned start function runs after parsing: it brings up
// the -pprof debug server (if requested) and returns the finish function
// that writes the -metrics snapshot at command exit.
func obsFlags(fs *flag.FlagSet) func() (func(), error) {
	metrics := fs.String("metrics", "", "write a telemetry snapshot (JSON) to this file at exit")
	pprof := fs.String("pprof", "", "serve net/http/pprof and /debug/vars on this address (e.g. localhost:6060)")
	return func() (func(), error) {
		var dbg *telemetry.DebugServer
		if *pprof != "" {
			var err error
			if dbg, err = telemetry.Serve(*pprof); err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "pythia: pprof and /debug/vars on http://%s/debug/pprof\n", dbg.Addr())
		}
		path := *metrics
		return func() {
			if dbg != nil {
				//lint:ignore err-ignored closing the debug listener at process exit; nothing can act on its error
				_ = dbg.Close()
			}
			if path == "" {
				return
			}
			if err := telemetry.Default().WriteSnapshot(path); err != nil {
				fmt.Fprintln(os.Stderr, "pythia:", err)
			}
		}, nil
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "metadata":
		err = cmdMetadata(os.Args[2:])
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "sql":
		err = cmdSQL(os.Args[2:])
	case "datasets":
		for _, n := range data.Names() {
			fmt.Println(n)
		}
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "pythia: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pythia:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  pythia profile  (-in table.csv | -dataset NAME)
  pythia train    -save model.json [-method schema|data] [-tables N] [-workers N]
  pythia metadata (-in table.csv | -dataset NAME) [-method ulabel|schema|data] [-tables N] [-workers N]
                  [-model model.json] [-save model.json]
  pythia generate (-in table.csv | -dataset NAME) [-method ulabel|schema|data] [-mode textgen|templates]
                  [-structures attribute,row,full] [-match both|contradictory|uniform]
                  [-questions] [-max N] [-json] [-tables N] [-workers N]
                  [-model model.json] [-save model.json]
                  [-out DIR [-checkpoint-every N] [-shard-size N] [-resume]]
  pythia sql      (-in table.csv | -dataset NAME) ["QUERY" | -i]
  pythia datasets

-model loads a trained model artifact instead of retraining (a stale or
version-skewed artifact falls back to training); -save persists the
trained model for future -model runs.

profile, train, metadata, generate and sql also accept:
  -metrics FILE   write a telemetry snapshot (JSON) at exit
  -pprof ADDR     serve net/http/pprof and /debug/vars for live inspection`)
}

// cmdSQL runs SQL against a loaded table: one query from the arguments, or
// an interactive prompt with -i (the "interactive version" the paper's
// conclusion sketches).
func cmdSQL(args []string) error {
	fs := flag.NewFlagSet("sql", flag.ExitOnError)
	load := tableFlags(fs)
	obs := obsFlags(fs)
	interactive := fs.Bool("i", false, "interactive prompt (read queries from stdin)")
	limit := fs.Int("print", 20, "max rows to print per result")
	if err := fs.Parse(args); err != nil {
		return err
	}
	finish, err := obs()
	if err != nil {
		return err
	}
	defer finish()
	t, err := load()
	if err != nil {
		return err
	}
	e := sqlengine.NewEngine()
	e.Register(t)
	run := func(q string) {
		res, err := e.Query(q)
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return
		}
		fmt.Println(strings.Join(res.Schema.Names(), " | "))
		for i, row := range res.Rows {
			if i >= *limit {
				fmt.Printf("… %d more rows\n", res.NumRows()-i)
				break
			}
			parts := make([]string, len(row))
			for c, v := range row {
				parts[c] = v.Format()
			}
			fmt.Println(strings.Join(parts, " | "))
		}
		fmt.Fprintf(os.Stderr, "(%d rows)\n", res.NumRows())
	}
	if !*interactive {
		if fs.NArg() != 1 {
			return fmt.Errorf("pass exactly one query, or -i for interactive mode")
		}
		run(fs.Arg(0))
		return nil
	}
	fmt.Fprintf(os.Stderr, "table %s registered; enter SQL, empty line to quit\n", t.Name)
	sc := bufio.NewScanner(os.Stdin)
	// The default 64KB token limit kills the REPL on one long generated
	// query; give it room and name the limit if it is still exceeded.
	const maxQueryLine = 4 << 20
	sc.Buffer(make([]byte, 0, 64*1024), maxQueryLine)
	for {
		fmt.Fprint(os.Stderr, "pythia> ")
		if !sc.Scan() {
			if err := sc.Err(); err != nil {
				if errors.Is(err, bufio.ErrTooLong) {
					return fmt.Errorf("query line exceeds the %d-byte limit: %w", maxQueryLine, err)
				}
				return fmt.Errorf("reading query: %w", err)
			}
			return nil
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.EqualFold(line, "exit") || strings.EqualFold(line, "quit") {
			return nil
		}
		run(line)
	}
}

// tableFlags adds the shared input flags and returns a loader.
func tableFlags(fs *flag.FlagSet) func() (*relation.Table, error) {
	in := fs.String("in", "", "CSV file with a header row")
	dataset := fs.String("dataset", "", "built-in dataset name (see `pythia datasets`)")
	return func() (*relation.Table, error) {
		switch {
		case *in != "" && *dataset != "":
			return nil, fmt.Errorf("use either -in or -dataset, not both")
		case *in != "":
			f, err := os.Open(*in)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return relation.ReadCSV(tableNameFromPath(*in), f)
		case *dataset != "":
			d, err := data.Load(*dataset)
			if err != nil {
				return nil, err
			}
			return d.Table, nil
		default:
			return nil, fmt.Errorf("missing -in or -dataset")
		}
	}
}

// tableNameFromPath derives a table name from a CSV path: the base file
// name with a case-insensitive .csv extension stripped. filepath.Base
// handles the platform's separators, so "data\Table.Csv" on Windows and
// "data/table.csv" on Unix both yield a clean name instead of a
// hand-rolled '/'-split leaving separators or extensions behind.
func tableNameFromPath(path string) string {
	name := filepath.Base(path)
	if ext := filepath.Ext(name); strings.EqualFold(ext, ".csv") {
		name = name[:len(name)-len(ext)]
	}
	return name
}

func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	load := tableFlags(fs)
	obs := obsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	finish, err := obs()
	if err != nil {
		return err
	}
	defer finish()
	t, err := load()
	if err != nil {
		return err
	}
	p, err := profiling.ProfileTable(t)
	if err != nil {
		return err
	}
	fmt.Printf("table %s: %d rows, %d columns\n", t.Name, t.NumRows(), t.NumCols())
	fmt.Printf("primary key: %v\n", p.PrimaryKey)
	fmt.Printf("candidate keys: %v\n", p.CandidateKeys)
	fmt.Println("columns:")
	for _, st := range p.Columns {
		fmt.Printf("  %-24s %-7s distinct=%-5d nulls=%-4d min=%-12s max=%-12s unique=%v\n",
			st.Name, st.Kind, st.Distinct, st.Nulls, st.Min.Format(), st.Max.Format(), st.Unique)
	}
	return nil
}

// buildPredictor resolves -method into a Predictor, training if needed.
// workers sizes the corpus/annotation worker pool for the trained methods
// (0 = GOMAXPROCS); training output is identical at every worker count.
//
// modelPath, when set, loads a previously saved model artifact instead of
// retraining — the expected fingerprint is derived from the same training
// configuration the flags would train with, so an artifact trained under
// different flags (or a different method) is rejected as stale and the
// command falls back to training. savePath persists the freshly trained
// model for future runs.
func buildPredictor(method string, tables, workers int, modelPath, savePath string) (model.Predictor, error) {
	knowledge := kb.BuildDefault()
	switch method {
	case "ulabel":
		if modelPath != "" || savePath != "" {
			return nil, fmt.Errorf("-model/-save need a trained method (schema or data); ulabel trains nothing")
		}
		return model.NewULabel(knowledge), nil
	case "schema", "data":
		cfg := model.DefaultSchemaConfig()
		name := "Schema"
		if method == "data" {
			cfg = model.DefaultDataConfig()
			name = "Data"
		}
		if tables > 0 {
			cfg.Tables = tables
		}
		cfg.Pretrain = knowledge.DefinitionBags()
		cfg.Workers = workers
		fp := artifact.ModelFingerprint(method, cfg)
		if modelPath != "" {
			m, err := artifact.LoadModel(modelPath, fp)
			switch {
			case err == nil:
				fmt.Fprintf(os.Stderr, "loaded %s model artifact from %s\n", name, modelPath)
				return m, nil
			case artifact.IsMismatch(err):
				fmt.Fprintf(os.Stderr, "pythia: %v; retraining\n", err)
			default:
				return nil, err
			}
		}
		fmt.Fprintf(os.Stderr, "training %s model on %d synthetic web tables…\n", name, cfg.Tables)
		m, err := model.Train(name, corpus.NewDefaultGenerator(), annotate.All(knowledge), cfg)
		if err != nil {
			return nil, err
		}
		if savePath != "" {
			if err := artifact.SaveModel(savePath, m, fp); err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "saved %s model artifact -> %s\n", name, savePath)
		}
		return m, nil
	default:
		return nil, fmt.Errorf("unknown method %q (want ulabel, schema or data)", method)
	}
}

// modelFlags adds the artifact load/save flags shared by the commands that
// build a predictor.
func modelFlags(fs *flag.FlagSet) (load *string, save *string) {
	load = fs.String("model", "", "load a trained model artifact instead of retraining (stale artifacts retrain)")
	save = fs.String("save", "", "write the trained model artifact to this file")
	return load, save
}

// cmdTrain trains a metadata model and saves it as an artifact — the
// cold-start killer: later metadata/generate/serve invocations load the
// artifact in milliseconds instead of re-deriving the corpus and training
// from scratch.
func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	obs := obsFlags(fs)
	method := fs.String("method", "schema", "trained metadata method: schema or data")
	tables := fs.Int("tables", 0, "training corpus size (0 = default)")
	workers := fs.Int("workers", 0, "worker pool size for training (0 = GOMAXPROCS)")
	save := fs.String("save", "", "write the trained model artifact to this file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	finish, err := obs()
	if err != nil {
		return err
	}
	defer finish()
	if *save == "" {
		return fmt.Errorf("train: missing -save FILE")
	}
	if *method != "schema" && *method != "data" {
		return fmt.Errorf("train: method %q trains nothing (want schema or data)", *method)
	}
	_, err = buildPredictor(*method, *tables, *workers, "", *save)
	return err
}

func cmdMetadata(args []string) error {
	fs := flag.NewFlagSet("metadata", flag.ExitOnError)
	load := tableFlags(fs)
	obs := obsFlags(fs)
	method := fs.String("method", "ulabel", "metadata method: ulabel, schema or data")
	tables := fs.Int("tables", 0, "training corpus size for schema/data (0 = default)")
	workers := fs.Int("workers", 0, "worker pool size for training (0 = GOMAXPROCS)")
	modelPath, savePath := modelFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	finish, err := obs()
	if err != nil {
		return err
	}
	defer finish()
	t, err := load()
	if err != nil {
		return err
	}
	pred, err := buildPredictor(*method, *tables, *workers, *modelPath, *savePath)
	if err != nil {
		return err
	}
	md, err := pythia.Discover(t, pred)
	if err != nil {
		return err
	}
	fmt.Printf("primary key: %v\n", md.Profile.PrimaryKey)
	if len(md.Pairs) == 0 {
		fmt.Println("no ambiguous attribute pairs found")
		return nil
	}
	fmt.Println("ambiguous attribute pairs:")
	for _, p := range md.Pairs {
		fmt.Printf("  (%s, %s) -> %q  score=%.2f corr=%.2f overlap=%.2f\n",
			p.AttrA, p.AttrB, p.Label, p.Score, p.Correlation, p.ValueOverlap)
	}
	return nil
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	load := tableFlags(fs)
	method := fs.String("method", "ulabel", "metadata method: ulabel, schema or data")
	tables := fs.Int("tables", 0, "training corpus size for schema/data (0 = default)")
	modelPath, savePath := modelFlags(fs)
	mode := fs.String("mode", "textgen", "generation mode: textgen or templates")
	structures := fs.String("structures", "attribute,row,full", "comma-separated structures")
	match := fs.String("match", "both", "match types: both, contradictory or uniform")
	questions := fs.Bool("questions", false, "interleave questions with statements")
	max := fs.Int("max", 4, "max evidence rows per a-query (0 = unlimited in template mode)")
	asJSON := fs.Bool("json", false, "emit JSON lines instead of text")
	seed := fs.Int64("seed", 1, "phrasing seed")
	workers := fs.Int("workers", 0, "worker pool size for generation and training (0 = GOMAXPROCS)")
	out := fs.String("out", "", "stream sharded NDJSON into this directory instead of stdout")
	checkpointEvery := fs.Int("checkpoint-every", stream.DefaultCheckpointEvery,
		"examples between resume checkpoints with -out (negative = only at completion)")
	shardSize := fs.Int("shard-size", stream.DefaultShardSize, "examples per -out shard file")
	resume := fs.Bool("resume", false, "continue an interrupted -out run from its last checkpoint (same arguments required)")
	obs := obsFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	finish, err := obs()
	if err != nil {
		return err
	}
	defer finish()

	t, err := load()
	if err != nil {
		return err
	}
	pred, err := buildPredictor(*method, *tables, *workers, *modelPath, *savePath)
	if err != nil {
		return err
	}
	md, err := pythia.Discover(t, pred)
	if err != nil {
		return err
	}

	opts := pythia.Options{Questions: *questions, MaxPerQuery: *max, Seed: *seed, Workers: *workers}
	switch *mode {
	case "textgen":
		opts.Mode = pythia.TextGeneration
	case "templates":
		opts.Mode = pythia.Templates
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}
	for _, s := range strings.Split(*structures, ",") {
		switch strings.TrimSpace(s) {
		case "attribute":
			opts.Structures = append(opts.Structures, pythia.AttributeAmb)
		case "row":
			opts.Structures = append(opts.Structures, pythia.RowAmb)
		case "full":
			opts.Structures = append(opts.Structures, pythia.FullAmb)
		case "":
		default:
			return fmt.Errorf("unknown structure %q", s)
		}
	}
	switch *match {
	case "both":
	case "contradictory":
		opts.Matches = []pythia.Match{pythia.Contradictory}
	case "uniform":
		opts.Matches = []pythia.Match{pythia.Uniform}
	default:
		return fmt.Errorf("unknown match %q", *match)
	}

	g := pythia.NewGenerator(t, md)

	// File streaming: sharded NDJSON with checkpoint/resume. The manifest
	// fingerprint covers the generation options plus the metadata method
	// and corpus size, so a resume with different arguments is refused.
	if *out != "" {
		sink, res, err := stream.Open(stream.Config{
			Dir:             *out,
			Fingerprint:     opts.Fingerprint(t.Name, "method="+*method, fmt.Sprintf("tables=%d", *tables)),
			Seed:            *seed,
			CheckpointEvery: *checkpointEvery,
			ShardSize:       *shardSize,
		}, *resume)
		if err != nil {
			return err
		}
		if res.NextUnit > 0 {
			fmt.Fprintf(os.Stderr, "resuming: %d examples already flushed, continuing from unit %d\n",
				len(res.Seen), res.NextUnit)
		}
		if err := g.GenerateStreamFrom(opts, res, sink); err != nil {
			// Keep the last checkpoint as the resume point: close the
			// shard without finalizing the manifest.
			if cerr := sink.Close(); cerr != nil {
				return errors.Join(err, cerr)
			}
			return err
		}
		if err := sink.Finish(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%d examples in %d shards -> %s\n", sink.Examples(), sink.Shards(), *out)
		return nil
	}

	// Stdout streaming: examples print as they clear the merge frontier,
	// so memory stays flat no matter how many are generated. Output is
	// buffered and flushed at every unit boundary and at exit.
	stdout := &stdoutSink{w: bufio.NewWriterSize(os.Stdout, 64<<10), asJSON: *asJSON}
	err = g.GenerateStream(opts, stdout)
	if ferr := stdout.w.Flush(); err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%d examples\n", stdout.count)
	return nil
}

// stdoutSink prints generate's example stream: pythia.LineEncoder NDJSON
// with -json, a readable listing otherwise. Writes are buffered and
// flushed at unit boundaries.
type stdoutSink struct {
	w      *bufio.Writer
	enc    pythia.LineEncoder
	asJSON bool
	count  int
}

func (s *stdoutSink) Emit(ex pythia.Example) error {
	s.count++
	if s.asJSON {
		_, err := s.w.Write(s.enc.Append(s.w.AvailableBuffer(), ex))
		return err
	}
	line := fmt.Appendf(s.w.AvailableBuffer(), "[%s/%s] %s\n", ex.Structure, ex.Match, ex.Text)
	if len(ex.Evidence) > 0 {
		parts := make([]string, len(ex.Evidence))
		for i, c := range ex.Evidence {
			parts[i] = c.Attr + ":" + c.Value
		}
		line = fmt.Appendf(line, "    evidence: %s\n", strings.Join(parts, " — "))
	}
	_, err := s.w.Write(fmt.Appendf(line, "    query: %s\n", ex.Query))
	return err
}

// EndUnit flushes the unit's output.
func (s *stdoutSink) EndUnit(int) error { return s.w.Flush() }
