// Command perfbench is the repository's benchmark: one seeded run of one
// workload through PYTHIA's public entry points, printing every metric by
// name and unit and checking that the outputs are correct.
//
// Usage, from the root of a checkout (perfbench/run.sh builds and runs it):
//
//	perfbench --workload templates_bulk|ingest_textgen|serve_mixed
//	          [--seed 1] [--seconds 20] [--trace 0|1]
//
// The seed makes the input tables; the program under test receives only
// those tables. --trace 0 measures the end-to-end metrics; --trace 1 runs
// the same workload with spans around each call into a layer and prints the
// per-layer metrics instead, plus the tracing overhead. The last line of
// standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": V, "unit": "U"}}}
//
// The line before it records provenance (source digest, Go version, CPU,
// GOMAXPROCS, seed, warmup and trial counts) and the spread of every
// sampled metric as its median and quartiles. Files a run writes go under
// .bench_build/ in the working directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

const defaultSeed = 1

// warmup is the number of untimed operations (ingest_textgen: table
// sequences) before the timed phase; the first checks every output line.
const warmup = 1

// serveClients is the number of closed-loop clients: one per vCPU of the
// 2-vCPU host the benchmark is sized for.
const serveClients = 2

// sizes fixes how much work each workload does. The same sizes serve every
// seed, so seeds differ in values, not in the amount of work.
type sizes struct {
	bulkRows   int // templates_bulk: rows of the Covid-shaped table
	bulkSetups int // templates_bulk: set-ups per run; setup_s is their median

	textgenRows   []int // ingest_textgen: rows of each table, in order
	textgenSetups int   // ingest_textgen: set-ups per run
	trainTables   int   // ingest_textgen: corpus size the data model trains on

	tenants     []int // serve_mixed: rows of each tenant
	serveSetups int   // serve_mixed: set-ups per run, each a fresh server
	coldPhases  int   // serve_mixed: the last coldPhases servers get one cold generate per tenant
	appends     int   // serve_mixed: appended rows over the whole run
	appendEvery int   // serve_mixed: every appendEvery-th request is an append
}

// defaultSizes are the benchmark's sizes on a 2-vCPU host. Set-ups repeat
// until each run spends about a tenth of a second or more setting up, so
// their median is not one timer reading.
func defaultSizes() sizes {
	return sizes{
		bulkRows:      240,
		bulkSetups:    51,
		textgenRows:   []int{100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100},
		textgenSetups: 3,
		trainTables:   200,
		tenants:       []int{50, 58, 65, 73, 81, 88, 96, 104, 112, 119, 127, 135, 142, 150},
		serveSetups:   9,
		coldPhases:    3,
		appends:       120,
		appendEvery:   3,
	}
}

// config is one run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	dir      string // where the run writes files
	sizes    sizes
	ref      *reference // recorded output to match; nil skips the match
}

// workloads maps each workload name to its run function.
var workloads = map[string]func(config) (*result, error){
	"templates_bulk": templatesBulk,
	"ingest_textgen": ingestTextgen,
	"serve_mixed":    serveMixed,
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "templates_bulk, ingest_textgen or serve_mixed")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed: makes every input table")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 measures per-layer metrics, 0 end-to-end metrics")
	flag.Parse()
	if err := run(cfg, trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config, trace int) error {
	if _, ok := workloads[cfg.workload]; !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	cfg.trace = trace == 1
	cfg.sizes = defaultSizes()
	cfg.dir = filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.dir)
	if cfg.seed == defaultSeed {
		refs, err := references()
		if err != nil {
			return err
		}
		ref, ok := refs[cfg.workload]
		if !ok {
			return fmt.Errorf("reference.json has no entry for %s", cfg.workload)
		}
		cfg.ref = &ref
	}
	rep, err := measure(cfg)
	if err != nil {
		return err
	}
	if cfg.trace {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
		if err := rep.trace.write(path); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		rep.Provenance["trace_file"] = path
	}
	return rep.print(os.Stdout)
}

// measure runs one workload and turns its samples into the report.
func measure(cfg config) (*report, error) {
	r, err := workloads[cfg.workload](cfg)
	if r == nil {
		return nil, err
	}
	if err != nil {
		// A wrong output (the reference check) fails the run's operations
		// instead of aborting it, so the result still reports what ran.
		r.fail(err)
		r.failed = r.attempted
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.attempted == 0 {
		return nil, errors.New("no operation ran")
	}
	return newReport(cfg, r), nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeJSONLine writes v as one line of JSON.
func writeJSONLine(f *os.File, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", b)
	return err
}
