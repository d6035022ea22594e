package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// result is what one workload run measured.
type result struct {
	setup  []float64 // seconds per set-up
	ops    samples   // untraced operations (every operation outside a trace run)
	cold   samples   // first operation on a table no engine has cached
	writes samples   // new rows until their metadata is ready

	examples int64             // examples the timed operations produced
	busy     time.Duration     // time examples_per_s divides by
	out      outputs           // digest of everything produced
	want     map[string]string // per table, the digest every pass must reproduce

	attempted, failed int
	err               error // the timed phase could not be measured

	// Timed phase.
	start   time.Time
	wall    time.Duration
	heap    *heapSampler
	heapMB  float64 // see heapSampler.finish
	heapMax float64
	before  counters
	tel     delta
	nops    int // operations in the timed phase

	// Trace run.
	tr      *tracer
	traced  samples // traced operations
	ntraced int
	layers  map[string]float64 // per-layer values the workload measures itself
}

func newResult() *result {
	return &result{ops: samples{}, cold: samples{}, writes: samples{}, traced: samples{}, want: map[string]string{}}
}

const maxLoggedFailures = 5

// fail counts one failed operation and reports the first few.
func (r *result) fail(err error) {
	r.failed++
	if r.failed <= maxLoggedFailures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
	}
}

// layer records a per-layer value the workload measured itself.
func (r *result) layer(name string, v float64) {
	if r.layers == nil {
		r.layers = map[string]float64{}
	}
	r.layers[name] = v
}

// begin starts the timed phase: telemetry and runtime counters are read
// and the heap sampler runs until end.
func (r *result) begin(cfg config) {
	if cfg.trace {
		r.tr = newTracer()
	}
	runtime.GC()
	r.before, r.err = readCounters()
	r.heap = startHeapSampler()
	r.start = time.Now()
}

// op records one timed operation's latency.
func (r *result) op(traced bool, table string, d time.Duration) {
	r.nops++
	if traced {
		r.ntraced++
		r.traced.add(table, d)
		return
	}
	r.ops.add(table, d)
}

// end closes the timed phase.
func (r *result) end() {
	r.wall = time.Since(r.start)
	r.heapMB, r.heapMax = r.heap.finish()
	after, err := readCounters()
	r.err = errors.Join(r.err, err)
	r.tel = r.before.to(after)
}

// samples holds latencies in ms by table.
type samples map[string][]float64

func (s samples) add(table string, d time.Duration) { s[table] = append(s[table], ms(d)) }

// quantile is taken over every sample of every table.
func (s samples) quantile(q float64) float64 { return quantile(s.all(), q) }

// typical is the mean over tables of each table's median. Unlike the
// median of all samples it cannot jump between tables whose latencies lie
// far apart when only a few samples fall differently.
func (s samples) typical() float64 {
	if len(s) == 0 {
		return 0
	}
	var sum float64
	for _, table := range sortedKeys(s) {
		sum += quantile(s[table], 0.5)
	}
	return sum / float64(len(s))
}

// merge adds every sample of o.
func (s samples) merge(o samples) {
	for table, xs := range o {
		s[table] = append(s[table], xs...)
	}
}

// all returns every sample.
func (s samples) all() []float64 {
	var out []float64
	for _, table := range sortedKeys(s) {
		out = append(out, s[table]...)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a run prints.
type report struct {
	Provenance map[string]any
	Spread     map[string]map[string]any
	Correct    bool
	Attempted  int
	Failed     int
	Metrics    map[string]metric
	trace      *tracer
}

func newReport(cfg config, r *result) *report {
	rep := &report{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Spread:    map[string]map[string]any{},
		trace:     r.tr,
	}
	rep.Provenance = provenance(cfg, r)
	spread := func(name string, xs []float64) {
		q1, q2, q3 := quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
		rep.Spread[name] = map[string]any{"n": len(xs), "q1": q1, "median": q2, "q3": q3}
	}
	if cfg.trace {
		rep.Metrics = perLayer(r)
		spread("traced_op_ms", r.traced.all())
		spread("untraced_op_ms", r.ops.all())
		return rep
	}
	rep.Metrics = map[string]metric{
		"setup_s":        {quantile(r.setup, 0.5), "s"},
		"examples_per_s": {ratio(float64(r.examples), r.busy.Seconds()), "1/s"},
		"op_p50_ms":      {r.ops.quantile(0.5), "ms"},
		"op_p90_ms":      {r.ops.quantile(0.9), "ms"},
		"cold_ms":        {r.cold.typical(), "ms"},
		"write_p50_ms":   {r.writes.quantile(0.5), "ms"},
		"heap_peak_mb":   {r.heapMB, "MiB"},
	}
	spread("setup_s", r.setup)
	spread("op_ms", r.ops.all())
	spread("cold_ms", r.cold.all())
	spread("write_ms", r.writes.all())
	return rep
}

// print writes the provenance line, then the result line last.
func (rep *report) print(f *os.File) error {
	if err := writeJSONLine(f, map[string]any{"provenance": rep.Provenance, "spread": rep.Spread}); err != nil {
		return err
	}
	return writeJSONLine(f, map[string]any{
		"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": rep.Metrics,
	})
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile interpolates linearly between order statistics (0 for no data).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// perLayer turns spans, telemetry deltas and runtime counters into the
// per-layer metrics. Times and counts are per operation of the timed
// phase: span-based values per traced operation, telemetry-based values
// per operation. A layer the workload does not reach reads 0.
func perLayer(r *result) map[string]metric {
	times := r.tr.times()
	perTraced := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += times[n].Total
		}
		return ratio(float64(ns)/1e6, float64(r.ntraced))
	}
	perOp := func(v float64) float64 { return ratio(v, float64(r.nops)) }
	d := r.tel
	c := func(name string) float64 { return float64(d.c[name]) }
	sumMS := func(name string) float64 { return float64(d.sum[name]) / 1e6 }

	var examples float64
	for _, v := range d.prefixed("pythia.examples.", "") {
		examples += float64(v)
	}
	var busy float64
	for _, v := range d.prefixed("parallel.worker.", ".busy_ns") {
		busy += float64(v) / 1e6
	}
	ingest := []string{"relation.ReadCSV", "profiling.ProfileTable", "pythia.DiscoverWithProfile"}
	streamSpans := []string{"stream.Open", "stream.FileSink.Emit", "stream.FileSink.EndUnit", "stream.FileSink.Finish"}
	opMS := perTraced("op")
	m := map[string]metric{
		"relation.read_csv_ms":  {perTraced("relation.ReadCSV"), "ms"},
		"profiling.profile_ms":  {perTraced("profiling.ProfileTable"), "ms"},
		"model.discover_ms":     {perTraced("pythia.DiscoverWithProfile"), "ms"},
		"model.pairs_per_table": {r.layers["model.pairs_per_table"], "count"},
		"model.train_ms":        {r.layers["model.train_ms"], "ms"},
		"artifact.load_ms":      {r.layers["artifact.load_ms"], "ms"},

		"pythia.generate_ms":                 {perOp(sumMS("pythia.generate_ns")), "ms"},
		"pythia.merge_wait_ms":               {float64(times["pythia.GenerateStream"].Self) / 1e6 / float64(max(r.ntraced, 1)), "ms"},
		"pythia.units":                       {perOp(c("pythia.units")), "count"},
		"pythia.dedup_drop_ratio":            {ratio(c("pythia.dedup_drops"), examples+c("pythia.dedup_drops")), "ratio"},
		"sqlengine.exec_ms":                  {perOp(sumMS("sqlengine.exec_ns")), "ms"},
		"sqlengine.parse_ms":                 {perOp(sumMS("sqlengine.parse_ns")), "ms"},
		"sqlengine.queries":                  {perOp(c("sqlengine.queries_executed")), "count"},
		"sqlengine.batch_share":              {ratio(c("sqlengine.batch_scans"), c("sqlengine.queries_executed")), "ratio"},
		"sqlengine.range_joins":              {perOp(c("sqlengine.range_joins")), "count"},
		"sqlengine.rows_scanned_per_example": {ratio(c("sqlengine.rows_scanned"), examples), "count"},
		"sqlengine.plan_cache_hit_ratio": {ratio(c("sqlengine.plan_cache_hits"),
			c("sqlengine.plan_cache_hits")+c("sqlengine.plan_cache_misses")), "ratio"},
		"sqlengine.index_builds":  {perOp(c("sqlengine.index_builds")), "count"},
		"sqlengine.vector_builds": {perOp(c("sqlengine.vector_builds")), "count"},
		"sqlengine.table_swaps":   {perOp(c("sqlengine.table_swaps")), "count"},

		"parallel.busy_ms":        {perOp(busy), "ms"},
		"parallel.unit_skew":      {skew(d.prefixed("parallel.worker.", ".units")), "ratio"},
		"parallel.budget_clipped": {perOp(c("parallel.budget_clipped")), "count"},

		"stream.emit_ms":           {perTraced("stream.FileSink.Emit"), "ms"},
		"stream.checkpoint_ms":     {perTraced("stream.FileSink.EndUnit"), "ms"},
		"stream.finish_ms":         {perTraced("stream.FileSink.Finish"), "ms"},
		"stream.checkpoints":       {perOp(c("stream.checkpoints_written")), "count"},
		"stream.bytes_per_example": {r.layers["stream.bytes_per_example"], "B"},

		"serve.request_ms":        {perOp(sumMS("serve.request_ns")), "ms"},
		"serve.examples_streamed": {perOp(c("serve.examples_streamed")), "count"},

		"runtime.alloc_bytes_per_example": {ratio(d.alloc, examples), "B"},
		"runtime.gc_cpu_s":                {perOp(d.gcCPU), "s"},

		"trace.op_ms":        {opMS, "ms"},
		"trace.overhead_pct": {100 * (ratio(r.traced.quantile(0.5), r.ops.quantile(0.5)) - 1), "%"},
		"split.ingest_share": {ratio(perTraced(ingest...), opMS), "ratio"},
		"split.stream_share": {ratio(perTraced(streamSpans...), opMS), "ratio"},
	}
	return m
}

// provenance records where and how the run was made.
func provenance(cfg config, r *result) map[string]any {
	p := map[string]any{
		"workload":       cfg.workload,
		"seed":           cfg.seed,
		"seconds":        cfg.seconds,
		"trace":          cfg.trace,
		"go":             runtime.Version(),
		"cpu":            cpuModel(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"nproc":          runtime.NumCPU(),
		"warmup":         warmup,
		"setup_reps":     len(r.setup),
		"trials":         r.nops,
		"wall_s":         r.wall.Seconds(),
		"heap_max_mb":    r.heapMax,
		"examples":       r.out.examples,
		"output_sha256":  r.out.digest(),
		"commit":         commit(),
		"source_sha256":  sourceDigest("."),
		"reference_used": cfg.ref != nil,
	}
	return p
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// saw one; a checkout without version control has none.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and module file under root, outside
// hidden directories, so a result names the code it measured even without
// a commit.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
