// Declared metric registry. Every metric name the pipeline records must
// appear here, with its kind; pythia-lint's tel-metric-registry rule
// checks each Counter/Gauge/Histogram/StartTimer call site against this
// table, so a renamed or misspelled metric fails lint instead of silently
// forking a time series (the drift PRs 3 and 4 had to hand-audit).
//
// Names follow "<package>.<metric>" in lower snake case; duration
// histograms end in "_ns". Dynamically built names declare a pattern: a
// "*" matches one run of name characters, so "parallel.worker.*.units"
// covers every zero-padded worker index and "experiments.*_ns" covers the
// per-experiment stage timers.
package telemetry

// MetricName is one declared registry entry.
type MetricName struct {
	Name string // literal name or *-pattern
	Kind string // "counter", "gauge" or "histogram"
}

// KnownMetrics is the declared registry, sorted by name. pythia-lint
// extracts this literal from source; keep entries literal (no computed
// values) and append new metrics here when instrumenting new code.
var KnownMetrics = []MetricName{
	{Name: "annotate.label_ns", Kind: "histogram"},
	{Name: "annotate.pairs_labelled", Kind: "counter"},
	{Name: "annotate.tables_labelled", Kind: "counter"},
	{Name: "artifact.load_rejects", Kind: "counter"},
	{Name: "artifact.loads", Kind: "counter"},
	{Name: "artifact.saves", Kind: "counter"},
	{Name: "corpus.tables_generated", Kind: "counter"},
	{Name: "corpus.tables_ns", Kind: "histogram"},
	{Name: "experiments.*_ns", Kind: "histogram"},
	{Name: "model.train_examples", Kind: "counter"},
	{Name: "model.train_negatives", Kind: "counter"},
	{Name: "model.train_ns", Kind: "histogram"},
	{Name: "model.train_positives", Kind: "counter"},
	{Name: "parallel.budget_clipped", Kind: "counter"},
	{Name: "parallel.budget_in_use", Kind: "gauge"},
	{Name: "parallel.pool_workers", Kind: "gauge"},
	{Name: "parallel.units_total", Kind: "counter"},
	{Name: "parallel.worker.*.busy_ns", Kind: "counter"},
	{Name: "parallel.worker.*.units", Kind: "counter"},
	{Name: "pythia.dedup_drops", Kind: "counter"},
	{Name: "pythia.empty_text_drops", Kind: "counter"},
	{Name: "pythia.examples.*", Kind: "counter"},
	{Name: "pythia.generate_ns", Kind: "histogram"},
	{Name: "pythia.quota_drops", Kind: "counter"},
	{Name: "pythia.units", Kind: "counter"},
	{Name: "serve.active_streams", Kind: "gauge"},
	{Name: "serve.appends", Kind: "counter"},
	{Name: "serve.client_disconnects", Kind: "counter"},
	{Name: "serve.examples_streamed", Kind: "counter"},
	{Name: "serve.generate_requests", Kind: "counter"},
	{Name: "serve.rejected_429", Kind: "counter"},
	{Name: "serve.request_ns", Kind: "histogram"},
	{Name: "serve.stream_errors", Kind: "counter"},
	{Name: "serve.upload_unchanged", Kind: "counter"},
	{Name: "serve.uploads", Kind: "counter"},
	{Name: "sqlengine.batch_rows", Kind: "counter"},
	{Name: "sqlengine.batch_scans", Kind: "counter"},
	{Name: "sqlengine.batch_selectivity", Kind: "histogram"},
	{Name: "sqlengine.distinct_drops", Kind: "counter"},
	{Name: "sqlengine.exec_ns", Kind: "histogram"},
	{Name: "sqlengine.index_builds", Kind: "counter"},
	{Name: "sqlengine.index_hits", Kind: "counter"},
	{Name: "sqlengine.parse_ns", Kind: "histogram"},
	{Name: "sqlengine.plan_cache_evictions", Kind: "counter"},
	{Name: "sqlengine.plan_cache_hits", Kind: "counter"},
	{Name: "sqlengine.plan_cache_misses", Kind: "counter"},
	{Name: "sqlengine.queries_executed", Kind: "counter"},
	{Name: "sqlengine.queries_parsed", Kind: "counter"},
	{Name: "sqlengine.range_joins", Kind: "counter"},
	{Name: "sqlengine.rows_emitted", Kind: "counter"},
	{Name: "sqlengine.rows_scanned", Kind: "counter"},
	{Name: "sqlengine.table_swaps", Kind: "counter"},
	{Name: "sqlengine.vector_builds", Kind: "counter"},
	{Name: "stream.checkpoints_written", Kind: "counter"},
	{Name: "stream.examples_flushed", Kind: "counter"},
	{Name: "stream.units_skipped", Kind: "counter"},
}

// KnownMetric reports whether name matches a registry entry of the given
// kind ("" matches any kind). Patterns treat "*" as one run of name
// characters (letters, digits, underscores — not dots).
func KnownMetric(name, kind string) bool {
	for _, m := range KnownMetrics {
		if kind != "" && m.Kind != kind {
			continue
		}
		if MatchMetricPattern(m.Name, name) {
			return true
		}
	}
	return false
}

// MatchMetricPattern reports whether name matches pattern, where "*"
// stands for one non-empty run of [a-z0-9_] characters.
func MatchMetricPattern(pattern, name string) bool {
	return matchFrom(pattern, name)
}

func matchFrom(pattern, name string) bool {
	for {
		i := indexByte(pattern, '*')
		if i < 0 {
			return pattern == name
		}
		if len(name) < i || pattern[:i] != name[:i] {
			return false
		}
		rest, tail := pattern[i+1:], name[i:]
		// The star must consume at least one name character.
		for j := 1; j <= len(tail); j++ {
			if !nameChar(tail[j-1]) {
				break
			}
			if matchFrom(rest, tail[j:]) {
				return true
			}
		}
		return false
	}
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func nameChar(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= '0' && b <= '9' || b == '_'
}
