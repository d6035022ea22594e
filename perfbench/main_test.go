package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/kb"
	"repro/internal/model"
)

// tinySizes run every workload in well under a second.
func tinySizes() sizes {
	return sizes{
		bulkRows:      30,
		bulkSetups:    1,
		textgenRows:   []int{20, 20, 20},
		textgenSetups: 1,
		trainTables:   20,
		tenants:       []int{20, 25},
		serveSetups:   2,
		coldPhases:    1,
		appends:       4,
		appendEvery:   2,
	}
}

func tinyRun(t *testing.T, workload string, seed int64, trace bool, ref *reference) *report {
	t.Helper()
	cfg := config{workload: workload, seed: seed, seconds: 0.2, trace: trace, dir: t.TempDir(), sizes: tinySizes(), ref: ref}
	rep, err := measure(cfg)
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	return rep
}

func sameNames(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d names %v, want %d %v", what, len(got), got, len(want), want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: got %v, want %v", what, got, want)
		}
	}
}

// TestEveryMetricEmitted checks that each workload prints exactly the
// metrics BENCHMARK.json declares, untraced and traced, that untraced
// values are positive, and that layers.json maps every per-layer metric.
func TestEveryMetricEmitted(t *testing.T) {
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	units := func(ms []struct{ Name, Unit string }) map[string]string {
		out := map[string]string{}
		for _, m := range ms {
			out[m.Name] = m.Unit
		}
		return out
	}
	e2e, layer := units(bench.EndToEnd), units(bench.PerLayer)

	var layers struct {
		EndToEnd map[string]map[string]string `json:"end_to_end"`
		PerLayer map[string]json.RawMessage   `json:"per_layer"`
	}
	b, err = os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &layers); err != nil {
		t.Fatal(err)
	}
	sameNames(t, "layers.json end_to_end", sortedKeys(layers.EndToEnd), sortedKeys(e2e))
	sameNames(t, "layers.json per_layer", sortedKeys(layers.PerLayer), sortedKeys(layer))

	for _, w := range sortedKeys(workloads) {
		rep := tinyRun(t, w, 3, false, nil)
		sameNames(t, w+" end-to-end metrics", sortedKeys(rep.Metrics), sortedKeys(e2e))
		for name, m := range rep.Metrics {
			if m.Unit != e2e[name] {
				t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", w, name, m.Unit, e2e[name])
			}
			if !(m.Value > 0) {
				t.Errorf("%s %s = %v, want > 0", w, name, m.Value)
			}
		}
		for table := range layers.EndToEnd["op_p50_ms"] {
			if _, ok := workloads[table]; !ok {
				t.Errorf("layers.json describes unknown workload %q", table)
			}
		}
		rep = tinyRun(t, w, 3, true, nil)
		sameNames(t, w+" per-layer metrics", sortedKeys(rep.Metrics), sortedKeys(layer))
		for name, m := range rep.Metrics {
			if m.Unit != layer[name] {
				t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", w, name, m.Unit, layer[name])
			}
		}
	}
}

// TestSecondSeedRunsClean runs every workload on two seeds: both are
// correct, each seed reproduces its own output, and the seeds' outputs
// differ.
func TestSecondSeedRunsClean(t *testing.T) {
	for _, w := range sortedKeys(workloads) {
		a := tinyRun(t, w, 1, false, nil)
		again := tinyRun(t, w, 1, false, nil)
		b := tinyRun(t, w, 2, false, nil)
		for _, rep := range []*report{a, again, b} {
			if !rep.Correct || rep.Failed != 0 {
				t.Fatalf("%s: %d of %d operations failed", w, rep.Failed, rep.Attempted)
			}
		}
		sa, sb := a.Provenance["output_sha256"], b.Provenance["output_sha256"]
		if sa != again.Provenance["output_sha256"] {
			t.Errorf("%s: seed 1 gave two outputs", w)
		}
		if sa == sb {
			t.Errorf("%s: seeds 1 and 2 gave the same output %v", w, sa)
		}
	}
}

// TestWrongReferenceFails checks that a run whose output differs from the
// recorded reference counts its operations as failed.
func TestWrongReferenceFails(t *testing.T) {
	for _, w := range sortedKeys(workloads) {
		good := tinyRun(t, w, 1, false, nil)
		ref := reference{Examples: good.Provenance["examples"].(int), SHA256: good.Provenance["output_sha256"].(string)}
		if rep := tinyRun(t, w, 1, false, &ref); !rep.Correct {
			t.Fatalf("%s: the run's own digest fails its check", w)
		}
		bad := ref
		bad.SHA256 = digest([]byte("something else"))
		rep := tinyRun(t, w, 1, false, &bad)
		if rep.Correct || rep.Failed != rep.Attempted {
			t.Errorf("%s: wrong reference gave correct=%v, %d of %d failed", w, rep.Correct, rep.Failed, rep.Attempted)
		}
	}
}

// TestReferencesCoverWorkloads checks reference.json records every
// workload.
func TestReferencesCoverWorkloads(t *testing.T) {
	refs, err := references()
	if err != nil {
		t.Fatal(err)
	}
	sameNames(t, "reference.json", sortedKeys(refs), sortedKeys(workloads))
}

// TestCorruptShardFailsCheck writes one tiny templates pass and checks that
// damaged output is caught: a changed line fails the line check, a later
// pass with other bytes fails the digest check, and a truncated shard
// fails the manifest check.
func TestCorruptShardFailsCheck(t *testing.T) {
	in, err := makeTable("Covid", "Covid", 30, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	pred := model.NewULabel(kb.BuildDefault())
	dir := filepath.Join(t.TempDir(), "out")
	pt, err := bulkPass(in, pred, dir, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	check := func(rd io.Reader) (int, error) {
		n, _, err := checkNDJSON(rd, in.name)
		return n, err
	}
	if n, _, err := readShards(dir, check); err != nil || n != pt.examples {
		t.Fatalf("clean output: %d examples, %v; want %d", n, err, pt.examples)
	}
	shard := filepath.Join(dir, "shard-00000.ndjson")
	doc, err := os.ReadFile(shard)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(doc, []byte{'\n'})
	last := lines[len(lines)-2] // SplitAfter leaves "" after the final newline
	repeated := append(append([]byte(nil), doc[:len(doc)-len(last)]...), lines[0]...)

	cases := map[string][]byte{
		"renamed dataset": bytes.Replace(doc, []byte(`"Dataset":"Covid"`), []byte(`"Dataset":"Covix"`), 1),
		"repeated text":   repeated,
		"broken json":     bytes.Replace(doc, []byte(`"Text":`), []byte(`"Text"`), 1),
	}
	for name, bad := range cases {
		if _, _, err := checkNDJSON(bytes.NewReader(bad), in.name); err == nil {
			t.Errorf("%s: check passed", name)
		}
	}
	r := newResult()
	if _, err := r.verify(in.name, bytes.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	changed := bytes.Replace(doc, []byte("higher"), []byte("HIGHER"), 1)
	if _, err := r.verify(in.name, bytes.NewReader(changed)); err == nil {
		t.Error("a later pass with other bytes: digest check passed")
	}
	if err := os.WriteFile(shard, doc[:len(doc)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readShards(dir, check); err == nil {
		t.Error("truncated shard: manifest check passed")
	}
}
