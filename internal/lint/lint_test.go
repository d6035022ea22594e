package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// fixtureDirs lists the deliberately-broken packages under testdata/src.
// Every fixture is run through ALL analyzers, and the findings must match
// the `// want rule-id` markers exactly — so each fixture also proves the
// other rules stay quiet on it.
var fixtureDirs = []string{
	"detmapiter",
	"detglobalrand",
	"errignored",
	"suppressed",
	"detflow",
	"telregistry",
	"conclockacross",
	"errlimit",
}

// wantMarkers walks fixture sources (recursively, for multi-package
// fixtures like detflow) for `// want rule-id` markers and returns
// "file:line:rule" keys.
func wantMarkers(t *testing.T, dir string) map[string]int {
	t.Helper()
	want := map[string]int{}
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(d.Name(), ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, mark, ok := strings.Cut(line, "// want ")
			if !ok {
				continue
			}
			for _, id := range strings.Fields(mark) {
				want[fmt.Sprintf("%s:%d:%s", path, i+1, id)]++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestFixtures(t *testing.T) {
	for _, name := range fixtureDirs {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", name)
			loader, err := lint.NewLoader(".")
			if err != nil {
				t.Fatal(err)
			}
			loader.IncludeTests = true
			pkgs, err := loader.Load(dir + "/...")
			if err != nil {
				t.Fatal(err)
			}
			got := map[string]int{}
			for _, d := range lint.Run(pkgs, lint.Analyzers()) {
				got[fmt.Sprintf("%s:%d:%s", d.Pos.Filename, d.Pos.Line, d.RuleID)]++
			}
			want := wantMarkers(t, dir)
			for k := range want {
				if got[k] == 0 {
					t.Errorf("missing finding %s", k)
				}
			}
			for k, n := range got {
				if want[k] == 0 {
					t.Errorf("unexpected finding %s (x%d)", k, n)
				}
			}
		})
	}
}

// TestFixtureRuleCoverage pins each fixture to its namesake rule: the rule
// must fire at least once there, proving every analyzer has a golden
// package exercising it.
func TestFixtureRuleCoverage(t *testing.T) {
	byFixture := map[string]string{
		"detmapiter":     "det-map-iter",
		"detglobalrand":  "det-global-rand",
		"errignored":     "err-ignored",
		"suppressed":     "det-global-rand",
		"detflow":        "det-flow",
		"telregistry":    "tel-metric-registry",
		"conclockacross": "conc-lock-across-call",
		"errlimit":       "err-limit-propagate",
	}
	for name, rule := range byFixture {
		want := wantMarkers(t, filepath.Join("testdata", "src", name))
		found := false
		for k := range want {
			if strings.HasSuffix(k, ":"+rule) {
				found = true
			}
		}
		if !found {
			t.Errorf("fixture %s has no want marker for rule %s", name, rule)
		}
	}
}

func TestDiagnosticString(t *testing.T) {
	d := lint.Diagnostic{RuleID: "det-map-iter", Message: "boom"}
	d.Pos.Filename = "x.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, want := d.String(), "x.go:3:7: [det-map-iter] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestAnalyzerByID(t *testing.T) {
	for _, a := range lint.Analyzers() {
		if lint.AnalyzerByID(a.ID) != a && lint.AnalyzerByID(a.ID) == nil {
			t.Errorf("AnalyzerByID(%q) did not resolve", a.ID)
		}
	}
	if lint.AnalyzerByID("no-such-rule") != nil {
		t.Error("AnalyzerByID on unknown ID should return nil")
	}
}

// TestLoaderModuleResolution builds a scratch module with a testdata
// directory and a module-local import, checking pattern expansion skips
// testdata and the importer resolves module paths from source.
func TestLoaderModuleResolution(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/scratch\n\ngo 1.22\n")
	write("a/a.go", "package a\n\nfunc A() int { return 1 }\n")
	write("a/testdata/skip.go", "package skipme\n\nfunc Broken() {\n")
	write("b/b.go", "package b\n\nimport \"example.com/scratch/a\"\n\nfunc B() int { return a.A() }\n")

	loader, err := lint.NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(dir + "/...")
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, p := range pkgs {
		paths = append(paths, p.Path)
	}
	sort.Strings(paths)
	want := []string{"example.com/scratch/a", "example.com/scratch/b"}
	if len(paths) != len(want) || paths[0] != want[0] || paths[1] != want[1] {
		t.Errorf("loaded %v, want %v (testdata must be skipped, module imports resolved)", paths, want)
	}
}

// TestParallelLoadDeterministicOrder loads the full fixture tree at two
// worker counts: package order and every diagnostic must be identical,
// proving the concurrent loader changes only wall-clock time.
func TestParallelLoadDeterministicOrder(t *testing.T) {
	run := func(workers int) (paths, diags []string) {
		loader, err := lint.NewLoader(".")
		if err != nil {
			t.Fatal(err)
		}
		loader.Workers = workers
		loader.IncludeTests = true
		pkgs, err := loader.Load("testdata/src/...")
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			paths = append(paths, p.Path)
		}
		for _, d := range lint.Run(pkgs, lint.Analyzers()) {
			diags = append(diags, d.String())
		}
		return paths, diags
	}
	seqPaths, seqDiags := run(1)
	parPaths, parDiags := run(8)
	if !sort.StringsAreSorted(seqPaths) {
		t.Errorf("package order is not sorted: %v", seqPaths)
	}
	if strings.Join(seqPaths, "\n") != strings.Join(parPaths, "\n") {
		t.Errorf("package order differs between 1 and 8 workers:\n%v\nvs\n%v", seqPaths, parPaths)
	}
	if strings.Join(seqDiags, "\n") != strings.Join(parDiags, "\n") {
		t.Errorf("diagnostics differ between 1 and 8 workers:\n%s\nvs\n%s",
			strings.Join(seqDiags, "\n"), strings.Join(parDiags, "\n"))
	}
	if len(seqDiags) == 0 {
		t.Error("fixture tree produced no diagnostics; determinism check is vacuous")
	}
}

// TestPatternNoMatchErrors pins the CLI contract that a pattern matching
// no packages is a load error naming the pattern, not a silent pass.
func TestPatternNoMatchErrors(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Load("testdata"); err == nil || !strings.Contains(err.Error(), `pattern "testdata" matched no packages`) {
		t.Errorf("plain no-Go-files dir: got %v, want matched-no-packages error", err)
	}
	empty := t.TempDir()
	if _, err := loader.Load(empty + "/..."); err == nil || !strings.Contains(err.Error(), "matched no packages") {
		t.Errorf("empty recursive pattern: got %v, want matched-no-packages error", err)
	}
}

// TestCleanPackageHasNoFindings runs all analyzers over this package's own
// loader/analyzer sources: the linter must hold itself to its own rules.
func TestCleanPackageHasNoFindings(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range lint.Run(pkgs, lint.Analyzers()) {
		t.Errorf("unexpected finding in internal/lint: %s", d)
	}
}
