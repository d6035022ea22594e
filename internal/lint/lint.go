// Package lint implements pythia-lint, a repo-specific static-analysis
// pass built only on the standard library's go/ast, go/parser, go/token
// and go/types (no external analysis frameworks, per DESIGN.md).
//
// PYTHIA's contract is reproducibility: Algorithm 1 must emit the same
// (a-query, evidence, text) triples for the same table and seed, or every
// downstream corpus silently drifts. The analyzers here machine-check the
// invariants that protect that contract. Three are syntactic, per-file
// passes:
//
//	det-map-iter      map iteration feeding ordered output without a sort
//	det-global-rand   package-global math/rand calls (unseeded randomness)
//	err-ignored       discarded error returns (`_ =` or bare calls)
//
// Checks the toolchain already makes are left to it: `go vet` (copylocks)
// reports sync locks passed by value, and under the module's go 1.22 every
// loop iteration has its own variables, so goroutines cannot share one.
//
// On top of them sits a whole-program layer built on a module-wide call
// graph over every loaded package (callgraph.go):
//
//	det-flow              interprocedural taint from nondeterminism
//	                      sources to generation/serialization sinks
//	tel-metric-registry   telemetry metric names must match the declared
//	                      registry and naming convention
//	conc-lock-across-call mutex held across potentially blocking ops
//	err-limit-propagate   errLimitReached must propagate, not be absorbed
//
// Findings print as "file:line:col: [rule-id] message". A finding can be
// suppressed with a comment on the same line or the line directly above:
//
//	//lint:ignore rule-id reason
//
// The reason is mandatory; an ignore comment without one does not
// suppress. A subset of findings carry mechanical fixes applied by
// pythia-lint -fix (see fix.go); known findings can be waived en masse
// through a committed baseline file (see baseline.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding of one analyzer.
type Diagnostic struct {
	Pos     token.Position
	RuleID  string
	Message string

	// Fix, when non-nil, is a mechanical rewrite that resolves the
	// finding. Applied by pythia-lint -fix; see fix.go.
	Fix *Fix
}

// key identifies a finding for dedup and suppression independent of any
// attached fix.
type diagKey struct {
	pos     token.Position
	ruleID  string
	message string
}

func (d Diagnostic) key() diagKey {
	return diagKey{pos: d.Pos, ruleID: d.RuleID, message: d.Message}
}

// String renders the canonical "file:line:col: [rule-id] message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.RuleID, d.Message)
}

// Package is one type-checked package ready for analysis.
type Package struct {
	Path  string // import path (module-relative) or directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Analyzer is one named rule. Per-file rules set Run; whole-program rules
// set RunModule instead and receive every loaded package at once (they see
// exactly the packages the invocation loaded — running them on a subtree
// analyzes that subtree's bodies only).
type Analyzer struct {
	ID        string // stable rule ID used in reports and ignore comments
	Doc       string // one-line description
	Run       func(p *Package) []Diagnostic
	RunModule func(pkgs []*Package) []Diagnostic
}

// Analyzers returns every rule in the fixed, documented order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapIterAnalyzer(),
		GlobalRandAnalyzer(),
		IgnoredErrorAnalyzer(),
		DetFlowAnalyzer(),
		MetricRegistryAnalyzer(),
		LockAcrossCallAnalyzer(),
		LimitPropagateAnalyzer(),
	}
}

// AnalyzerByID returns the rule with the given ID, or nil.
func AnalyzerByID(id string) *Analyzer {
	for _, a := range Analyzers() {
		if a.ID == id {
			return a
		}
	}
	return nil
}

// Run applies the analyzers to each package (and the module-wide ones to
// the package set as a whole), drops suppressed findings and returns the
// remainder sorted by position then rule ID, so output is stable across
// runs (the linter holds itself to its own determinism bar).
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	seen := make(map[diagKey]bool)
	// One merged suppression set: module-wide rules report positions in
	// any loaded package, so waivers must resolve across the whole set.
	sup := make(suppressionSet)
	for _, p := range pkgs {
		sup.collect(p)
	}
	add := func(diags []Diagnostic) {
		for _, d := range diags {
			// Nested constructs can attribute one defect to several
			// enclosing nodes; report each finding once.
			if k := d.key(); !sup.covers(d) && !seen[k] {
				seen[k] = true
				out = append(out, d)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunModule != nil {
			add(a.RunModule(pkgs))
			continue
		}
		for _, p := range pkgs {
			add(a.Run(p))
		}
	}
	SortDiagnostics(out)
	return out
}

// SortDiagnostics orders findings by file, line, column, then rule ID —
// the canonical report order.
func SortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.RuleID < b.RuleID
	})
}

// isTestFile reports whether the file containing pos is a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// pkgFunc resolves a call expression to the *types.Func it invokes, or nil
// for calls through variables, conversions and builtins.
func pkgFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// errorType is the predeclared error interface.
var errorType = types.Universe.Lookup("error").Type()

// resultErrIndexes returns the positions of error-typed results in a call's
// result tuple (nil if none). A single-value call is treated as a 1-tuple.
func resultErrIndexes(info *types.Info, call *ast.CallExpr) []int {
	tv, ok := info.Types[call]
	if !ok {
		return nil
	}
	var idx []int
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if types.Identical(t.At(i).Type(), errorType) {
				idx = append(idx, i)
			}
		}
	default:
		if t != nil && types.Identical(t, errorType) {
			idx = append(idx, 0)
		}
	}
	return idx
}
