// Contract rules: invariants this repo already bled for, encoded so they
// cannot regress silently.
//
//	tel-metric-registry   every telemetry metric name used anywhere must
//	                      match the declared telemetry.KnownMetrics table
//	                      and the "<pkg>.<lower_snake>" naming convention
//	conc-lock-across-call a mutex held across channel operations or other
//	                      potentially blocking calls
//	err-limit-propagate   the sqlengine scan sentinel (errLimitReached)
//	                      must propagate out of scan paths; absorbing or
//	                      dropping it needs an explicit waiver
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// ---------------------------------------------------------------------------
// tel-metric-registry

// MetricRegistryAnalyzer checks telemetry metric names against the
// declared registry. It is module-wide: the registry table is extracted
// from whichever loaded package named "telemetry" declares KnownMetrics,
// then every Counter/Gauge/Histogram/LatencyHistogram/StartTimer call in
// the loaded set is validated against it. Without a loaded registry only
// the naming convention is enforced.
func MetricRegistryAnalyzer() *Analyzer {
	return &Analyzer{
		ID:        "tel-metric-registry",
		Doc:       "telemetry metric name not in declared registry or violating naming convention",
		RunModule: runMetricRegistry,
	}
}

// metricKinds maps registry-accessor method names to declared kinds.
var metricKinds = map[string]string{
	"Counter":          "counter",
	"Gauge":            "gauge",
	"Histogram":        "histogram",
	"LatencyHistogram": "histogram",
	"StartTimer":       "histogram",
}

func runMetricRegistry(pkgs []*Package) []Diagnostic {
	entries := findMetricRegistry(pkgs)
	var out []Diagnostic
	for _, p := range pkgs {
		for _, f := range p.Files {
			// Test code builds scratch registries with scratch names to
			// exercise the telemetry API itself; only production metric
			// names must be declared.
			if isTestFile(p.Fset, f.Pos()) {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				fn := pkgFunc(p.Info, call)
				kind, isAccessor := "", false
				if fn != nil {
					kind, isAccessor = metricKinds[fn.Name()]
				}
				if !isAccessor || !isTelemetryRegistryMethod(fn) {
					return true
				}
				pattern, ok := metricNamePattern(p, call.Args[0])
				if !ok {
					return true // name built at runtime beyond recognition: unverifiable
				}
				out = append(out, checkMetricName(p, call.Args[0].Pos(), fn.Name(), pattern, kind, entries)...)
				return true
			})
		}
	}
	return out
}

// isTelemetryRegistryMethod reports whether fn is a method on a Registry
// type declared in a package named telemetry (the real one, or a fixture's).
func isTelemetryRegistryMethod(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || fn.Pkg() == nil {
		return false
	}
	return lastSegment(fn.Pkg().Path()) == "telemetry"
}

// checkMetricName validates one resolved name pattern.
func checkMetricName(p *Package, pos token.Pos, method, pattern, kind string, entries []telemetry.MetricName) []Diagnostic {
	var out []Diagnostic
	diag := func(format string, args ...any) {
		out = append(out, Diagnostic{
			Pos:     p.Fset.Position(pos),
			RuleID:  "tel-metric-registry",
			Message: fmt.Sprintf(format, args...),
		})
	}
	if !metricConventionOK(pattern) {
		diag("telemetry metric %q violates the naming convention (\"<package>.<metric>\" in lower snake case)", pattern)
		return out
	}
	if (method == "LatencyHistogram" || method == "StartTimer") && !strings.HasSuffix(pattern, "_ns") {
		diag("duration histogram %q must carry the _ns suffix", pattern)
		return out
	}
	if entries == nil {
		return out
	}
	kindOf := ""
	for _, e := range entries {
		matched := false
		if strings.Contains(pattern, "*") {
			matched = e.Name == pattern
		} else {
			matched = telemetry.MatchMetricPattern(e.Name, pattern)
		}
		if matched {
			if e.Kind == kind {
				return out // declared, right kind
			}
			kindOf = e.Kind
		}
	}
	if kindOf != "" {
		diag("telemetry metric %q is declared as a %s in KnownMetrics but used as a %s", pattern, kindOf, kind)
	} else {
		diag("telemetry metric %q is not declared in telemetry.KnownMetrics; register it or fix the name", pattern)
	}
	return out
}

// metricConventionOK enforces lower-snake dot-separated names with at
// least one dot; "*" stands for a dynamic run and is allowed mid-segment.
func metricConventionOK(pattern string) bool {
	if !strings.Contains(pattern, ".") {
		return false
	}
	for _, seg := range strings.Split(pattern, ".") {
		if seg == "" {
			return false
		}
		for i := 0; i < len(seg); i++ {
			b := seg[i]
			if !(b >= 'a' && b <= 'z' || b >= '0' && b <= '9' || b == '_' || b == '*') {
				return false
			}
		}
	}
	return true
}

// metricNamePattern resolves a metric-name argument to a checkable
// pattern: string literals verbatim, concatenations and Sprintf formats
// with dynamic parts as "*". Returns ok=false when nothing literal
// anchors the name.
func metricNamePattern(p *Package, e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		if x.Kind != token.STRING {
			return "", false
		}
		s, err := strconv.Unquote(x.Value)
		if err != nil {
			return "", false
		}
		return s, true
	case *ast.BinaryExpr:
		if x.Op != token.ADD {
			return "", false
		}
		l, lok := metricNamePattern(p, x.X)
		if !lok {
			l = "*"
		}
		r, rok := metricNamePattern(p, x.Y)
		if !rok {
			r = "*"
		}
		if !lok && !rok {
			return "", false
		}
		return l + r, true
	case *ast.CallExpr:
		fn := pkgFunc(p.Info, x)
		if fn == nil || fn.FullName() != "fmt.Sprintf" || len(x.Args) == 0 {
			return "", false
		}
		format, ok := metricNamePattern(p, x.Args[0])
		if !ok {
			return "", false
		}
		return starVerbs(format), true
	}
	return "", false
}

// starVerbs replaces each %-verb in a Sprintf format with "*" ("%%"
// stays a literal percent, which the convention check then rejects).
func starVerbs(format string) string {
	var b strings.Builder
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			b.WriteByte(format[i])
			continue
		}
		if i+1 < len(format) && format[i+1] == '%' {
			b.WriteByte('%')
			i++
			continue
		}
		// Consume flags, width, precision up to the verb letter.
		j := i + 1
		for j < len(format) && !isVerbLetter(format[j]) {
			j++
		}
		b.WriteByte('*')
		i = j
	}
	return b.String()
}

func isVerbLetter(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
}

// findMetricRegistry extracts the KnownMetrics literal from a loaded
// package named telemetry, or returns nil.
func findMetricRegistry(pkgs []*Package) []telemetry.MetricName {
	for _, p := range pkgs {
		if lastSegment(strings.Fields(p.Path)[0]) != "telemetry" {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if name.Name != "KnownMetrics" || i >= len(vs.Values) {
							continue
						}
						if entries := parseRegistryLiteral(vs.Values[i]); entries != nil {
							return entries
						}
					}
				}
			}
		}
	}
	return nil
}

// parseRegistryLiteral reads []MetricName{{Name: …, Kind: …}, …} entries,
// keyed or positional.
func parseRegistryLiteral(e ast.Expr) []telemetry.MetricName {
	outer, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok {
		return nil
	}
	var entries []telemetry.MetricName
	for _, elt := range outer.Elts {
		inner, ok := elt.(*ast.CompositeLit)
		if !ok {
			continue
		}
		var m telemetry.MetricName
		for i, field := range inner.Elts {
			key, val := "", field
			if kv, ok := field.(*ast.KeyValueExpr); ok {
				if id, ok := kv.Key.(*ast.Ident); ok {
					key = id.Name
				}
				val = kv.Value
			} else if i == 0 {
				key = "Name"
			} else if i == 1 {
				key = "Kind"
			}
			lit, ok := ast.Unparen(val).(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				continue
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				continue
			}
			switch key {
			case "Name":
				m.Name = s
			case "Kind":
				m.Kind = s
			}
		}
		if m.Name != "" {
			entries = append(entries, m)
		}
	}
	return entries
}

// ---------------------------------------------------------------------------
// conc-lock-across-call

// LockAcrossCallAnalyzer flags blocking operations — channel sends and
// receives, selects, WaitGroup/Cond waits, time.Sleep — executed while a
// sync.Mutex or RWMutex is held: between an x.Lock()/x.RLock() statement
// and the matching unlock in the same block, or anywhere after a deferred
// unlock. Function literals inside the window are skipped: they do not
// run under the lock unless invoked, and goroutine bodies never hold it.
func LockAcrossCallAnalyzer() *Analyzer {
	return &Analyzer{
		ID:  "conc-lock-across-call",
		Doc: "mutex held across channel ops or blocking calls",
		Run: runLockAcrossCall,
	}
}

func runLockAcrossCall(p *Package) []Diagnostic {
	var out []Diagnostic
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			for i, stmt := range block.List {
				key, ok := lockStmt(p, stmt, "Lock", "RLock")
				if !ok {
					continue
				}
				window := block.List[i+1:]
				// A matching unlock in the same list bounds the window.
				for j, rest := range window {
					if uk, uok := lockStmt(p, rest, "Unlock", "RUnlock"); uok && uk == key {
						window = window[:j]
						break
					}
				}
				lockLine := p.Fset.Position(stmt.Pos()).Line
				for _, s := range window {
					if dk, dok := deferUnlock(p, s); dok && dk == key {
						continue
					}
					out = append(out, blockingOps(p, s, key, lockLine)...)
				}
			}
			return true
		})
	}
	return out
}

// lockStmt matches `x.M()` expression statements for M in names, keyed by
// the printed receiver expression.
func lockStmt(p *Package, stmt ast.Stmt, names ...string) (key string, ok bool) {
	es, isExpr := stmt.(*ast.ExprStmt)
	if !isExpr {
		return "", false
	}
	return lockCall(p, es.X, names...)
}

// deferUnlock matches `defer x.Unlock()` / `defer x.RUnlock()`.
func deferUnlock(p *Package, stmt ast.Stmt) (key string, ok bool) {
	ds, isDefer := stmt.(*ast.DeferStmt)
	if !isDefer {
		return "", false
	}
	return lockCall(p, ds.Call, "Unlock", "RUnlock")
}

// lockCall resolves e as a call to one of the named methods on a value
// whose type transitively contains a sync mutex.
func lockCall(p *Package, e ast.Expr, names ...string) (key string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	match := false
	for _, name := range names {
		if sel.Sel.Name == name {
			match = true
		}
	}
	if !match {
		return "", false
	}
	tv, okT := p.Info.Types[sel.X]
	if !okT || tv.Type == nil {
		return "", false
	}
	t := tv.Type
	if ptr, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	if containsLock(t) == nil {
		return "", false
	}
	return types.ExprString(sel.X), true
}

// syncLockTypes are the sync types containsLock looks for.
var syncLockTypes = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true,
	"Once": true, "Cond": true, "Map": true, "Pool": true,
}

// containsLock returns the sync type reachable from t by value (directly,
// or through struct fields and array elements), or nil. Pointers, slices,
// maps and channels stop the search.
func containsLock(t types.Type) types.Type {
	switch u := types.Unalias(t).(type) {
	case *types.Named:
		if obj := u.Obj(); obj.Pkg() != nil && obj.Pkg().Path() == "sync" && syncLockTypes[obj.Name()] {
			return t
		}
		return containsLock(u.Underlying())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if found := containsLock(u.Field(i).Type()); found != nil {
				return found
			}
		}
	case *types.Array:
		return containsLock(u.Elem())
	}
	return nil
}

// blockingOps collects the blocking operations under stmt, not descending
// into function literals.
func blockingOps(p *Package, stmt ast.Stmt, lockKey string, lockLine int) []Diagnostic {
	var out []Diagnostic
	flag := func(pos token.Pos, what string) {
		out = append(out, Diagnostic{
			Pos:    p.Fset.Position(pos),
			RuleID: "conc-lock-across-call",
			Message: fmt.Sprintf("%s while holding %s (locked at line %d); blocking here stalls every other user of the lock — release it first",
				what, lockKey, lockLine),
		})
	}
	ast.Inspect(stmt, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			flag(x.Pos(), "channel send")
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				flag(x.Pos(), "channel receive")
			}
		case *ast.SelectStmt:
			flag(x.Pos(), "select")
			return false
		case *ast.RangeStmt:
			if isChanRange(p, x) {
				flag(x.Pos(), "range over channel")
			}
		case *ast.CallExpr:
			fn := pkgFunc(p.Info, x)
			if fn == nil {
				return true
			}
			switch fn.FullName() {
			case "(*sync.WaitGroup).Wait", "(*sync.Cond).Wait", "time.Sleep":
				flag(x.Pos(), fn.FullName())
			}
		}
		return true
	})
	return out
}

// ---------------------------------------------------------------------------
// err-limit-propagate

// LimitPropagateAnalyzer guards the sqlengine scan contract: a package
// that declares an errLimit* sentinel converts it to success at exactly
// one blessed point (planRows); everywhere else the sentinel must
// propagate. The rule flags (a) dropped errors from calls that may return
// the sentinel — stronger than err-ignored because it also names the
// sentinel — and (b) any comparison against the sentinel, which is how
// absorption happens; the single legitimate conversion point carries an
// explicit //lint:ignore waiver. Test files are exempt: asserting the
// sentinel is their job.
func LimitPropagateAnalyzer() *Analyzer {
	return &Analyzer{
		ID:  "err-limit-propagate",
		Doc: "errLimitReached dropped or absorbed outside the blessed conversion point",
		Run: runLimitPropagate,
	}
}

func runLimitPropagate(p *Package) []Diagnostic {
	sentinel := findLimitSentinel(p)
	if sentinel == nil {
		return nil
	}
	mayReturn, mayReturnSigs := limitReturners(p, sentinel)

	var out []Diagnostic
	for _, f := range p.Files {
		if isTestFile(p.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.BinaryExpr:
				if x.Op != token.EQL && x.Op != token.NEQ {
					return true
				}
				if usesObject(p, x.X, sentinel) || usesObject(p, x.Y, sentinel) {
					out = append(out, Diagnostic{
						Pos:    p.Fset.Position(x.Pos()),
						RuleID: "err-limit-propagate",
						Message: fmt.Sprintf("comparison absorbs %s; scan paths must propagate it — only the blessed conversion point may treat the limit as success (waive with //lint:ignore and a reason there)",
							sentinel.Name()),
					})
				}
			case *ast.ExprStmt:
				call, ok := ast.Unparen(x.X).(*ast.CallExpr)
				if !ok || !mayReturnSentinel(p, call, mayReturn, mayReturnSigs) {
					return true
				}
				if len(resultErrIndexes(p.Info, call)) > 0 {
					out = append(out, limitDropDiag(p, call.Pos(), call, sentinel))
				}
			case *ast.AssignStmt:
				out = append(out, blankLimitDrops(p, x, sentinel, mayReturn, mayReturnSigs)...)
			}
			return true
		})
	}
	return out
}

// blankLimitDrops flags `_`-discarded errors from may-return-sentinel
// calls.
func blankLimitDrops(p *Package, as *ast.AssignStmt, sentinel types.Object, mayReturn map[*types.Func]bool, sigs []*types.Signature) []Diagnostic {
	if len(as.Rhs) != 1 {
		return nil
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok || !mayReturnSentinel(p, call, mayReturn, sigs) {
		return nil
	}
	var out []Diagnostic
	for _, i := range resultErrIndexes(p.Info, call) {
		if i < len(as.Lhs) && isBlank(as.Lhs[i]) {
			out = append(out, limitDropDiag(p, as.Lhs[i].Pos(), call, sentinel))
		}
	}
	return out
}

func limitDropDiag(p *Package, pos token.Pos, call *ast.CallExpr, sentinel types.Object) Diagnostic {
	return Diagnostic{
		Pos:    p.Fset.Position(pos),
		RuleID: "err-limit-propagate",
		Message: fmt.Sprintf("error from %s may carry %s; dropping it silently truncates the scan — propagate it",
			calleeName(p, call), sentinel.Name()),
	}
}

// findLimitSentinel locates a package-level `var errLimit…` declaration.
func findLimitSentinel(p *Package) types.Object {
	scope := p.Types.Scope()
	for _, name := range scope.Names() {
		if strings.HasPrefix(name, "errLimit") {
			if v, ok := scope.Lookup(name).(*types.Var); ok {
				return v
			}
		}
	}
	return nil
}

// limitReturners computes (a) the set of declared functions that may
// return the sentinel, transitively through `return f(…)` chains, and
// (b) the signatures of named function types whose values may return it
// (a function literal returning the sentinel assigned to a variable of a
// named func type, like sqlengine's rowSink).
func limitReturners(p *Package, sentinel types.Object) (map[*types.Func]bool, []*types.Signature) {
	mayReturn := make(map[*types.Func]bool)
	var sigs []*types.Signature

	// Function declarations by object, for the fixpoint.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = fd
				}
			}
		}
	}

	// Seed: bodies (including literals) that lexically return the
	// sentinel. A literal returning it taints its enclosing declaration —
	// the value leaves through the closure — and registers its named
	// context type when one exists.
	returnsSentinel := func(body ast.Node) bool {
		found := false
		ast.Inspect(body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return !found
			}
			for _, res := range ret.Results {
				if usesObject(p, res, sentinel) {
					found = true
				}
			}
			return !found
		})
		return found
	}
	for fn, fd := range decls {
		if returnsSentinel(fd.Body) {
			mayReturn[fn] = true
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.FuncLit)
			if !ok || !returnsSentinel(lit.Body) {
				return true
			}
			if tv, ok := p.Info.Types[lit]; ok {
				if sig, ok := tv.Type.(*types.Signature); ok {
					sigs = append(sigs, sig)
				}
			}
			return true
		})
	}

	// Fixpoint: returning the result of a may-return call propagates.
	for changed := true; changed; {
		changed = false
		for fn, fd := range decls {
			if mayReturn[fn] {
				continue
			}
			hit := false
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				ret, ok := n.(*ast.ReturnStmt)
				if !ok || hit {
					return !hit
				}
				for _, res := range ret.Results {
					if call, ok := ast.Unparen(res).(*ast.CallExpr); ok {
						if callee := pkgFunc(p.Info, call); callee != nil && mayReturn[callee] {
							hit = true
						}
					}
				}
				return !hit
			})
			if hit {
				mayReturn[fn] = true
				changed = true
			}
		}
	}
	return mayReturn, sigs
}

// mayReturnSentinel reports whether call can produce the sentinel: its
// static callee is a known returner, or it calls through a value whose
// signature matches a sentinel-returning literal's named context.
func mayReturnSentinel(p *Package, call *ast.CallExpr, mayReturn map[*types.Func]bool, sigs []*types.Signature) bool {
	if fn := pkgFunc(p.Info, call); fn != nil {
		return mayReturn[fn]
	}
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return false
	}
	named, ok := types.Unalias(tv.Type).(*types.Named)
	if !ok {
		return false
	}
	sig, ok := named.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	for _, s := range sigs {
		if types.Identical(sig, s) {
			return true
		}
	}
	return false
}

// usesObject reports whether expr mentions an identifier resolving to obj.
func usesObject(p *Package, expr ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}
