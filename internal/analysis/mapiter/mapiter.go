// Package mapiter flags `range` loops over maps whose bodies perform
// order-sensitive work. Go randomises map iteration order per range
// statement, so any of the following inside a map range is a
// nondeterminism bug unless a total order is imposed elsewhere:
//
//   - scheduling simulator events (event sequence numbers embed arrival
//     order, so two runs diverge even at equal timestamps);
//   - writing output (reports, CSV, trace lines);
//   - accumulating into an outer slice that is never deterministically
//     sorted afterwards in the same function;
//   - selecting a winner / folding into an outer scalar whose result can
//     depend on visit order (the historical FQ-CoDel drop-victim bug:
//     "pick the fattest flow" with ties broken by map order).
//
// All four hazard classes are followed through helpers: a call inside the
// range body that resolves to a function, method, or function-literal
// binding declared in the same package has its body scanned (transitively,
// memoized, cycle-safe), so hiding eng.ScheduleCall — or an append to a
// captured slice — one hop down does not silence the diagnostic. The
// report names the helper chain. Accumulation and selection hazards in a
// helper body are writes to variables declared *outside* the helper
// (captured or package-level) fed by the helper's parameters, and are
// reported only when the call site actually passes loop-derived values;
// an accumulation is forgiven when the caller deterministically sorts the
// target slice after the loop, exactly like the direct case.
//
// The analyzer recognises the collect-then-sort idiom (append inside the
// loop, sort.*/slices.* on the same slice after it) and does not flag it.
// Loops whose selection is genuinely order-free because the comparison is
// a total order must say so with a `//lint:ignore mapiter <reason>`
// directive — the annotation is the reviewable artifact.
package mapiter

import (
	"go/ast"
	"go/token"
	"go/types"

	"cebinae/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "mapiter",
	Doc: "flag map-range loops that schedule events, write output, or accumulate/select " +
		"order-sensitively without a deterministic sort",
	Run: run,
}

// scheduleMethods are sim.Engine entry points whose call order is
// observable (FIFO tie-breaking at equal timestamps): each draws one
// sequence number per call. DrawSeq draws one and schedules nothing; its
// counterpart ScheduleOwned is absent because it takes its key, seq
// included, from the caller and draws none, so the order of its calls
// leaves no trace in the event stream.
var scheduleMethods = map[string]bool{
	"ScheduleCall":     true,
	"DrawSeq":          true,
	"AtCall":           true,
	"StreamCall":       true,
	"ArmTimer":         true,
	"ArmPinnedTimer":   true,
	"ArmPinnedTimerAt": true,
	"RunUntil":         true,
}

// writerMethods are method names that emit output in call order.
var writerMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"Encode":      true,
}

var fmtPrinters = map[string]bool{
	"Print": true, "Println": true, "Printf": true,
	"Fprint": true, "Fprintln": true, "Fprintf": true,
}

func run(pass *analysis.Pass) error {
	h := newHelperScanner(pass)
	for _, f := range pass.Files {
		// enclosing tracks the innermost function body so the
		// collect-then-sort idiom can look downstream of the loop.
		var funcBodies []*ast.BlockStmt
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					funcBodies = append(funcBodies, n.Body)
					ast.Inspect(n.Body, visit)
					funcBodies = funcBodies[:len(funcBodies)-1]
				}
				return false
			case *ast.FuncLit:
				funcBodies = append(funcBodies, n.Body)
				ast.Inspect(n.Body, visit)
				funcBodies = funcBodies[:len(funcBodies)-1]
				return false
			case *ast.RangeStmt:
				if isMapRange(pass, n) && len(funcBodies) > 0 {
					checkMapRange(pass, h, n, funcBodies[len(funcBodies)-1])
				}
			}
			return true
		}
		ast.Inspect(f, visit)
	}
	return nil
}

func isMapRange(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	t := pass.TypeOf(rs.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func checkMapRange(pass *analysis.Pass, h *helperScanner, rs *ast.RangeStmt, funcBody *ast.BlockStmt) {
	loopVars := rangeVarObjects(pass, rs)

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, h, rs, n, loopVars, funcBody)
		case *ast.AssignStmt:
			checkAssign(pass, rs, n, loopVars, funcBody)
		}
		return true
	})
}

// rangeVarObjects returns the objects of the loop's key/value variables.
func rangeVarObjects(pass *analysis.Pass, rs *ast.RangeStmt) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.ObjectOf(id); obj != nil {
				vars[obj] = true
			}
		}
	}
	return vars
}

func checkCall(pass *analysis.Pass, h *helperScanner, rs *ast.RangeStmt, call *ast.CallExpr, loopVars map[types.Object]bool, funcBody *ast.BlockStmt) {
	if hz := directHazard(pass, call); hz != nil {
		report(pass, rs, "", hz)
		return
	}
	// Not itself a hazard: if the callee is a helper declared in this
	// package, the hazard may be one hop (or several) down — the loop body
	// still drives it in iteration order.
	hz := h.classify(h.callee(call))
	if hz == nil {
		return
	}
	switch hz.kind {
	case hazardAccumulate, hazardSelect:
		// Parameter-fed hazards matter only when the call actually feeds
		// loop-derived values in; a loop-invariant argument produces the
		// same contents regardless of visit order.
		if !callArgsUse(pass, call, loopVars) {
			return
		}
		if hz.kind == hazardAccumulate && sortedAfter(pass, rs, funcBody, hz.target) {
			return
		}
	}
	report(pass, rs, calleeName(call), hz)
}

// report emits the diagnostic for a hazard reached from a map range,
// optionally through a named helper.
func report(pass *analysis.Pass, rs *ast.RangeStmt, helper string, hz *helperHazard) {
	path := hz.path
	if helper != "" {
		path = helper + " → " + path
	}
	switch hz.kind {
	case hazardSchedule:
		pass.Reportf(rs.Pos(), "map range schedules events via %s in iteration order; event sequence numbers will differ between runs", path)
	case hazardOutput:
		pass.Reportf(rs.Pos(), "map range writes output via %s in iteration order; iterate a sorted copy of the keys", path)
	case hazardAccumulate:
		pass.Reportf(rs.Pos(), "map range accumulates into %s via %s in iteration order without a deterministic sort afterwards", hz.target.Name(), path)
	default:
		pass.Reportf(rs.Pos(), "map range selects into %s via %s in iteration order; impose a total order (deterministic tie-break) and annotate, or sort the keys", hz.target.Name(), path)
	}
}

// hazardKind classifies why driving a call from a map range is
// order-sensitive.
type hazardKind int

const (
	hazardSchedule   hazardKind = iota // scheduling call — event order observable
	hazardOutput                       // output writer — byte order observable
	hazardAccumulate                   // append to a variable outside the helper
	hazardSelect                       // plain assignment to a variable outside the helper
)

// helperHazard classifies what a call (or a helper's body, transitively)
// does that makes driving it from a map range order-sensitive.
type helperHazard struct {
	kind   hazardKind
	path   string       // the offending call, prefixed by the helper chain
	target types.Object // accumulate/select: the written outer variable
}

// directHazard reports whether call is itself a scheduling or output
// call — the same recognitions checkCall has always applied, factored so
// helper bodies are scanned with identical rules.
func directHazard(pass *analysis.Pass, call *ast.CallExpr) *helperHazard {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	name := sel.Sel.Name
	// Package-level selectors: fmt printers are hazards; any other
	// package-level call is judged by its own body (if in this package)
	// rather than its name.
	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := pass.ObjectOf(id).(*types.PkgName); ok {
			if pn.Imported().Path() == "fmt" && fmtPrinters[name] {
				return &helperHazard{kind: hazardOutput, path: "fmt." + name}
			}
			return nil
		}
	}
	if writerMethods[name] {
		return &helperHazard{kind: hazardOutput, path: name}
	}
	if scheduleMethods[name] {
		return &helperHazard{kind: hazardSchedule, path: name}
	}
	return nil
}

// callArgsUse reports whether any argument of call mentions one of objs.
func callArgsUse(pass *analysis.Pass, call *ast.CallExpr, objs map[types.Object]bool) bool {
	for _, a := range call.Args {
		if usesAny(pass, a, objs) {
			return true
		}
	}
	return false
}

// helperBody is a scannable helper: a declared function/method or a
// function literal bound once to a variable. extent is the source range
// within which the helper's own declarations (params, locals) live — a
// written variable declared outside it is captured or package-level
// state, the raw material of accumulation/selection hazards.
type helperBody struct {
	body       *ast.BlockStmt
	start, end token.Pos
	params     map[types.Object]bool
}

// helperScanner resolves calls to functions, methods, and function-literal
// bindings declared in the package under analysis and classifies their
// bodies — transitively and memoized — so a hazard buried in a helper is
// attributed to the map range that drives it. Self- and mutual recursion
// terminate via the in-progress memo entry (a cycle with no hazard on it
// is clean).
type helperScanner struct {
	pass  *analysis.Pass
	decls map[types.Object]*helperBody
	memo  map[types.Object]*helperHazard
}

func newHelperScanner(pass *analysis.Pass) *helperScanner {
	h := &helperScanner{
		pass:  pass,
		decls: make(map[types.Object]*helperBody),
		memo:  make(map[types.Object]*helperHazard),
	}
	rebound := make(map[types.Object]bool)
	bind := func(nameID *ast.Ident, lit *ast.FuncLit) {
		obj := pass.ObjectOf(nameID)
		if obj == nil {
			return
		}
		if _, dup := h.decls[obj]; dup {
			// A variable holding different literals at different times has
			// no single body to scan; drop it.
			rebound[obj] = true
			return
		}
		h.decls[obj] = &helperBody{
			body:   lit.Body,
			start:  lit.Pos(),
			end:    lit.End(),
			params: paramObjects(pass, lit.Type),
		}
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.ObjectOf(fd.Name); obj != nil {
					h.decls[obj] = &helperBody{
						body:   fd.Body,
						start:  fd.Pos(),
						end:    fd.End(),
						params: paramObjects(pass, fd.Type),
					}
				}
			}
		}
		// Function-literal bindings: add := func(...) {...}, at any depth.
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || i >= len(n.Rhs) {
						continue
					}
					if lit, ok := n.Rhs[i].(*ast.FuncLit); ok {
						bind(id, lit)
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) {
						if lit, ok := n.Values[i].(*ast.FuncLit); ok {
							bind(name, lit)
						}
					}
				}
			}
			return true
		})
	}
	for obj := range rebound {
		delete(h.decls, obj)
	}
	return h
}

// paramObjects collects the objects of a function type's parameters.
func paramObjects(pass *analysis.Pass, ft *ast.FuncType) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if ft.Params == nil {
		return out
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if obj := pass.ObjectOf(name); obj != nil {
				out[obj] = true
			}
		}
	}
	return out
}

// callee resolves the object a call expression invokes: a plain
// identifier (top-level function) or a selector (method or qualified
// function). Builtins, conversions, and function-typed values resolve to
// objects with no recorded declaration and classify as clean.
func (h *helperScanner) callee(call *ast.CallExpr) types.Object {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return h.pass.ObjectOf(fun)
	case *ast.SelectorExpr:
		return h.pass.ObjectOf(fun.Sel)
	}
	return nil
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return "?"
}

// classify returns the hazard a call to obj reaches, or nil when its body
// (and everything it calls in this package) is order-free.
func (h *helperScanner) classify(obj types.Object) *helperHazard {
	if obj == nil {
		return nil
	}
	if res, seen := h.memo[obj]; seen {
		return res
	}
	hb := h.decls[obj]
	if hb == nil {
		h.memo[obj] = nil
		return nil
	}
	// In-progress marker: recursion into a cycle sees "clean", which is
	// correct — any hazard on the cycle is found by the outermost scan.
	h.memo[obj] = nil
	var found *helperHazard
	ast.Inspect(hb.body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if hz := directHazard(h.pass, n); hz != nil {
				found = hz
				return false
			}
			sub := h.classify(h.callee(n))
			if sub == nil {
				return true
			}
			switch sub.kind {
			case hazardAccumulate, hazardSelect:
				// A parameter-fed hazard propagates only when this helper
				// feeds its own parameters in, and the written variable
				// outlives this helper too — a target local to this frame
				// is rebuilt per call and carries no cross-iteration state.
				if !callArgsUse(h.pass, n, hb.params) || !hb.outside(sub.target) {
					return true
				}
			}
			found = &helperHazard{kind: sub.kind, path: calleeName(n) + " → " + sub.path, target: sub.target}
			return false
		case *ast.AssignStmt:
			found = h.classifyAssign(n, hb)
			return found == nil
		}
		return true
	})
	h.memo[obj] = found
	return found
}

// classifyAssign recognises accumulation and selection hazards inside a
// helper body: writes to a variable declared outside the helper whose
// value derives from the helper's parameters.
func (h *helperScanner) classifyAssign(as *ast.AssignStmt, hb *helperBody) *helperHazard {
	if as.Tok == token.DEFINE {
		return nil
	}
	for i, lhs := range as.Lhs {
		obj := rootObject(h.pass, lhs)
		if obj == nil || !hb.outside(obj) {
			continue
		}
		// Keyed writes (m[k] = v) are per-key independent, as in the
		// direct case.
		if _, ok := lhs.(*ast.IndexExpr); ok {
			continue
		}
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else {
			rhs = as.Rhs[0]
		}
		if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(h.pass, call) {
			if callArgsUse(h.pass, call, hb.params) {
				return &helperHazard{kind: hazardAccumulate, path: "append", target: obj}
			}
			continue
		}
		if as.Tok == token.ASSIGN && usesAny(h.pass, rhs, hb.params) {
			return &helperHazard{kind: hazardSelect, path: "assignment", target: obj}
		}
	}
	return nil
}

// outside reports whether obj is declared outside the helper's extent.
func (hb *helperBody) outside(obj types.Object) bool {
	return obj != nil && (obj.Pos() < hb.start || obj.Pos() > hb.end)
}

func checkAssign(pass *analysis.Pass, rs *ast.RangeStmt, as *ast.AssignStmt, loopVars map[types.Object]bool, funcBody *ast.BlockStmt) {
	if as.Tok == token.DEFINE {
		return
	}
	for i, lhs := range as.Lhs {
		obj := rootObject(pass, lhs)
		if obj == nil || loopVars[obj] || !declaredOutside(obj, rs) {
			continue
		}
		// Writes through an index expression (next[k] = v) are per-key
		// independent; only scalar/slice targets are order hazards.
		if _, ok := lhs.(*ast.IndexExpr); ok {
			continue
		}
		var rhs ast.Expr
		if len(as.Rhs) == len(as.Lhs) {
			rhs = as.Rhs[i]
		} else {
			rhs = as.Rhs[0]
		}
		if call, ok := rhs.(*ast.CallExpr); ok && isBuiltinAppend(pass, call) {
			if !sortedAfter(pass, rs, funcBody, obj) {
				pass.Reportf(rs.Pos(),
					"map range accumulates into %s in iteration order without a deterministic sort afterwards", obj.Name())
			}
			continue
		}
		if as.Tok != token.ASSIGN {
			// Op-assignments: integer accumulation is commutative and
			// exact; float / string accumulation is order-sensitive.
			if bt, ok := obj.Type().Underlying().(*types.Basic); ok && bt.Info()&types.IsInteger != 0 {
				continue
			}
			pass.Reportf(rs.Pos(),
				"map range folds into %s (%s) in iteration order; float/string accumulation is order-sensitive", obj.Name(), obj.Type())
			continue
		}
		// Plain assignment: a selection whose result may depend on which
		// entry was visited last (the FQ-CoDel drop-victim shape) — only
		// when the assigned value derives from the loop variables.
		if usesAny(pass, rhs, loopVars) {
			pass.Reportf(rs.Pos(),
				"map range selects into %s in iteration order; impose a total order (deterministic tie-break) and annotate, or sort the keys", obj.Name())
		}
	}
}

// rootObject resolves the base identifier of an assignable expression
// (x, x.f.g → x). Index expressions return nil via the caller's filter.
func rootObject(pass *analysis.Pass, e ast.Expr) types.Object {
	for {
		switch v := e.(type) {
		case *ast.Ident:
			return pass.ObjectOf(v)
		case *ast.SelectorExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

func declaredOutside(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() < rs.Pos() || obj.Pos() > rs.End()
}

func isBuiltinAppend(pass *analysis.Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.ObjectOf(id).(*types.Builtin)
	return ok && b.Name() == "append"
}

func usesAny(pass *analysis.Pass, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[pass.ObjectOf(id)] {
			found = true
		}
		return !found
	})
	return found
}

// sortedAfter reports whether, somewhere after the range statement in the
// enclosing function body, obj is passed to a sort.* or slices.* call
// (including inside the comparison closure of sort.Slice) — the
// collect-then-sort idiom that restores determinism.
func sortedAfter(pass *analysis.Pass, rs *ast.RangeStmt, funcBody *ast.BlockStmt, obj types.Object) bool {
	sorted := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() || sorted {
			return !sorted
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		pn, ok := pass.ObjectOf(pkgID).(*types.PkgName)
		if !ok {
			return true
		}
		if p := pn.Imported().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if usesAny(pass, arg, map[types.Object]bool{obj: true}) {
				sorted = true
			}
		}
		return !sorted
	})
	return sorted
}
