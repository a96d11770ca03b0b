// Package detlint implements the determinism analyzer of the simcheck
// suite.
//
// The reproduction's headline guarantee — byte-identical artifacts at
// -jobs 1 and -jobs 8, kill-and-resume equality, golden-file stability —
// holds only if the simulation core is a pure function of its inputs.
// detlint rejects, at vet time, the constructs that historically break
// that purity:
//
//   - wall-clock reads (time.Now, time.Since) inside the model
//   - the global math/rand (and math/rand/v2) source, which is seeded
//     per-process; only explicitly seeded *rand.Rand values are allowed
//   - goroutine launches: the discrete-event core is single-threaded by
//     contract (concurrency lives in internal/experiments)
//   - iteration over a map that appends to an outer slice without a
//     following deterministic sort, or that pushes events / writes output
//     directly — Go randomizes map order, so any of these leak that
//     randomness into results
//
// A site that is deliberately exempt carries
// //simcheck:allow(detlint) <justification>.
package detlint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/simdir"
)

// Name is the analyzer name used in diagnostics and allow directives.
const Name = "detlint"

func init() { simdir.Register(Name) }

// DefaultPackages matches the deterministic simulation core: the
// discrete-event engine and every model package whose output feeds paper
// artifacts. internal/experiments, internal/cli and internal/telemetry are
// deliberately outside — they host the (checked-elsewhere) concurrency and
// wall-clock code.
const DefaultPackages = `(^|/)internal/(sim|eventq|memctrl|core|interconnect|cache|workload|counters|trace|machine|burst|mmq|stats)($|/)`

var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc:  "forbid nondeterminism (wall clock, global rand, goroutines, unsorted map iteration) in the simulation core",
	Run:  run,
}

var pkgPattern string

func init() {
	Analyzer.Flags.StringVar(&pkgPattern, "pkgs", DefaultPackages,
		"regexp of package import paths treated as the deterministic core")
}

// randConstructors are the math/rand functions that build explicitly
// seeded generators; everything else at package level uses the shared
// process-global source and is flagged.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	re, err := regexp.Compile(pkgPattern)
	if err != nil {
		return nil, err
	}
	if !re.MatchString(pass.Pkg.Path()) {
		return nil, nil
	}
	dir := simdir.Parse(pass)
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue // tests may use wall clock and ad-hoc randomness
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				dir.Report(pass, Name, n.Pos(),
					"goroutine launch in the deterministic core: the event loop is single-threaded by contract; move concurrency to internal/experiments or justify with //simcheck:allow(detlint)")
			case *ast.CallExpr:
				checkCall(pass, dir, n)
			case *ast.BlockStmt:
				checkMapRanges(pass, dir, n)
			}
			return true
		})
	}
	return nil, nil
}

// pkgFunc resolves call to a package-level function and returns its
// package path and name, or "", "".
func pkgFunc(pass *analysis.Pass, call *ast.CallExpr) (pkgPath, fn string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	obj := pass.TypesInfo.Uses[sel.Sel]
	f, ok := obj.(*types.Func)
	if !ok || f.Pkg() == nil {
		return "", ""
	}
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		return "", "" // method call, e.g. (*rand.Rand).Intn — fine
	}
	return f.Pkg().Path(), f.Name()
}

func checkCall(pass *analysis.Pass, dir *simdir.Directives, call *ast.CallExpr) {
	path, name := pkgFunc(pass, call)
	switch path {
	case "time":
		if name == "Now" || name == "Since" || name == "Until" {
			dir.Report(pass, Name, call.Pos(),
				"time.%s reads the wall clock inside the deterministic core; simulated time must come from the event queue (eventq.Interface.Now)", name)
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[name] {
			dir.Report(pass, Name, call.Pos(),
				"%s.%s uses the process-global random source; construct an explicitly seeded generator with rand.New(rand.NewSource(seed)) so runs replay byte-identically", pathBase(path), name)
		}
	}
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}

// checkMapRanges looks at every `for ... := range m` over a map inside the
// block and flags order-dependent side effects in its body. An append to a
// slice declared outside the loop is tolerated when a deterministic sort
// follows later in the same block; event pushes and output writes cannot
// be repaired after the fact and are always flagged.
func checkMapRanges(pass *analysis.Pass, dir *simdir.Directives, block *ast.BlockStmt) {
	for i, stmt := range block.List {
		rng, ok := stmt.(*ast.RangeStmt)
		if !ok || !isMapType(pass.TypesInfo.TypeOf(rng.X)) {
			continue
		}
		sorted := sortFollows(pass, block.List[i+1:])
		ast.Inspect(rng.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, r := range n.Rhs {
					c, ok := r.(*ast.CallExpr)
					if !ok || !isBuiltin(pass, c, "append") {
						continue
					}
					if target := outerObject(pass, n.Lhs, rng); target != nil && !sorted {
						dir.Report(pass, Name, c.Pos(),
							"append to %q inside range over a map without a deterministic sort afterwards: map order is randomized, so the slice order (and anything derived from it) changes run to run", target.Name())
					}
				}
			case *ast.SendStmt:
				dir.Report(pass, Name, n.Pos(),
					"channel send inside range over a map: delivery order follows the randomized map order")
			case *ast.CallExpr:
				checkOrderSensitiveCall(pass, dir, n)
			}
			return true
		})
	}
}

// orderSensitiveMethods are callee names that schedule events or emit
// output — side effects whose order is observable in results.
var orderSensitiveMethods = map[string]bool{
	"Push": true, "Emit": true, "At": true, "After": true, "Schedule": true,
}

func checkOrderSensitiveCall(pass *analysis.Pass, dir *simdir.Directives, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if path, fn := pkgFunc(pass, call); path == "fmt" && (strings.HasPrefix(fn, "Print") || strings.HasPrefix(fn, "Fprint")) {
		dir.Report(pass, Name, call.Pos(),
			"fmt.%s inside range over a map writes output in randomized map order; collect keys, sort, then iterate", fn)
		return
	}
	if orderSensitiveMethods[name] {
		dir.Report(pass, Name, call.Pos(),
			"%s inside range over a map happens in randomized map order; collect and sort keys first", name)
	}
	if strings.HasPrefix(name, "Write") {
		if obj := pass.TypesInfo.Uses[sel.Sel]; obj != nil {
			if _, isFunc := obj.(*types.Func); isFunc {
				dir.Report(pass, Name, call.Pos(),
					"%s inside range over a map writes output in randomized map order; collect keys, sort, then iterate", name)
			}
		}
	}
}

// sortFollows reports whether any statement after the range performs a
// sort (sort.* or slices.Sort*), which re-establishes a deterministic
// order for accumulated values.
func sortFollows(pass *analysis.Pass, rest []ast.Stmt) bool {
	for _, s := range rest {
		found := false
		ast.Inspect(s, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			path, name := pkgFunc(pass, call)
			switch path {
			case "sort":
				found = true
			case "slices":
				if strings.Contains(name, "Sort") {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

func isBuiltin(pass *analysis.Pass, call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok
}

// outerObject returns the object assigned on the left-hand side when it
// was declared outside the range statement (so the accumulated order
// escapes the loop), or nil.
func outerObject(pass *analysis.Pass, lhs []ast.Expr, rng *ast.RangeStmt) types.Object {
	for _, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue
		}
		obj := pass.TypesInfo.ObjectOf(id)
		if obj == nil {
			continue
		}
		if obj.Pos() < rng.Pos() || obj.Pos() > rng.End() {
			return obj
		}
	}
	return nil
}
