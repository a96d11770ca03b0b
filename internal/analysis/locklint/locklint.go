// Package locklint implements the mutex-discipline analyzer of the
// simcheck suite (conccheck member 2 of 3).
//
// The serving stack's mutexes guard small state (admission counters,
// latency EWMAs, caches); the failure modes are the classic three, and
// each one is rejected at vet time:
//
//   - Unlock pairing: a Lock whose Unlock is not deferred is tolerated
//     only when the critical section is straight-line — the matching
//     Unlock appears later in the same block with no return or panic
//     reachable in between. Anything branchier must defer the Unlock
//     (or restructure into a small locked helper that can).
//   - Blocking under a lock: channel sends/receives (outside a select
//     with a default), selects without a default, net/http round trips,
//     Runner.Run*/Sweep* simulations, WaitGroup.Wait and time.Sleep
//     while a sync.Mutex/RWMutex is held serialize the server on its
//     slowest request — all flagged inside the lock region, whether the
//     region ends at the paired Unlock or (for deferred unlocks) at the
//     end of the function.
//   - Copied locks: a parameter or receiver whose non-pointer type
//     (transitively) contains a sync.Mutex/RWMutex/WaitGroup/Once/Cond
//     copies the lock state, so the copy guards nothing.
//
// A site that is deliberately exempt carries
// //simcheck:allow(locklint) <justification>.
package locklint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"golang.org/x/tools/go/analysis"

	"repro/internal/analysis/simdir"
)

// Name is the analyzer name used in diagnostics and allow directives.
const Name = "locklint"

func init() { simdir.Register(Name) }

// DefaultPackages matches the concurrent layers, same set as leaklint:
// the serving stack and the packages it drives.
const DefaultPackages = `(^|/)internal/(server|load|experiments|telemetry|model)($|/)`

var Analyzer = &analysis.Analyzer{
	Name: Name,
	Doc:  "enforce defer-or-straight-line Unlock pairing, forbid blocking operations under a mutex, and reject locks passed by value",
	Run:  run,
}

var pkgPattern string

func init() {
	Analyzer.Flags.StringVar(&pkgPattern, "pkgs", DefaultPackages,
		"regexp of package import paths whose mutex discipline is checked")
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
			continue // the -race suite owns test-code locking
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFunction(pass, dir, n.Recv, n.Type, n.Body)
				}
			case *ast.FuncLit:
				checkFunction(pass, dir, nil, n.Type, n.Body)
			}
			return true
		})
	}
	return nil, nil
}

// lockKey identifies one mutex within a function: the rendered receiver
// expression plus the read/write mode, so mu.Lock pairs with mu.Unlock
// and mu.RLock with mu.RUnlock.
type lockKey struct {
	expr string
	read bool
}

// lockCall classifies a call as Lock/RLock/Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex and returns its key.
func lockCall(pass *analysis.Pass, call *ast.CallExpr) (key lockKey, acquire, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return key, false, false
	}
	var read bool
	switch sel.Sel.Name {
	case "Lock", "Unlock":
	case "RLock", "RUnlock":
		read = true
	default:
		return key, false, false
	}
	fn, isFn := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !isFn {
		return key, false, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !(isSyncType(recv.Type(), "Mutex") || isSyncType(recv.Type(), "RWMutex")) {
		return key, false, false
	}
	return lockKey{expr: types.ExprString(sel.X), read: read},
		sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock", true
}

// checkFunction applies all three checks to one function (declaration or
// literal). Nested literals are analyzed on their own visit, so their
// statements are excluded here.
func checkFunction(pass *analysis.Pass, dir *simdir.Directives, recv *ast.FieldList, ftype *ast.FuncType, body *ast.BlockStmt) {
	checkByValueLocks(pass, dir, recv, ftype)
	deferred := deferredUnlocks(pass, body)
	for _, list := range statementLists(body) {
		checkList(pass, dir, list, deferred)
	}
}

// statementLists collects every statement list of the function body —
// blocks, case clauses, comm clauses — without descending into nested
// function literals.
func statementLists(body *ast.BlockStmt) [][]ast.Stmt {
	var lists [][]ast.Stmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BlockStmt:
			lists = append(lists, n.List)
		case *ast.CaseClause:
			lists = append(lists, n.Body)
		case *ast.CommClause:
			lists = append(lists, n.Body)
		}
		return true
	})
	return lists
}

// deferredUnlocks returns the lock keys released by defer statements
// anywhere in the function: `defer mu.Unlock()` directly, or inside a
// deferred closure.
func deferredUnlocks(pass *analysis.Pass, body *ast.BlockStmt) map[lockKey]bool {
	out := map[lockKey]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a nested literal's defers run on its own exit
		}
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		if key, acquire, ok := lockCall(pass, d.Call); ok && !acquire {
			out[key] = true
			return true
		}
		if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if key, acquire, ok := lockCall(pass, call); ok && !acquire {
						out[key] = true
					}
				}
				return true
			})
		}
		return true
	})
	return out
}

// checkList scans one statement list for statement-level Lock calls and
// validates each lock region.
func checkList(pass *analysis.Pass, dir *simdir.Directives, list []ast.Stmt, deferred map[lockKey]bool) {
	for i, stmt := range list {
		expr, ok := stmt.(*ast.ExprStmt)
		if !ok {
			continue
		}
		call, ok := expr.X.(*ast.CallExpr)
		if !ok {
			continue
		}
		key, acquire, ok := lockCall(pass, call)
		if !ok || !acquire {
			continue
		}
		if deferred[key] {
			// Deferred release: the lock is held until the function exits,
			// so the whole remainder of the list is the critical section.
			checkBlocking(pass, dir, key, list[i+1:])
			continue
		}
		// Find the matching statement-level release in this list.
		end := -1
		for j := i + 1; j < len(list); j++ {
			es, ok := list[j].(*ast.ExprStmt)
			if !ok {
				continue
			}
			c, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			k, acq, ok := lockCall(pass, c)
			if ok && !acq && k == key {
				end = j
				break
			}
		}
		if end < 0 {
			dir.Report(pass, Name, call.Pos(),
				"%s is locked here but released on some other path; defer the %s right after locking so every exit releases it", key.expr, unlockName(key))
			continue
		}
		region := list[i+1 : end]
		if pos, found := earlyExit(region); found {
			dir.Report(pass, Name, pos,
				"early exit inside the %s critical section can leave it locked (or hides a hand-unlocked branch); defer the %s or keep the section straight-line", key.expr, unlockName(key))
		}
		checkBlocking(pass, dir, key, region)
	}
}

func unlockName(key lockKey) string {
	if key.read {
		return "RUnlock"
	}
	return "Unlock"
}

// earlyExit reports the first return, panic, or goto nested anywhere in
// the statements — the constructs that can leave a straight-line lock
// region without reaching its Unlock.
func earlyExit(stmts []ast.Stmt) (token.Pos, bool) {
	var pos token.Pos
	found := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				pos, found = n.Pos(), true
			case *ast.BranchStmt:
				if n.Tok == token.GOTO {
					pos, found = n.Pos(), true
				}
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "panic" {
					pos, found = n.Pos(), true
				}
			}
			return !found
		})
		if found {
			return pos, true
		}
	}
	return pos, false
}

// checkBlocking flags operations inside a lock region that can block
// indefinitely (or for a whole simulation) while the mutex is held.
func checkBlocking(pass *analysis.Pass, dir *simdir.Directives, key lockKey, stmts []ast.Stmt) {
	for _, s := range stmts {
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // runs later, lock may be gone by then
			case *ast.SelectStmt:
				if selectHasDefault(n) {
					// Non-blocking by construction: skip the comm headers,
					// still check the clause bodies.
					for _, c := range n.Body.List {
						if cc, ok := c.(*ast.CommClause); ok {
							for _, bs := range cc.Body {
								ast.Inspect(bs, walk)
							}
						}
					}
					return false
				}
				dir.Report(pass, Name, n.Pos(),
					"blocking select while %s is held; release the lock first or add a default case", key.expr)
				return false
			case *ast.SendStmt:
				dir.Report(pass, Name, n.Pos(),
					"channel send while %s is held can block every other holder; release the lock first", key.expr)
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					dir.Report(pass, Name, n.Pos(),
						"channel receive while %s is held can block every other holder; release the lock first", key.expr)
				}
			case *ast.CallExpr:
				if msg := blockingCall(pass, n); msg != "" {
					dir.Report(pass, Name, n.Pos(),
						"%s while %s is held; release the lock before the slow operation", msg, key.expr)
				}
			}
			return true
		}
		ast.Inspect(s, walk)
	}
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCall classifies calls that are slow or unbounded by design:
// HTTP round trips, simulations through the experiments Runner,
// WaitGroup.Wait and time.Sleep.
func blockingCall(pass *analysis.Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		if isSyncType(recv.Type(), "WaitGroup") && fn.Name() == "Wait" {
			return "sync.WaitGroup.Wait"
		}
		if isHTTPClient(recv.Type()) {
			return "net/http client call " + fn.Name()
		}
		if isRunnerType(recv.Type()) && (strings.HasPrefix(fn.Name(), "Run") || strings.HasPrefix(fn.Name(), "Sweep")) {
			return "Runner." + fn.Name() + " simulation"
		}
		return ""
	}
	if pkg := fn.Pkg(); pkg != nil {
		if pkg.Path() == "net/http" {
			return "net/http." + fn.Name()
		}
		if pkg.Path() == "time" && fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	}
	return ""
}

func isHTTPClient(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "Client"
}

// isRunnerType matches the experiments Runner by name so fixtures can
// stand in a local Runner without importing the real package.
func isRunnerType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "Runner"
}

// checkByValueLocks flags parameters and receivers whose non-pointer
// type contains a lock.
func checkByValueLocks(pass *analysis.Pass, dir *simdir.Directives, recv *ast.FieldList, ftype *ast.FuncType) {
	lists := []*ast.FieldList{recv, ftype.Params}
	for _, fl := range lists {
		if fl == nil {
			continue
		}
		for _, field := range fl.List {
			t := pass.TypesInfo.TypeOf(field.Type)
			if t == nil {
				continue
			}
			if _, isPtr := t.(*types.Pointer); isPtr {
				continue
			}
			if name := containedLock(t, map[types.Type]bool{}); name != "" {
				dir.Report(pass, Name, field.Pos(),
					"passing %s by value copies its %s; pass a pointer so the original lock still guards the state", types.TypeString(t, types.RelativeTo(pass.Pkg)), name)
			}
		}
	}
}

// lockTypeNames are the sync types whose value-copy is a bug.
var lockTypeNames = map[string]bool{
	"Mutex": true, "RWMutex": true, "WaitGroup": true, "Once": true, "Cond": true,
}

// containedLock returns the name of a sync lock type contained
// (transitively, by value) in t, or "".
func containedLock(t types.Type, seen map[types.Type]bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	switch u := t.(type) {
	case *types.Named:
		obj := u.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && lockTypeNames[obj.Name()] {
			return "sync." + obj.Name()
		}
		return containedLock(u.Underlying(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if name := containedLock(u.Field(i).Type(), seen); name != "" {
				return name
			}
		}
	case *types.Array:
		return containedLock(u.Elem(), seen)
	}
	return ""
}

// isSyncType reports whether t is sync.<name> or *sync.<name>.
func isSyncType(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == name
}
