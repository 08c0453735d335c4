package analysis

// lockhold guards the serve tier's liveness: the admission gates, the
// instance-budget wait, and the LRU reclaim path all serialize on plain
// mutexes, so one blocking call made while holding one stalls every
// waiter behind it (a slow /metrics scraper must never be able to wedge
// admission). Within a function, between X.Lock()/X.RLock() and the
// matching Unlock (or to the end of the function when the unlock is
// deferred), the analyzer flags:
//
//   - channel sends and receives, and selects without a default
//   - time.Sleep and sync.WaitGroup.Wait
//   - I/O: any call into io, bufio, net, net/http, or os file I/O,
//     fmt.Fprint* (writes to an io.Writer), log output, and calls to
//     Write/Flush/WriteString methods reached through an interface
//     (io.Writer, http.ResponseWriter)
//
// sync.Cond.Wait is deliberately NOT flagged — it releases the mutex
// while parked and is the sanctioned way to wait under a lock.
//
// The tracking is intra-procedural and syntactic: branches are analyzed
// with a copy of the lock state and an unlock inside a branch does not
// release the lock in the enclosing flow (conservative; a false positive
// on an exotic shape is suppressed with //ckvet:ignore and a reason).

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

var LockHold = &Analyzer{
	Name: "lockhold",
	Doc:  "no channel ops, sleeps, or I/O while holding a mutex",
	Run:  runLockHold,
}

// ioDeny are packages whose calls are considered blocking I/O.
var ioDeny = map[string]bool{
	"io": true, "bufio": true, "net": true, "net/http": true, "log": true,
}

func runLockHold(pass *Pass) {
	info := pass.TypesInfo()
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			lh := &lockChecker{pass: pass, info: info}
			lh.block(body.List, map[string]bool{})
			return true // nested literals get their own (empty) lock state too
		})
	}
}

type lockChecker struct {
	pass *Pass
	info *types.Info
}

// block scans a statement list in order, threading the held-lock state.
func (lc *lockChecker) block(stmts []ast.Stmt, held map[string]bool) {
	for _, stmt := range stmts {
		lc.stmt(stmt, held)
	}
}

func copyState(held map[string]bool) map[string]bool {
	c := make(map[string]bool, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func (lc *lockChecker) stmt(stmt ast.Stmt, held map[string]bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if guard, op := lc.lockOp(call); guard != "" {
				switch op {
				case "Lock", "RLock":
					held[guard] = true
				case "Unlock", "RUnlock":
					delete(held, guard)
				}
				return
			}
		}
		lc.expr(s.X, held)

	case *ast.DeferStmt:
		if guard, op := lc.lockOp(s.Call); guard != "" && (op == "Unlock" || op == "RUnlock") {
			return // deferred unlock: the lock stays held to the end, as tracked
		}
		lc.expr(s.Call, held)

	case *ast.SendStmt:
		lc.flagIfHeld(s.Pos(), "channel send", held)
		lc.expr(s.Chan, held)
		lc.expr(s.Value, held)

	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			lc.expr(e, held)
		}
		for _, e := range s.Lhs {
			lc.expr(e, held)
		}

	case *ast.IfStmt:
		if s.Init != nil {
			lc.stmt(s.Init, held)
		}
		lc.expr(s.Cond, held)
		lc.block(s.Body.List, copyState(held))
		if s.Else != nil {
			lc.stmt(s.Else, copyState(held))
		}

	case *ast.BlockStmt:
		lc.block(s.List, held)

	case *ast.ForStmt:
		if s.Init != nil {
			lc.stmt(s.Init, held)
		}
		if s.Cond != nil {
			lc.expr(s.Cond, held)
		}
		lc.block(s.Body.List, copyState(held))

	case *ast.RangeStmt:
		lc.expr(s.X, held)
		lc.block(s.Body.List, copyState(held))

	case *ast.SwitchStmt:
		if s.Init != nil {
			lc.stmt(s.Init, held)
		}
		if s.Tag != nil {
			lc.expr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lc.block(cc.Body, copyState(held))
			}
		}

	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				lc.block(cc.Body, copyState(held))
			}
		}

	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				if cc.Comm == nil {
					hasDefault = true
				}
				lc.block(cc.Body, copyState(held))
			}
		}
		if !hasDefault {
			lc.flagIfHeld(s.Pos(), "blocking select", held)
		}

	case *ast.ReturnStmt:
		for _, e := range s.Results {
			lc.expr(e, held)
		}

	case *ast.GoStmt:
		// The spawned goroutine does not inherit the caller's locks; its
		// body is scanned with fresh state by the FuncLit pass.
		for _, a := range s.Call.Args {
			lc.expr(a, held)
		}

	case *ast.LabeledStmt:
		lc.stmt(s.Stmt, held)
	}
}

// expr scans an expression for blocking operations under held locks.
func (lc *lockChecker) expr(e ast.Expr, held map[string]bool) {
	if e == nil || len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // runs later, without these locks
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				lc.flagIfHeld(n.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			lc.checkCall(n, held)
		}
		return true
	})
}

func (lc *lockChecker) checkCall(call *ast.CallExpr, held map[string]bool) {
	fn := staticCallee(lc.info, call)
	if fn == nil {
		return
	}
	switch {
	case pkgFunc(fn, "time", "Sleep"):
		lc.flagIfHeld(call.Pos(), "time.Sleep", held)
	case interfaceWriteMethod(lc.info, call, fn):
		lc.flagIfHeld(call.Pos(), fn.Name()+" on an interface writer", held)
	case fn.Pkg() != nil && ioDeny[fn.Pkg().Path()]:
		lc.flagIfHeld(call.Pos(), fn.Pkg().Name()+"."+fn.Name(), held)
	case pkgFunc(fn, "fmt", "") && len(fn.Name()) > 1 && fn.Name()[0] == 'F':
		// Fprint/Fprintf/Fprintln write to an io.Writer.
		lc.flagIfHeld(call.Pos(), "fmt."+fn.Name(), held)
	case pkgFunc(fn, "os", "") && (fn.Name() == "ReadFile" || fn.Name() == "WriteFile" ||
		fn.Name() == "Open" || fn.Name() == "Create"):
		lc.flagIfHeld(call.Pos(), "os."+fn.Name(), held)
	case fn.Name() == "Wait" && isRecvType(fn, "sync", "WaitGroup"):
		lc.flagIfHeld(call.Pos(), "sync.WaitGroup.Wait", held)
	}
}

// interfaceWriteMethod reports calls to Write/WriteString/Flush/ReadFrom
// reached through an interface value — io.Writer, http.ResponseWriter —
// whose latency is the peer's to decide.
func interfaceWriteMethod(info *types.Info, call *ast.CallExpr, fn *types.Func) bool {
	switch fn.Name() {
	case "Write", "WriteString", "Flush", "ReadFrom", "WriteTo":
	default:
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	return types.IsInterface(tv.Type)
}

func isRecvType(fn *types.Func, pkgPath, name string) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// lockOp recognizes X.Lock/Unlock/RLock/RUnlock on sync.Mutex/RWMutex
// (directly or through an embedded field) and returns the guard
// expression and operation.
func (lc *lockChecker) lockOp(call *ast.CallExpr) (guard, op string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	fn, ok := lc.info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", ""
	}
	if !isRecvType(fn, "sync", "Mutex") && !isRecvType(fn, "sync", "RWMutex") {
		return "", ""
	}
	return exprString(sel.X), sel.Sel.Name
}

func (lc *lockChecker) flagIfHeld(pos token.Pos, what string, held map[string]bool) {
	if len(held) == 0 {
		return
	}
	guards := make([]string, 0, len(held))
	for g := range held {
		guards = append(guards, g)
	}
	sort.Strings(guards)
	lc.pass.Reportf(pos,
		"%s while holding %s — one blocking call here stalls every waiter on the lock", what, guards[0])
}

// staticCallee resolves a call's target to a *types.Func when the callee
// is named statically (an identifier or a selector); calls through
// function values and built-ins return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// pkgFunc reports whether fn is the function path.name (e.g. "fmt",
// "Errorf"); name "" matches any function of the package.
func pkgFunc(fn *types.Func, path, name string) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() != path {
		return false
	}
	return name == "" || fn.Name() == name
}

// exprString renders a lock-guard expression (x, s.mu, g.s.mu) for state
// keys and messages. Only the shapes lock guards take are handled;
// anything else renders as "?" and never matches.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	}
	return "?"
}
