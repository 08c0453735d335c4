package analysis

// transienterr guards the retryability contract. Errors advertising
// `Transient() bool` (corestore's ErrSaturated, serve's ErrOverloaded) are
// what lets sweep workers retry a shed instance checkout instead of failing
// the whole sweep; that classification runs through errors.As
// (sweep.IsTransient), which only works when the types flow consistently:
//
//   - constructed by pointer (&ErrX{...}): Transient is declared on the
//     pointer receiver, so an ErrX VALUE boxed into error silently loses
//     the method — IsTransient returns false and a retryable failure
//     becomes terminal;
//   - matched with errors.Is/errors.As, never with == / != against an
//     error-typed expression or a direct type assertion/type switch —
//     those all miss wrapped errors (the sweep worker wraps a failed
//     checkout with its job's coordinates, HTTP middlewares wrap
//     everything).
//
// The analyzer recognizes transient types structurally (any named type
// whose pointer method set includes Transient() bool), so it covers the
// real error types and testdata stubs without configuration.

import (
	"go/ast"
	"go/token"
	"go/types"
)

var TransientErr = &Analyzer{
	Name: "transienterr",
	Doc:  "Transient() error types: pointer construction, errors.Is/As matching",
	Run:  runTransientErr,
}

// transientType returns the named transient type behind t (derefing one
// pointer), or nil.
func transientType(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	ms := types.NewMethodSet(types.NewPointer(named))
	sel := ms.Lookup(nil, "Transient")
	if sel == nil {
		return nil
	}
	sig, ok := sel.Obj().Type().(*types.Signature)
	if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return nil
	}
	b, ok := sig.Results().At(0).Type().(*types.Basic)
	if !ok || b.Kind() != types.Bool {
		return nil
	}
	errIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	if !types.Implements(types.NewPointer(named), errIface) {
		return nil // Transient() on a non-error type is out of scope
	}
	return named
}

func runTransientErr(pass *Pass) {
	info := pass.TypesInfo()
	for _, f := range pass.Files() {
		addressed := map[*ast.CompositeLit]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
						addressed[lit] = true
					}
				}

			case *ast.CompositeLit:
				if addressed[n] {
					return true
				}
				tv, ok := info.Types[n]
				if !ok {
					return true
				}
				if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
					return true
				}
				if named := transientType(tv.Type); named != nil {
					pass.Reportf(n.Pos(),
						"%s constructed by value; build &%s{...} so the pointer-receiver Transient method survives boxing into error",
						named.Obj().Name(), named.Obj().Name())
				}

			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				x, y := info.Types[n.X], info.Types[n.Y]
				if x.Type == nil || y.Type == nil {
					return true
				}
				var named *types.Named
				switch {
				case isErrorType(x.Type) && !y.IsNil():
					named = transientType(y.Type)
				case isErrorType(y.Type) && !x.IsNil():
					named = transientType(x.Type)
				}
				if named != nil {
					pass.Reportf(n.Pos(),
						"%s compared with %s misses wrapped errors; use errors.Is/errors.As", named.Obj().Name(), n.Op)
				}

			case *ast.TypeAssertExpr:
				if n.Type == nil {
					return true // x.(type) inside a type switch; handled below
				}
				if exprType(info, n.X) == nil || !isErrorType(exprType(info, n.X)) {
					return true
				}
				if named := transientType(exprType(info, n.Type)); named != nil {
					pass.Reportf(n.Pos(),
						"type assertion to %s misses wrapped errors; use errors.As", named.Obj().Name())
				}

			case *ast.TypeSwitchStmt:
				var x ast.Expr
				switch a := n.Assign.(type) {
				case *ast.ExprStmt:
					if ta, ok := a.X.(*ast.TypeAssertExpr); ok {
						x = ta.X
					}
				case *ast.AssignStmt:
					if ta, ok := a.Rhs[0].(*ast.TypeAssertExpr); ok {
						x = ta.X
					}
				}
				if x == nil || exprType(info, x) == nil || !isErrorType(exprType(info, x)) {
					return true
				}
				for _, stmt := range n.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, typ := range cc.List {
						if named := transientType(exprType(info, typ)); named != nil {
							pass.Reportf(typ.Pos(),
								"type switch case %s misses wrapped errors; use errors.As", named.Obj().Name())
						}
					}
				}
			}
			return true
		})
	}
}

func exprType(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}
