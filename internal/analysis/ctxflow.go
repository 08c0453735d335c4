package analysis

// ctxflow enforces the PR-5 invariant that cancellation reaches every
// round barrier: once a context.Context is in scope it must keep flowing.
//
//   - In a function with a context.Context parameter, calling F when the
//     same package (or receiver type) also provides FCtx taking a context
//     is a finding: the non-ctx variant silently runs to completion on a
//     context.Background, so the caller's deadline never reaches the run
//     (RunProgram vs RunProgramCtx, sweep.Run vs sweep.RunCtx).
//   - context.Background()/context.TODO() inside such a function restarts
//     the cancellation chain and is flagged for the same reason.
//   - Storing a context in a struct field detaches it from call-graph
//     scoping (the lifetime bug contained-context linters exist for), so
//     every such field is a finding; there is no allowlist.

import (
	"go/ast"
	"go/types"
)

var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "a context in scope must flow: no non-ctx run variants, no stored contexts",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	info := pass.TypesInfo()
	for _, f := range pass.Files() {
		// Struct fields of type context.Context.
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				tv, ok := info.Types[field.Type]
				if !ok || !isContextType(tv.Type) {
					continue
				}
				pass.Reportf(field.Pos(),
					"context.Context stored in a struct field outlives its request; thread it through calls")
			}
			return true
		})

		// Calls inside context-carrying functions.
		ast.Inspect(f, func(n ast.Node) bool {
			var ftyp *ast.FuncType
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				ftyp, body = n.Type, n.Body
			case *ast.FuncLit:
				ftyp, body = n.Type, n.Body
			default:
				return true
			}
			if body == nil || !hasCtxParam(info, ftyp) {
				return true
			}
			checkCtxBody(pass, body)
			return false // checkCtxBody descends, including into nested literals
		})
	}
}

// hasCtxParam reports whether the function type takes a context.Context.
func hasCtxParam(info *types.Info, ftyp *ast.FuncType) bool {
	if ftyp.Params == nil {
		return false
	}
	for _, p := range ftyp.Params.List {
		if tv, ok := info.Types[p.Type]; ok && isContextType(tv.Type) {
			return true
		}
	}
	return false
}

// checkCtxBody flags non-ctx variant calls and chain restarts in a body
// whose enclosing function carries a context.
func checkCtxBody(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo()
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(info, call)
		if fn == nil {
			return true
		}
		if pkgFunc(fn, "context", "Background") || pkgFunc(fn, "context", "TODO") {
			pass.Reportf(call.Pos(),
				"context.%s inside a function that already has a context restarts the cancellation chain; pass the caller's ctx", fn.Name())
			return true
		}
		if sibling := ctxVariant(fn); sibling != nil {
			pass.Reportf(call.Pos(),
				"call to %s ignores the context in scope; use %s so cancellation reaches the run", fn.Name(), sibling.Name())
		}
		return true
	})
}

// ctxVariant returns FCtx when fn is F, FCtx exists alongside it (same
// receiver type for methods, same package for functions), takes a
// context.Context first, and fn itself does not — the repo's naming
// convention for context-aware variants.
func ctxVariant(fn *types.Func) *types.Func {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || takesCtx(sig) {
		return nil
	}
	name := fn.Name() + "Ctx"
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return nil
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == name {
				if msig, ok := m.Type().(*types.Signature); ok && firstParamIsCtx(msig) {
					return m
				}
			}
		}
		return nil
	}
	if fn.Pkg() == nil {
		return nil
	}
	if obj, ok := fn.Pkg().Scope().Lookup(name).(*types.Func); ok {
		if osig, ok := obj.Type().(*types.Signature); ok && firstParamIsCtx(osig) {
			return obj
		}
	}
	return nil
}

func takesCtx(sig *types.Signature) bool {
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

func firstParamIsCtx(sig *types.Signature) bool {
	return sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type())
}
