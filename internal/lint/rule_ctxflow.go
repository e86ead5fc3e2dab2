package lint

import (
	"go/ast"
	"go/types"
)

// checkCtxflow enforces the cancellation-flow invariant behind the
// serving-grade daemon and the streaming core: every parallel fan-out
// must be cancellable from the caller. Concretely, in pipeline packages:
//
//  1. A function that invokes internal/parallel (ForEach, Map or Stream)
//     must declare a context.Context parameter — the
//     fan-out's context has to come from outside, or a shutdown can never
//     drain the workers.
//  2. context.Background() and context.TODO() are banned: a fresh root
//     context severs the chain. The only sanctioned roots are the `main`
//     and `run` functions of a command (package main), where the chain
//     genuinely starts.
//
// The fix is never mechanical (a new parameter ripples through every
// caller), so this rule is report-only.
func checkCtxflow(p *Pass) {
	if !p.InPipeline() {
		return
	}
	info := p.Package().Info
	isMain := p.Package().Types.Name() == "main"
	eachFunc(p, func(fd *ast.FuncDecl) {
		rootFunc := isMain && fd.Recv == nil && (fd.Name.Name == "main" || fd.Name.Name == "run")
		hasCtx := funcHasCtxParam(info, fd)
		reportedMissing := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "context":
				if fn.Name() == "Background" || fn.Name() == "TODO" {
					if !rootFunc {
						p.Reportf(call.Pos(), "context.%s severs cancellation in a pipeline package; thread the caller's ctx (root contexts belong in main/run of a command)", fn.Name())
					}
				}
			default:
				if !isParallelPkg(p, fn.Pkg().Path()) {
					return true
				}
				if !hasCtx && !rootFunc && !reportedMissing {
					reportedMissing = true
					p.Reportf(call.Pos(), "%s invokes internal/parallel but takes no context.Context parameter; accept and forward a ctx so cancellation reaches the fan-out", funcLabel(fd))
				}
			}
			return true
		})
	})
}

// isParallelPkg reports whether path is this module's internal/parallel.
func isParallelPkg(p *Pass, path string) bool {
	return path == p.Package().ModulePath+"/internal/parallel"
}

// funcHasCtxParam reports whether fd declares at least one parameter of
// type context.Context (a closure defined inside such a function inherits
// its verdict, because ast.Inspect attributes the closure's body to the
// enclosing declaration).
func funcHasCtxParam(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		if isContextType(info.TypeOf(field.Type)) {
			return true
		}
	}
	return false
}

// isContextType reports whether t is exactly context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// funcLabel renders a function declaration for messages: "Build" or
// "(*Dataset).Window".
func funcLabel(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	recv := fd.Recv.List[0].Type
	star := ""
	if se, ok := recv.(*ast.StarExpr); ok {
		star, recv = "*", se.X
	}
	if id, ok := recv.(*ast.Ident); ok {
		return "(" + star + id.Name + ")." + fd.Name.Name
	}
	if ix, ok := recv.(*ast.IndexExpr); ok {
		if id, ok := ix.X.(*ast.Ident); ok {
			return "(" + star + id.Name + ")." + fd.Name.Name
		}
	}
	return fd.Name.Name
}
