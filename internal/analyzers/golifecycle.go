package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hostPackages are the import paths whose goroutines must be tied to a
// shutdown mechanism. These are the layers that own goroutines on the
// protocols' behalf — per-peer writers, the I/O scheduler, accept loops,
// chaos clients — and some of them multiply per consensus group under the
// sharded multi-group runtime, so an unaccounted goroutine here becomes a
// per-group leak.
var hostPackages = map[string]bool{
	"repro/internal/transport": true,
	"repro/internal/smr":       true,
	"repro/internal/chaos":     true,
	"repro/internal/shard":     true,
	"repro/internal/lease":     true,
}

// GoLifecycle requires every go statement in the host packages to spawn a
// goroutine that is observably tied to shutdown: its body (or a function it
// directly calls in the same package) must signal completion via
// sync.WaitGroup.Done or close(ch), or terminate on a channel — a receive
// (which covers select on ctx.Done() and done channels) or a range over a
// channel (which ends when the producer closes it). A goroutine with none
// of these runs until the process exits; Close cannot wait for it, tests
// leak it, and under the multi-group runtime it leaks once per group.
var GoLifecycle = &Analyzer{
	Name: "golifecycle",
	Doc: "every go statement in host packages must be tied to a shutdown " +
		"mechanism (WaitGroup.Done, close of a done channel, channel receive/range)",
	Run: runGoLifecycle,
}

func runGoLifecycle(pass *Pass) error {
	if !hostPackages[pass.Pkg.Path()] {
		return nil
	}
	decls := packageFuncDecls(pass)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := spawnedBody(pass, decls, gs.Call)
			if body == nil {
				pass.Reportf(gs.Pos(),
					"goroutine body is outside this package and cannot be verified against the shutdown contract; wrap it in a local function that signals completion")
				return true
			}
			if !hasShutdownEvidence(pass, decls, body) {
				pass.Reportf(gs.Pos(),
					"goroutine is not tied to any shutdown mechanism (no WaitGroup.Done, channel receive/range, or close of a done channel): Close cannot wait for it and it leaks per instance")
			}
			return true
		})
	}
	return nil
}

// packageFuncDecls indexes the package's function declarations by their
// types object, so a `go r.loop()` statement can be resolved to loop's body.
func packageFuncDecls(pass *Pass) map[types.Object]*ast.FuncDecl {
	decls := map[types.Object]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj := pass.TypesInfo.Defs[fd.Name]; obj != nil {
				decls[obj] = fd
			}
		}
	}
	return decls
}

// spawnedBody resolves the body the go statement runs: a function literal's
// own body, or the declaration of a same-package function or method.
func spawnedBody(pass *Pass, decls map[types.Object]*ast.FuncDecl, call *ast.CallExpr) *ast.BlockStmt {
	switch fun := call.Fun.(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		if fd := decls[pass.TypesInfo.Uses[fun]]; fd != nil {
			return fd.Body
		}
	case *ast.SelectorExpr:
		if fd := decls[pass.TypesInfo.Uses[fun.Sel]]; fd != nil {
			return fd.Body
		}
	}
	return nil
}

// hasShutdownEvidence scans body — and, one call level deep, the bodies of
// same-package functions it invokes — for a shutdown tie. The search is one
// level deep on purpose: evidence buried further down (a channel receive
// inside a helper's helper) usually belongs to that helper's own blocking
// behaviour, not to this goroutine's lifecycle, and accepting it would let
// a genuinely untied goroutine pass because some leaf function waits on an
// unrelated channel.
func hasShutdownEvidence(pass *Pass, decls map[types.Object]*ast.FuncDecl, body *ast.BlockStmt) bool {
	if bodyHasEvidence(pass, body) {
		return true
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := spawnedBody(pass, decls, call); callee != nil && bodyHasEvidence(pass, callee) {
			found = true
		}
		return true
	})
	return found
}

// bodyHasEvidence reports whether body itself contains a shutdown tie:
// WaitGroup.Done, close(ch), a channel receive, or a range over a channel.
func bodyHasEvidence(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := typeOf(pass, n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			switch fun := n.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "close" {
					if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
						found = true
					}
				}
			case *ast.SelectorExpr:
				if fun.Sel.Name == "Done" && isWaitGroup(typeOf(pass, fun.X)) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isWaitGroup reports whether t is sync.WaitGroup (possibly behind a
// pointer).
func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}
