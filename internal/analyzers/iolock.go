package analyzers

import (
	"go/ast"
	"go/types"
	"strings"
)

// IOLock flags blocking I/O — transport sends, WAL fsyncs, snapshot file
// saves — performed while a mutex is held. The hot-path contract
// (internal/smr/outbox.go) is that protocol steps compute under Replica.mu
// and defer their I/O to the outbox consumer; an fsync or network write
// inside the critical section serializes every other step in the process
// behind it, which is exactly the regression the out-of-lock overhaul
// removed. "Held" is a lexical, package-local heuristic: either the call sits
// between a sync.Mutex Lock() and its Unlock() in the same function body, or
// the enclosing function's name ends in "Locked" (the repository convention
// for "caller holds the lock"). The tree carries no exception.
var IOLock = &Analyzer{
	Name: "iolock",
	Doc: "no transport Send, WAL fsync (Append/Sync/Commit) or storage.Save " +
		"while a mutex is held or inside a *Locked method",
	Run: runIOLock,
}

func runIOLock(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			scanIOLock(pass, fd.Body, strings.HasSuffix(fd.Name.Name, "Locked"))
		}
	}
	return nil
}

// scanIOLock walks body in source order tracking a lock depth: +1 on a
// sync.Mutex/RWMutex Lock or RLock, -1 (floored at zero) on Unlock or
// RUnlock. held seeds the depth for *Locked functions, whose caller holds
// the lock by convention. Function literals get a fresh unheld context —
// they run later (timer callbacks, goroutines), not under the lock that
// was held when they were built. Defer subtrees are skipped entirely: a
// deferred Unlock keeps the lock held to the end of the body, which is
// exactly what not decrementing models.
//
// The scan is lexical, not flow-sensitive: an Unlock inside an early-return
// branch lowers the depth for the code after it. That trades false
// negatives in branchy functions for zero false positives on the dominant
// lock/compute/unlock/flush shape; the analyzer is a tripwire, not a proof.
func scanIOLock(pass *Pass, body *ast.BlockStmt, held bool) {
	depth := 0
	if held {
		depth = 1
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			return false
		case *ast.FuncLit:
			scanIOLock(pass, n.Body, false)
			return false
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Lock", "RLock":
				if isSyncMutex(typeOf(pass, sel.X)) {
					depth++
				}
			case "Unlock", "RUnlock":
				if isSyncMutex(typeOf(pass, sel.X)) && depth > 0 {
					depth--
				}
			default:
				if depth == 0 {
					return true
				}
				if what := blockingIOCall(pass, sel); what != "" {
					pass.Reportf(n.Pos(),
						"%s while a mutex is held; queue it and perform the I/O after Unlock (see internal/smr/outbox.go)",
						what)
				}
			}
		}
		return true
	})
}

// typeOf returns the type of e, or nil when the type checker recorded none.
func typeOf(pass *Pass, e ast.Expr) types.Type {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok {
		return nil
	}
	return tv.Type
}

// blockingIOCall classifies sel as one of the watched blocking operations:
// a Send on any type from internal/transport (the Transport interface or a
// concrete implementation), a WAL method that fsyncs — Append (inline
// fsync under SyncAlways), Sync, Commit — or storage.Save, a file's write,
// fsync and rename. AppendBuffered is deliberately absent: it only stages
// bytes, durability is the group commit's job.
func blockingIOCall(pass *Pass, sel *ast.SelectorExpr) string {
	if fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
		fn.Name() == "Save" && strings.HasSuffix(fn.Pkg().Path(), "internal/storage") {
		return "snapshot save (storage.Save)"
	}
	t := typeOf(pass, sel.X)
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	switch sel.Sel.Name {
	case "Send":
		if strings.HasSuffix(obj.Pkg().Path(), "internal/transport") {
			return "transport " + obj.Name() + ".Send"
		}
	case "Append", "Sync", "Commit":
		if strings.HasSuffix(obj.Pkg().Path(), "internal/wal") && obj.Name() == "WAL" {
			return "WAL fsync (" + sel.Sel.Name + ")"
		}
	}
	return ""
}
