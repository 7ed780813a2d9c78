// Package sharedwrite flags goroutine literals that write to variables
// captured from the enclosing function without synchronization.
//
// The worker fan-outs in this repository (DiscoverBatch, influence's
// SampleRange) follow one safe idiom: each goroutine writes only out[i]
// for indices i it exclusively owns. Writes through a captured
// slice index are therefore allowed, while the patterns the race detector
// regularly catches in review are reported:
//
//   - assigning (or ++/--) a captured scalar or struct variable;
//   - writing to a captured map (maps are never safe for concurrent
//     mutation);
//   - growing a captured slice with s = append(s, ...), which races on the
//     slice header.
//
// A goroutine body that takes a lock (any method named Lock/RLock) is
// assumed to manage its own mutual exclusion and is skipped — the race
// detector, which CI runs on every test, remains the runtime authority.
// Deliberate disjoint-range writes that the analyzer cannot prove can be
// annotated with `//codvet:ignore sharedwrite <reason>`.
// _test.go files are exempt.
package sharedwrite

import (
	"go/ast"
	"go/types"

	"github.com/codsearch/cod/internal/analysis"
)

// Analyzer is the sharedwrite analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "sharedwrite",
	Doc:  "flag goroutine literals writing captured shared variables without synchronization",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.SourceFiles() {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit)
			if !ok {
				return true
			}
			checkGoroutine(pass, lit)
			return true
		})
	}
	return nil
}

func checkGoroutine(pass *analysis.Pass, lit *ast.FuncLit) {
	if takesLock(lit.Body) {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				rhs := n.Rhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				checkWrite(pass, lit, lhs, rhs)
			}
		case *ast.IncDecStmt:
			checkWrite(pass, lit, n.X, nil)
		}
		return true
	})
}

// checkWrite reports an unsynchronized write through lhs when its base
// variable is captured from outside the goroutine literal.
func checkWrite(pass *analysis.Pass, lit *ast.FuncLit, lhs, rhs ast.Expr) {
	base, sawSliceIndex, sawMapIndex := access(pass.TypesInfo, lhs)
	if base == nil || !captured(base, lit) {
		return
	}
	switch {
	case sawMapIndex:
		pass.Reportf(lhs.Pos(),
			"goroutine writes captured map %s; maps are unsafe for concurrent mutation — guard it with a sync.Mutex or give each worker its own map",
			base.Name())
	case sawSliceIndex:
		// out[i] = ... with worker-owned disjoint indices: the sanctioned
		// fan-out idiom.
	case rhs != nil && isAppendOf(pass.TypesInfo, rhs, base):
		pass.Reportf(lhs.Pos(),
			"goroutine appends to captured slice %s, racing on the slice header; preallocate and write disjoint indices, or collect via a channel",
			base.Name())
	default:
		pass.Reportf(lhs.Pos(),
			"goroutine writes captured variable %s without synchronization; use a sync primitive, a channel, or per-worker state",
			base.Name())
	}
}

// access resolves an assignable expression to its base variable, recording
// whether the path goes through a slice/array index or a map index.
func access(info *types.Info, e ast.Expr) (base *types.Var, sliceIdx, mapIdx bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			v, _ := analysis.ObjectOf(info, x).(*types.Var)
			return v, sliceIdx, mapIdx
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			switch info.TypeOf(x.X).Underlying().(type) {
			case *types.Map:
				mapIdx = true
			case *types.Slice, *types.Array, *types.Pointer:
				sliceIdx = true
			}
			e = x.X
		case *ast.StarExpr:
			// A write through a captured pointer dereference targets shared
			// memory the pointer owner sees; treat like a direct write.
			e = x.X
		default:
			return nil, sliceIdx, mapIdx
		}
	}
}

// captured reports whether v is declared outside the goroutine literal (and
// is not a struct field, whose "declaration" is its type).
func captured(v *types.Var, lit *ast.FuncLit) bool {
	if v.IsField() || v.Pkg() == nil {
		return false
	}
	return v.Pos() < lit.Pos() || v.Pos() > lit.End()
}

// isAppendOf reports whether rhs is append(base, ...).
func isAppendOf(info *types.Info, rhs ast.Expr, base *types.Var) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return false
	}
	if _, isBuiltin := analysis.ObjectOf(info, id).(*types.Builtin); !isBuiltin {
		return false
	}
	b, _, _ := access(info, call.Args[0])
	return b == base
}

// takesLock reports whether body calls any method named Lock or RLock —
// the goroutine manages its own mutual exclusion.
func takesLock(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
				found = true
			}
		}
		return !found
	})
	return found
}
