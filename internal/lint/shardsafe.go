package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ShardSafeRule enforces the lane-affinity contract the time-windowed
// parallel kernel depends on (internal/sim.Sharded):
//
//  1. Outside internal/coherent, code must not reach through
//     Machine.Eng to the raw sequential kernel — scheduling must go
//     through the machine façade (Now, ScheduleAt, ScheduleGlobal,
//     GlobalOpAt, RunKernel), which routes onto the correct worker
//     lane under the sharded engine. Sequential-only drivers (the
//     model checker's transport) carry an allow comment.
//
//  2. In any package declaring a shard-safe engine (a type with a
//     ShardSafeEngine method), event-handler code must not mutate the
//     machine-global counters through Machine.Ctr — a data race when
//     handlers run on parallel lanes. Handlers use m.CtrAt(n), the
//     lane-local sink folded deterministically at quiesce. Reading
//     Ctr (reports, post-run assertions) is fine.
var ShardSafeRule = &Analyzer{
	Name: "shardsafe",
	Doc:  "forbid cross-lane machine state access that bypasses the sharded-kernel façade",
	Run:  runShardSafe,
}

const coherentPath = "dircc/internal/coherent"

func runShardSafe(p *Pass) {
	if p.Pkg.Path() == coherentPath {
		// The façade implementation itself owns the kernel.
		return
	}
	ctrGated := declaresShardSafeEngine(p.Pkg)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if n.Sel.Name == "Eng" && isMachine(p.Info.TypeOf(n.X)) {
					p.Reportf(n.Sel.Pos(),
						"Machine.Eng bypasses the scheduling façade and breaks lane affinity under -shards; use Now/ScheduleAt/ScheduleGlobal/RunKernel")
				}
			case *ast.IncDecStmt:
				if ctrGated {
					checkCtrWrite(p, n.X)
				}
			case *ast.AssignStmt:
				if ctrGated {
					for _, lhs := range n.Lhs {
						checkCtrWrite(p, lhs)
					}
				}
			case *ast.UnaryExpr:
				// &m.Ctr (or &m.Ctr.Hist) hands out a mutable alias
				// that escapes the write checks above.
				if ctrGated && n.Op == token.AND && ctrChainExpr(p, n.X) {
					p.Reportf(n.Pos(),
						"takes the address of Machine.Ctr from engine code; the alias defeats the CtrAt lane-local counter rule")
				}
			case *ast.CallExpr:
				// m.Ctr.Add(...), m.Ctr.MsgByType ... — a method with a
				// pointer receiver reached through Ctr can mutate it.
				if ctrGated {
					checkCtrMethodCall(p, n)
				}
			}
			return true
		})
	}
}

// checkCtrWrite reports when the written expression goes through the
// Ctr field of a coherent.Machine (m.Ctr.X++, m.Ctr.M[k] = v, ...).
func checkCtrWrite(p *Pass, expr ast.Expr) {
	for {
		switch e := expr.(type) {
		case *ast.SelectorExpr:
			if e.Sel.Name == "Ctr" && isMachine(p.Info.TypeOf(e.X)) {
				p.Reportf(e.Sel.Pos(),
					"writes Machine.Ctr from engine code; handlers on a sharded machine must count through m.CtrAt(n)")
				return
			}
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return
		}
	}
}

// ctrChainExpr reports whether expr's selector chain passes through the
// Ctr field of a coherent.Machine.
func ctrChainExpr(p *Pass, expr ast.Expr) bool {
	for {
		switch e := expr.(type) {
		case *ast.SelectorExpr:
			if e.Sel.Name == "Ctr" && isMachine(p.Info.TypeOf(e.X)) {
				return true
			}
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.ParenExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		default:
			return false
		}
	}
}

// checkCtrMethodCall reports method calls reached through Machine.Ctr
// whose receiver is a pointer (Counters.Add, Counters.CountMsg,
// Histogram.Observe, ...): they can mutate the machine-global counters
// just like a direct field write. Field reads stay fine.
func checkCtrMethodCall(p *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !ctrChainExpr(p, sel.X) {
		return
	}
	selection, ok := p.Info.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	if _, isPtr := sig.Recv().Type().(*types.Pointer); !isPtr {
		return
	}
	p.Reportf(call.Pos(),
		"calls %s through Machine.Ctr from engine code; pointer-receiver methods mutate the machine-global counters — use m.CtrAt(n)",
		fn.Name())
}

// isMachine reports whether t is coherent.Machine or a pointer to it.
func isMachine(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Machine" && obj.Pkg() != nil && obj.Pkg().Path() == coherentPath
}

// declaresShardSafeEngine reports whether the package declares a type
// with a ShardSafeEngine method — i.e. contains a protocol engine that
// opted into running on parallel lanes, which subjects its handler
// code to the counter-sink rule.
func declaresShardSafeEngine(pkg *types.Package) bool {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := types.Unalias(tn.Type()).(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if named.Method(i).Name() == "ShardSafeEngine" {
				return true
			}
		}
	}
	return false
}
