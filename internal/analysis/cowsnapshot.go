package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// cowSnapshot enforces the copy-on-write discipline on fields annotated
//
//	//gengar:guardedby <mu>
//
// whose type is atomic.Pointer[...] (alloc.ShardedPool.slabIndex;
// cache.RemapTable.buckets for its publication side only — the bucket
// array is replaced under mu when it doubles, while the chains hanging
// off it are republished bucket by bucket with atomic stores, which
// this rule does not look at). The contract has two sides:
//
//   - Publication: Store/Swap on the field is legal only while the
//     declared sibling writer mutex of the SAME receiver is held (or on
//     a receiver the function just allocated and has not yet published
//     — the constructor pattern). Writers serialize on the mutex;
//     readers never take it.
//
//   - Immutability: a pointer obtained via Load is a shared snapshot
//     that lock-free readers are walking concurrently. Any write
//     through it — a field store, a map/slice element write, a delete —
//     is a finding, even under the writer mutex: mutation must go
//     through a fresh clone that is then Store'd.
//
// Annotations naming a mutex that is not a sibling field are themselves
// reported here, in the declaring package. Mutex-held tracking is the
// same linear source-order approximation as lock-order (see
// lockorder.go); only Lock (not RLock) authorizes publication.
const cowSnapshotName = "cow-snapshot"

var cowSnapshot = &Analyzer{
	Name: cowSnapshotName,
	Doc:  "COW atomic.Pointer stored without its writer lock, or snapshot mutated after Load",
	Run:  runCowSnapshot,
}

func runCowSnapshot(p *Pass) []Finding {
	if p.Facts == nil {
		return nil
	}
	var out []Finding
	for _, bg := range p.Facts.badGuards {
		if bg.fileDir == p.Pkg.Dir {
			out = append(out, findingAt(cowSnapshotName, bg.pos, "%s", bg.msg))
		}
	}
	for _, fn := range funcDecls(p.Pkg) {
		w := &cowWalker{
			p:       p,
			fresh:   freshLocals(p, fn),
			held:    make(map[string]bool),
			tainted: make(map[types.Object]bool),
		}
		w.markDeferred(fn.Body)
		w.walkBody(fn.Body)
		out = append(out, w.findings...)
	}
	return out
}

// cowWalker scans one function body in source order, tracking which
// mutex instances are held and which locals alias a Load'd snapshot.
type cowWalker struct {
	p        *Pass
	fresh    map[any]bool // locals allocated by this function
	held     map[string]bool
	tainted  map[types.Object]bool
	deferred map[*ast.CallExpr]bool
	findings []Finding
}

func (w *cowWalker) markDeferred(body *ast.BlockStmt) {
	w.deferred = make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			w.deferred[d.Call] = true
		}
		return true
	})
}

func (w *cowWalker) walkBody(body *ast.BlockStmt) {
	ast.Inspect(body, w.visit)
}

func (w *cowWalker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.FuncLit:
		// A literal may run on another goroutine: fresh lock state, but
		// captured snapshots stay tainted.
		inner := &cowWalker{
			p:        w.p,
			fresh:    w.fresh,
			held:     make(map[string]bool),
			tainted:  copyTaint(w.tainted),
			deferred: w.deferred,
		}
		inner.markDeferred(n.Body)
		inner.walkBody(n.Body)
		w.findings = append(w.findings, inner.findings...)
		return false
	case *ast.AssignStmt:
		w.assign(n)
		return true
	case *ast.RangeStmt:
		// Ranging over a snapshot chain hands out its elements: writes
		// through the value variable mutate shared state.
		if w.chainTainted(n.X) || w.loadChainOf(n.X) != nil {
			if id, ok := n.Value.(*ast.Ident); ok && id.Name != "_" {
				if obj := w.p.Pkg.Info.Defs[id]; obj != nil {
					w.tainted[obj] = true
				}
			}
		}
		return true
	case *ast.IncDecStmt:
		w.checkWrite(n.X, n.Pos())
		return true
	case *ast.CallExpr:
		w.call(n)
		return true
	}
	return true
}

func (w *cowWalker) call(call *ast.CallExpr) {
	info := w.p.Pkg.Info

	// delete(snapshotMap, k) mutates the shared map.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "delete" && len(call.Args) == 2 {
		if _, builtin := info.Uses[id].(*types.Builtin); builtin {
			w.checkWrite(call.Args[0], call.Pos())
			return
		}
	}

	c, ok := resolveCallee(info, call)
	if !ok {
		return
	}

	// Mutex bookkeeping.
	if c.pkgPath == "sync" && c.recvX != nil && isMutexType(typeOf(w.p, c.recvX)) {
		inst := exprText(c.recvX)
		switch c.name {
		case "Lock":
			w.held[inst] = true
		case "RLock":
			// Read locks never authorize publication; not tracked.
		case "Unlock", "RUnlock":
			if !w.deferred[call] {
				delete(w.held, inst)
			}
		}
		return
	}

	// Store/Swap on a guarded COW field.
	if c.name != "Store" && c.name != "Swap" {
		return
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	g := w.guardOf(sel.X)
	if g == nil {
		return
	}
	fieldSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if root := rootObj(info, fieldSel.X); root != nil && w.fresh[root] {
		return // pre-publication constructor fill
	}
	needed := exprText(fieldSel.X) + "." + g.muName
	if !w.held[needed] {
		w.findings = append(w.findings, w.p.finding(cowSnapshotName, call.Pos(),
			"%s on COW field %s without holding its declared writer lock %s (gengar:guardedby at %s:%d)",
			c.name, g.fieldName, needed, g.declPos.Filename, g.declPos.Line))
	}
}

// assign records snapshot taint flowing through := / = and checks every
// left-hand side for writes through a snapshot.
func (w *cowWalker) assign(as *ast.AssignStmt) {
	info := w.p.Pkg.Info
	for _, lhs := range as.Lhs {
		if _, plain := ast.Unparen(lhs).(*ast.Ident); !plain {
			w.checkWrite(lhs, lhs.Pos())
		}
	}
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, rhs := range as.Rhs {
		id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj == nil {
			continue
		}
		if w.loadChainOf(rhs) != nil || w.chainTainted(rhs) {
			w.tainted[obj] = true
		} else if as.Tok == token.ASSIGN || as.Tok == token.DEFINE {
			delete(w.tainted, obj) // rebound to something clean
		}
	}
}

// checkWrite reports a mutation whose target chains down to a snapshot:
// a tainted local, or a direct x.p.Load().field chain.
func (w *cowWalker) checkWrite(target ast.Expr, pos token.Pos) {
	if g := w.loadChainOf(target); g != nil {
		w.findings = append(w.findings, w.p.finding(cowSnapshotName, pos,
			"write through Load() of COW field %s: snapshots are immutable, mutate a clone and Store it",
			g.fieldName))
		return
	}
	if w.chainTainted(target) {
		g := ""
		if root := rootObj(w.p.Pkg.Info, target); root != nil {
			g = " (" + root.Name() + " aliases a Load'd snapshot)"
		}
		w.findings = append(w.findings, w.p.finding(cowSnapshotName, pos,
			"write through a COW snapshot%s: snapshots are immutable, mutate a clone and Store it", g))
	}
}

// chainTainted reports whether the expression is a selector/index/star
// chain rooted at a tainted local.
func (w *cowWalker) chainTainted(e ast.Expr) bool {
	root := rootObj(w.p.Pkg.Info, e)
	return root != nil && w.tainted[root]
}

// loadChainOf returns the guard contract when the expression contains a
// Load() call on a guarded COW field anywhere down its access chain
// (t.p.Load().m, (*t.p.Load()).m[k], ...).
func (w *cowWalker) loadChainOf(e ast.Expr) *guardFact {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			c, ok := resolveCallee(w.p.Pkg.Info, x)
			if ok && c.name == "Load" {
				if sel, isSel := ast.Unparen(x.Fun).(*ast.SelectorExpr); isSel {
					if g := w.guardOf(sel.X); g != nil {
						return g
					}
				}
			}
			return nil
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// guardOf resolves an expression to its guarded-COW-field contract, or
// nil when the expression is not an annotated atomic.Pointer field.
func (w *cowWalker) guardOf(fieldExpr ast.Expr) *guardFact {
	key, ok := exprKey(w.p.Pkg.Info, fieldExpr)
	if !ok {
		return nil
	}
	g := w.p.Facts.guarded[key]
	if g == nil || !g.isCOWPtr {
		return nil
	}
	return g
}

func copyTaint(m map[types.Object]bool) map[types.Object]bool {
	out := make(map[types.Object]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
